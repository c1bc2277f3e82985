"""Output-identity corpus for the colorinv command line.

    python3 tools/cli_corpus.py            # print "<count> commands sha256 <hex>"
    python3 tools/cli_corpus.py --check tools/cli_corpus.sha256

Runs a fixed set of `colorinv` commands in-process through `cli.main`, on
every builtin configuration:

* `validate`; `list` with the default bound, with `--max-degree` 1, 2 and 3,
  and with an out-of-range bound (an error, exit 2);
* `picture` at M = (N,) for N <= 3 and every sigma in S_N, in text and
  structured form, at M = (4,) for every sigma in S_4, in text form, and
  at M = (5,) for one sigma per cycle type, in text and structured form;
* per seed 0-7, a seeded degree-0 point file (`sampling.random_w0_point`),
  the file of one phi_sigma and the files of two seeded random polynomials
  (`sampling.random_sym_polynomial`, of degree <= 1 and <= 2), then `eval`
  of phi in text and structured form and at `--truncation 0`, `eval` of
  each random polynomial (a mix of degrees is an error, exit 2), and
  `trace` at a seeded sigma in text and structured form;
* `verify --suite all` at seeds 0-7;
* on two configuration files written to the temporary directory
  (`MIXED_CONFIGS`: z2z2 with shape (2,1)+(1,2) and z3z3 with two matrix
  summands, both with `bounds.max_n = 3`), so that the copies of one
  picture belong to different summands: `validate`, `list`, `picture` at
  the listed multiplicities for every sigma in S_3 in text and structured
  form, and `verify --suite all --seed 0`; on the first also `picture` at
  the unbalanced M = (0, 2), an error, exit 2;
* on a z3z3 configuration file with `bounds.max_n = 6` (`Z3Z3_SIX`),
  `picture` at M = (6,) for one sigma per cycle type, in text and
  structured form;
* on a super configuration file with one (2,2) pair and `bounds.max_n = 8`
  (`KLEIN`), `picture` at M = (4,) and sigma = 3,6,1,8,7,2,5,4
  (`KLEIN_SIGMA`), whose symmetries form a Klein four-group, in text and
  structured form;
* pictures whose sigma has three or more components, so that build_phi
  multiplies component counts more than once, and a repeated odd variable
  drops pairs of monomials on super: on super and z2z2, `picture` at
  M = (5,) and sigma = (1 3)(2 5), whose components are not runs of
  positions, and on a super configuration file with two (1,1) pairs and
  `bounds.max_n = 4` (`SUPER_TWO`), `picture` at M = (2,2) for every sigma
  in S_4 with three or more cycles, whose components mix the summands,
  each in text and structured form;
* on super, `eval` of fixed hand-written poly and point files (`BAD_POLYS`,
  `BAD_POINTS`): one per message of the text parsers, and two well-formed
  files whose terms repeat, cancel or vanish, in text and structured form;
* on z3z3 and z4, `eval` of each hand-written scalar of `SCALARS` as the
  constant poly '(s) * 1' at the zero point, in text and structured form;
* `validate` of a configuration file whose `bounds.max_n` is above
  `config.MAX_N`, of one with more `shape.pairs` than `config.MAX_PAIRS`,
  of one with more variables than `config.MAX_VARIABLES` and of one on a
  one-dimensional space with a pair whose b + t is above 2 * `config.MAX_N`
  (`OVER_LIMITS`); `picture` at N = 6 on a space of dim 8, whose 8^6 index
  tuples are above `config.MAX_TUPLES` (`WIDE_CONFIG`); and on super,
  `trace` of a sigma in S_1000000 and of an `--assign` of 6 positions,
  both above `bounds.max_n`, `picture` with `--sigma=--`, which
  argparse reads as an empty list up to Python 3.12 and as "--" from 3.13,
  and `picture` at M = (99999999999,) on z4 and at M = (0, 99999999999) on
  z4 with a (0, 1) pair (`ONE_SIDED`), whose N and N' are above
  `bounds.max_n` (each an error, exit 2); `verify --suite span` on the
  same space of dim 8, whose r = 3 block passes
  `oracle.MAX_SPAN_MONOMIALS` and is skipped, `verify --suite
  centralizer-commute` and `--suite symalgebra` there, whose psi checks at
  k = 3 pass `oracle.MAX_CHECKS` and whose degree-3 monomials pass
  `oracle.MAX_SYM_LISTING`, each skipped, and `verify --suite span` on
  super with one (4,4) pair and `bounds.max_n = 3` (`LONG_PAIR`) and on a
  one-dimensional trivial space with the same pair and bound
  (`LONG_TRIVIAL`), whose blocks of N = 4, 8 and 12 exceed `bounds.max_n`
  and are skipped; `verify --suite bicharacter` and `--suite cocycle` on
  Z_64 with seven space degrees (`WIDE_GROUP`), whose 64^3 biadditive
  triples and 7^4 * 4! gamma values at k = 4 pass `oracle.MAX_CHECKS` and
  are skipped; `verify --suite restitution` on Z_256 (`HUGE_GROUP`), whose
  test algebra's 131,585 words of length <= 2 pass `oracle.MAX_CHECKS`, so
  that the suite is skipped;
* on super, `picture` at M = (3,) with sigma written in cycle notation,
  as `()`, as `id` and in bracketed one-line notation, in text and
  structured form, and `trace` with sigma `(1 2)` and `--assign 1,1`; and
  the refusals of sigma (each an error, exit 2, `SIGMA_REFUSALS`): an
  unclosed cycle, cycles that are not disjoint, a cycle entry past N, a
  one-line list that is not a permutation, a permutation of the wrong
  size, and `trace` of `id` without `--assign`;
* `validate` of one configuration file per integer list the loader reads
  (`group.factors`, a `bicharacter.expmat` row, a `space.degrees` entry, a
  `shape.pairs` entry) holding a malformed literal (`MALFORMED_LISTS`, each
  an error naming its line, exit 2).

Each command's argument list, exit code, standard output and standard error
go into one SHA-256, and so does the text of every generated file; the
temporary directory's path is replaced by a fixed token first.  A change
that keeps the printed line unchanged leaves every byte the CLI prints
unchanged on this set.  With `--check FILE` the script compares its line
with the first line of FILE and exits 1 when they differ.  The line is the
same on Python 3.10 to 3.13.

Run from the root of a source checkout; colorinv is imported from `src/`.
"""

import argparse
import contextlib
import hashlib
import io
import os
import random
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from colorinv import cli, permutations as perms  # noqa: E402
from colorinv.config import builtin_config, list_builtin_configs  # noqa: E402
from colorinv.pictures import PictureShape, build_phi  # noqa: E402
from colorinv.sampling import (random_sym_polynomial, random_w0_point,  # noqa: E402
                               standard_test_algebra)
from colorinv.textform import format_point, format_sym  # noqa: E402

SEEDS = range(8)
MAX_N = 3
TOKEN = "$TMP"

# Malformed poly files, each read with a valid point file, and malformed
# point files, each read with the poly '(1) * 1': one file per message.
BAD_POLYS = (
    "(1) * T(1)[1]^[1",                 # unbalanced brackets
    "(1) * 1)(",                        # unbalanced brackets, ')(' in one term
    "(1) * 1 + (1 - z) * T(1)[1]^[1])",
    "1 * T(1)[1]^[1]",                  # coefficient not in parentheses
    "(1] * 1",                          # '(' and '[' nest alike
    "(1)",                              # bad polynomial term
    "(1 +) * 1",                        # malformed scalar
    "() * 1",                           # empty scalar
    "(x) * 1",                          # bad scalar term
    "(1/0) * T(1)[1]^[1]",              # zero denominator
    "(1) * T(1)[1]",                    # bad variable
    "(1) * T(9)[1]^[1]",                # check_variable: summand
    "(1) * T(1)[1,1]^[1]",              # check_variable: shape
    "(1) * T(1)[9]^[1]",                # check_variable: index
    "(1) * T(1)[1,,1]^[1]",             # bad variable: an empty index run
)
BAD_POINTS = (
    "1: ((1) * 1) * e1 ox e1*)(",       # unbalanced brackets
    "1: (1 * x1) * e1 ox e1*",          # coefficient not in parentheses
    "1: ((1)) * e1 ox e1*",             # bad algebra term
    "1: (1)",                           # bad tensor term
    "1: ((1) * 1) * e1 ox e1* * e1",
    "1: ((1 +) * 1) * e1 ox e1*",       # malformed scalar
    "1: ((y) * 1) * e1 ox e1*",         # bad scalar term
    "1: ((1/0) * 1) * e1 ox e1*",       # zero denominator
    "1: ((1) * y1) * e1 ox e1*",        # bad generator
    "1: ((1) * x) * e1 ox e1*",         # bad generator: no index
    "1: ((1) * x1.x) * e1 ox e1*",      # bad generator: no index, second letter
    "1: ((1) * x99) * e1 ox e1*",       # generator index out of range
    "1: ((1) * 1) * f1 ox e1*",         # bad tensor slot
    "1: ((1) * 1) * e1 ox (e1* ox e2)",
    "1: ((1) * 1) * e1 ox e1",          # variance mismatch
    "1: ((1) * 1) * 1",
    "1: ((1) * 1) * e9 ox e1*",         # basis index out of range
    "garbage",                          # parse_point's line errors
    "# comment\n\nx: 0",
    "9: 0",
    "1: 0\n1: 0",
)
GOOD_POLY = ("(1) * T(1)[1]^[1] + (-1) * T(1)[1]^[1] + (2 - z) * T(1)[2]^[2] * T(1)[1]^[1]"
             " + (1/2) * T(1)[1]^[2] * T(1)[2]^[1] + (1) * 1 + (z) * 1")
GOOD_POINT = ("# comment\n\n1: ((1) * x1.x1 + (1/2) * x3.x4 + (1/2) * x4.x3 + (1) * x3.x3) * e1 ox e1*"
              " + ((1) * x3 + (-1) * x3 + (z) * x4.x1) * e1 ox e2* + ((2) * 1) * e2 ox e2*"
              " + ((-1) * 1) * e2 ox e2* + ((1) * x2.x1.x1.x2.x4 + (3) * x4) * e2 ox e1*")

# Hand-written scalars reaching every branch of the scalar parser: bare
# 'z', '-z^k' first and after ' - ', a leading '+', powers k >= m,
# unreduced fractions, a repeated power, and terms that cancel.
SCALARS = ("z", "-z^2", "+ 1/3*z^2", "3/6 - z^5 + 2*z^7", "1/2*z + z - 3/6*z + z^4",
           "-6/4 + z^3 - z^0", "z - z")


PLANE = "space.degrees = [(0,), (1,)]\n"

# name -> configuration text, after its group and bicharacter lines, over
# one load limit.
OVER_LIMITS = {
    "over-ceiling.cfg": PLANE + "shape.pairs = [(1, 1)]\nbounds.max_n = 200\n",
    "over-pairs.cfg": PLANE + "shape.pairs = [%s]\n" % ", ".join(["(1, 1)"] * 7),
    "over-variables.cfg": PLANE + "shape.pairs = [(10, 10)]\n",
    "over-pair-length.cfg": "space.degrees = [(0,)]\nshape.pairs = [(1000000, 1)]\n",
}

# name -> (a line of a valid configuration, the same line with a malformed
# integer list), one per integer list the loader reads.
MALFORMED_LISTS = {
    "bad-factors.cfg": ("group.factors = [2]", "group.factors = [2.0]"),
    "bad-expmat-row.cfg": ("bicharacter.expmat = [[1]]", "bicharacter.expmat = [[True]]"),
    "bad-degrees-entry.cfg": (PLANE.strip(), "space.degrees = [(0,), (1.5,)]"),
    "bad-pairs-entry.cfg": ("shape.pairs = [(1, 1)]", "shape.pairs = [(1, 1), (1, 'a')]"),
}

# A valid configuration of dim 8 with bounds.max_n = 8, whose pictures pass
# config.MAX_TUPLES at N = 6, whose span block at r = 3 passes
# oracle.MAX_SPAN_MONOMIALS, whose psi checks at k = 3 pass
# oracle.MAX_CHECKS and whose degree-3 monomials pass
# oracle.MAX_SYM_LISTING.
WIDE_CONFIG = ("group.factors = [1]\nbicharacter.expmat = [[0]]\nspace.degrees = %r\n"
               "shape.pairs = [(1, 1)]\nbounds.max_n = 8\n" % ([(0,)] * 8))

# super with one (4,4) pair and bounds.max_n = 3: every span block has
# N = 4r > 3, and the restricted mode would otherwise build all of S_4r.
LONG_PAIR = ("group.factors = [2]\nbicharacter.expmat = [[1]]\nspace.degrees = [(0,), (1,)]\n"
             "shape.pairs = [(4, 4)]\nbounds.max_n = 3\n")

# the same pair on a one-dimensional trivial space: one monomial per block,
# so only bounds.max_n keeps the span suite from building all of S_4r.
LONG_TRIVIAL = ("group.factors = [1]\nbicharacter.expmat = [[0]]\nspace.degrees = [(0,)]\n"
                "shape.pairs = [(4, 4)]\nbounds.max_n = 3\n")

# Z_64 with seven space degrees, whose bicharacter triples and cocycle
# gamma values at k = 4 pass oracle.MAX_CHECKS.
WIDE_GROUP = ("group.factors = [64]\nbicharacter.expmat = [[32]]\n"
              "space.degrees = [(0,), (2,), (4,), (6,), (1,), (3,), (5,)]\n"
              "shape.pairs = [(1, 1)]\n")

# Z_256, whose sampling suites' test algebra has 512 generators and passes
# oracle.MAX_CHECKS in its words of length <= 2.
HUGE_GROUP = ("group.factors = [256]\nbicharacter.expmat = [[128]]\n"
              "space.degrees = [(0,), (1,)]\nshape.pairs = [(1, 1)]\n")

# sigma texts for picture on super at M = (3,): four that parse, then one
# refusal per message of permutations.parse_perm and from_cycles.
SIGMA_TEXTS = ("(1 3 2)", "()", "id", "[2,1,3]")
SIGMA_REFUSALS = ("(1 2", "(1 2)(2 3)", "(1 4)", "2,2,1", "2,1")

# z4 with a (0, 1) pair: M = (0, t) has N = 0 and N' = t.
ONE_SIDED = ("group.factors = [4]\nbicharacter.expmat = [[2]]\n"
             "space.degrees = [(0,), (2,), (1,)]\nshape.pairs = [(1, 1), (0, 1)]\n")

# name -> (configuration text, multiplicities of its picture commands).
MIXED_CONFIGS = {
    "z2z2-mixed.cfg": ("group.factors = [2, 2]\nbicharacter.expmat = [[1, 1], [1, 1]]\n"
                       "space.degrees = [(0, 0), (0, 1), (1, 0)]\n"
                       "shape.pairs = [(2, 1), (1, 2)]\nbounds.max_n = 3\n", ("1,1",)),
    "z3z3-two.cfg": ("group.factors = [3, 3]\nbicharacter.expmat = [[0, 1], [2, 0]]\n"
                     "space.degrees = [(0, 0), (0, 1), (1, 0)]\n"
                     "shape.pairs = [(1, 1), (1, 1)]\nbounds.max_n = 3\n", ("1,2", "2,1")),
}

# super with one (2,2) pair and bounds.max_n = 8, for the picture at
# M = (4,) and KLEIN_SIGMA, whose symmetries are three involutions.
KLEIN = ("group.factors = [2]\nbicharacter.expmat = [[1]]\nspace.degrees = [(0,), (1,)]\n"
         "shape.pairs = [(2, 2)]\nbounds.max_n = 8\n")
KLEIN_SIGMA = (3, 6, 1, 8, 7, 2, 5, 4)

# super with two (1,1) pairs and bounds.max_n = 4, for pictures at
# M = (2,2) whose sigma has three or more components.
SUPER_TWO = ("group.factors = [2]\nbicharacter.expmat = [[1]]\nspace.degrees = [(0,), (1,)]\n"
             "shape.pairs = [(1, 1), (1, 1)]\nbounds.max_n = 4\n")

# z3z3 with bounds.max_n = 6, for pictures at M = (6,).
Z3Z3_SIX = ("group.factors = [3, 3]\nbicharacter.expmat = [[0, 1], [2, 0]]\n"
            "space.degrees = [(0, 0), (0, 1), (1, 0)]\n"
            "shape.pairs = [(1, 1)]\nbounds.max_n = 6\n")


def _sigma_text(sigma):
    return ",".join(str(x) for x in sigma)


def _write(tmp, fname, text):
    """Write text to the file fname in tmp; returns its path."""
    path = os.path.join(tmp, fname)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _write_inputs(name, seed, tmp):
    """The seeded point, phi and random polynomial files of one (builtin,
    seed); returns (paths by role, sigma of the trace commands)."""
    cfg = builtin_config(name)
    rng = random.Random("corpus/%s/%d" % (name, seed))
    alg = standard_test_algebra(cfg.chi, cfg.truncation)
    n = 1 + seed % MAX_N
    phi = build_phi(PictureShape(cfg.shape, (n,)), rng.choice(perms.all_perms(n)))
    texts = {
        "point": format_point(random_w0_point(cfg.shape, alg, rng)),
        "phi": format_sym(phi.poly) + "\n",
        "poly1": format_sym(random_sym_polynomial(cfg.shape, 1, rng)) + "\n",
        "poly2": format_sym(random_sym_polynomial(cfg.shape, 2, rng)) + "\n",
    }
    paths = {role: _write(tmp, "%s-%d.%s" % (name, seed, role), text)
             for role, text in texts.items()}
    return paths, rng.choice(perms.all_perms(n))


def commands(tmp):
    """The corpus: a list of argument lists, writing its input files to tmp."""
    out = []
    for name in list_builtin_configs():
        config = ["--config", "builtin:" + name]
        out.append(["validate"] + config)
        out.append(["list"] + config)
        for bound in ("1", "2", "3", "99"):
            out.append(["list"] + config + ["--max-degree", bound])
        for n in range(1, MAX_N + 1):
            for sigma in perms.all_perms(n):
                for fmt in ("text", "structured"):
                    out.append(["picture"] + config
                               + ["--multiplicities", str(n),
                                  "--sigma", _sigma_text(sigma), "--format", fmt])
        for sigma in perms.all_perms(MAX_N + 1):
            out.append(["picture"] + config
                       + ["--multiplicities", str(MAX_N + 1),
                          "--sigma", _sigma_text(sigma), "--format", "text"])
        out.extend(_cycle_type_pictures(config, 5))
        for seed in SEEDS:
            paths, sigma = _write_inputs(name, seed, tmp)
            point = ["--point", paths["point"]]
            for extra in (["--format", "text"], ["--format", "structured"],
                          ["--truncation", "0"]):
                out.append(["eval"] + config + ["--poly", paths["phi"]] + point + extra)
            for role in ("poly1", "poly2"):
                out.append(["eval"] + config + ["--poly", paths[role]] + point)
            assign = ",".join("1" * len(sigma))
            for fmt in ("text", "structured"):
                out.append(["trace"] + config
                           + ["--sigma", _sigma_text(sigma), "--assign", assign]
                           + point + ["--format", fmt])
        for seed in SEEDS:
            out.append(["verify"] + config + ["--suite", "all", "--seed", str(seed)])
    out.extend(_mixed(tmp))
    out.extend(_six(tmp))
    out.extend(_klein(tmp))
    out.extend(_many_components(tmp))
    out.extend(_hand_written(tmp))
    out.extend(_scalars(tmp))
    out.extend(_over_limits(tmp))
    out.extend(_sigma_notation(tmp))
    out.extend(_malformed_lists(tmp))
    return out


def _mixed(tmp):
    """validate, list, picture and verify on the MIXED_CONFIGS files."""
    out = []
    for fname, (text, mults) in MIXED_CONFIGS.items():
        config = ["--config", _write(tmp, fname, text)]
        out += [["validate"] + config, ["list"] + config]
        for m in mults:
            for sigma in perms.all_perms(3):
                for fmt in ("text", "structured"):
                    out.append(["picture"] + config
                               + ["--multiplicities", m,
                                  "--sigma", _sigma_text(sigma), "--format", fmt])
        out.append(["verify"] + config + ["--suite", "all", "--seed", "0"])
    mixed = ["--config", os.path.join(tmp, "z2z2-mixed.cfg")]
    out.append(["picture"] + mixed + ["--multiplicities", "0,2", "--sigma", "1,2"])
    return out


def _six(tmp):
    """picture at M = (6,) on the Z3Z3_SIX file."""
    return _cycle_type_pictures(["--config", _write(tmp, "z3z3-six.cfg", Z3Z3_SIX)], 6)


def _klein(tmp):
    """picture at M = (4,) and KLEIN_SIGMA on the KLEIN file, in text and
    structured form."""
    path = _write(tmp, "klein.cfg", KLEIN)
    return [["picture", "--config", path, "--multiplicities", "4",
             "--sigma", _sigma_text(KLEIN_SIGMA), "--format", fmt]
            for fmt in ("text", "structured")]


def _many_components(tmp):
    """picture at M = (5,) and sigma = (1 3)(2 5) on super and z2z2, and
    at M = (2,2) on the SUPER_TWO file for every sigma in S_4 with three
    or more cycles, in text and structured form."""
    configs = [(["--config", "builtin:" + name], "5", [(3, 5, 1, 4, 2)])
               for name in ("super", "z2z2")]
    configs.append((["--config", _write(tmp, "super-two.cfg", SUPER_TWO)], "2,2",
                    [s for s in perms.all_perms(4) if len(perms.cycles(s)) >= 3]))
    return [["picture"] + config + ["--multiplicities", mults,
                                    "--sigma", _sigma_text(sigma), "--format", fmt]
            for config, mults, sigmas in configs for sigma in sigmas
            for fmt in ("text", "structured")]


def _cycle_type_pictures(config, n):
    """picture at M = (n,) for one sigma per cycle type of S_n, in text
    and structured form."""
    return [["picture"] + config + ["--multiplicities", str(n),
                                    "--sigma", _sigma_text(sigma), "--format", fmt]
            for _, sigma in perms.cycle_type_reps(n) for fmt in ("text", "structured")]


def _hand_written(tmp):
    """eval on super of the BAD_POLYS, the BAD_POINTS and GOOD_POLY at
    GOOD_POINT."""
    def write(fname, text):
        return _write(tmp, fname, text + "\n")
    ev = ["eval", "--config", "builtin:super"]
    good_poly, good_point = write("good.poly", GOOD_POLY), write("good.point", GOOD_POINT)
    out = [ev + ["--poly", write("bad-%02d.poly" % i, text), "--point", good_point]
           for i, text in enumerate(BAD_POLYS)]
    one = write("one.poly", "(1) * 1")
    out += [ev + ["--poly", one, "--point", write("bad-%02d.point" % i, text)]
            for i, text in enumerate(BAD_POINTS)]
    for fmt in ("text", "structured"):
        out.append(ev + ["--poly", good_poly, "--point", good_point, "--format", fmt])
    return out


def _scalars(tmp):
    """eval on z3z3 and z4 of each of SCALARS as a constant poly."""
    point = _write(tmp, "zero.point", "1: 0\n")
    out = []
    for i, text in enumerate(SCALARS):
        poly = _write(tmp, "scalar-%d.poly" % i, "(%s) * 1\n" % text)
        for name in ("z3z3", "z4"):
            for fmt in ("text", "structured"):
                out.append(["eval", "--config", "builtin:" + name, "--poly", poly,
                            "--point", point, "--format", fmt])
    return out


def _over_limits(tmp):
    """validate of each OVER_LIMITS file, picture at N = 6 on WIDE_CONFIG,
    trace on super of a sigma in S_1000000 and of an assignment of 6
    positions, picture with the empty value '--sigma=--', and picture at
    a huge multiplicity on z4 and on ONE_SIDED: each an error, exit 2;
    then verify --suite span on WIDE_CONFIG, which skips its r = 3 block,
    --suite centralizer-commute and --suite symalgebra on WIDE_CONFIG,
    which skip their psi checks at k = 3 and their dimension-series, and
    --suite span on LONG_PAIR and LONG_TRIVIAL, which skip every block,
    --suite bicharacter and --suite cocycle on WIDE_GROUP, which skip
    their biadditive triples and their cocycle table at k = 4, and --suite
    restitution on HUGE_GROUP, which skips the whole suite."""
    out = []
    for fname, text in OVER_LIMITS.items():
        text = "group.factors = [2]\nbicharacter.expmat = [[1]]\n" + text
        out.append(["validate", "--config", _write(tmp, fname, text)])
    wide = _write(tmp, "wide.cfg", WIDE_CONFIG)
    out.append(["picture", "--config", wide, "--multiplicities", "6", "--sigma", "id"])
    trace = ["trace", "--config", "builtin:super",
             "--point", os.path.join(tmp, "super-0.point")]
    out.append(trace + ["--sigma", "(1 1000000)"])
    out.append(trace + ["--sigma", "(1 2)", "--assign", "1,1,1,1,1,1"])
    out.append(["picture", "--config", "builtin:super", "--multiplicities", "2", "--sigma=--"])
    out.append(["picture", "--config", "builtin:z4", "--multiplicities", "99999999999",
                "--sigma", "id"])
    out.append(["picture", "--config", _write(tmp, "one-sided.cfg", ONE_SIDED),
                "--multiplicities", "0,99999999999", "--sigma", "id"])
    for name in ("span", "centralizer-commute", "symalgebra"):
        out.append(["verify", "--config", wide, "--suite", name])
    for fname, text in (("long-pair.cfg", LONG_PAIR), ("long-trivial.cfg", LONG_TRIVIAL)):
        out.append(["verify", "--config", _write(tmp, fname, text), "--suite", "span"])
    wide_group = _write(tmp, "wide-group.cfg", WIDE_GROUP)
    for name in ("bicharacter", "cocycle"):
        out.append(["verify", "--config", wide_group, "--suite", name])
    out.append(["verify", "--config", _write(tmp, "huge-group.cfg", HUGE_GROUP),
                "--suite", "restitution"])
    return out


def _sigma_notation(tmp):
    """picture on super at M = (3,) for each of SIGMA_TEXTS in text and
    structured form and for each of SIGMA_REFUSALS; trace of '(1 2)' with
    --assign 1,1, and of 'id' without --assign (an error, exit 2)."""
    picture = ["picture", "--config", "builtin:super", "--multiplicities", "3"]
    out = [picture + ["--sigma", text, "--format", fmt]
           for text in SIGMA_TEXTS for fmt in ("text", "structured")]
    out += [picture + ["--sigma", text] for text in SIGMA_REFUSALS]
    trace = ["trace", "--config", "builtin:super",
             "--point", os.path.join(tmp, "super-0.point")]
    out.append(trace + ["--sigma", "(1 2)", "--assign", "1,1"])
    out.append(trace + ["--sigma", "id"])
    return out


def _malformed_lists(tmp):
    """validate of each MALFORMED_LISTS file: an error, exit 2."""
    good = ("group.factors = [2]\nbicharacter.expmat = [[1]]\n" + PLANE
            + "shape.pairs = [(1, 1)]\n")
    out = []
    for fname, (line, bad) in MALFORMED_LISTS.items():
        out.append(["validate", "--config", _write(tmp, fname, good.replace(line, bad))])
    return out


def _run(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, stdout.getvalue(), stderr.getvalue()


def corpus_line():
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        argvs = commands(tmp)
        for fname in sorted(os.listdir(tmp)):
            with open(os.path.join(tmp, fname)) as fh:
                digest.update(("file %s\n%s\0" % (fname, fh.read())).encode())
        for argv in argvs:
            code, out, err = _run(argv)
            record = "%r\n%r\n%s\0%s\0" % ([a.replace(tmp, TOKEN) for a in argv],
                                           code, out.replace(tmp, TOKEN),
                                           err.replace(tmp, TOKEN))
            digest.update(record.encode())
    return "%d commands sha256 %s" % (len(argvs), digest.hexdigest())


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--check", metavar="FILE",
                    help="compare with the first line of FILE; exit 1 on a difference")
    args = ap.parse_args(argv)
    line = corpus_line()
    print(line)
    if args.check:
        with open(args.check) as fh:
            want = fh.readline().strip()
        if line != want:
            print("cli corpus differs from %s: expected %s" % (args.check, want),
                  file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
