"""Output-identity corpus for the colorinv command line.

    python3 tools/cli_corpus.py            # print "<count> commands sha256 <hex>"
    python3 tools/cli_corpus.py --check tools/cli_corpus.sha256

Runs a fixed set of `colorinv` commands in-process through `cli.main`, on
every builtin configuration:

* `validate`; `list` with the default bound, with `--max-degree` 1, 2 and 3,
  and with an out-of-range bound (an error, exit 2);
* `picture` at M = (N,) for N <= 3 and every sigma in S_N, in text and
  structured form, and at M = (4,) for every sigma in S_4, in text form;
* per seed 0-7, a seeded degree-0 point file (`sampling.random_w0_point`),
  the file of one phi_sigma and the files of two seeded random polynomials
  (`sampling.random_sym_polynomial`, of degree <= 1 and <= 2), then `eval`
  of phi in text and structured form and at `--truncation 0`, `eval` of
  each random polynomial (a mix of degrees is an error, exit 2), and
  `trace` at a seeded sigma in text and structured form;
* `verify --suite all` at seeds 0-7.

Each command's argument list, exit code, standard output and standard error
go into one SHA-256, and so does the text of every generated file; the
temporary directory's path is replaced by a fixed token first.  A change
that keeps the printed line unchanged leaves every byte the CLI prints
unchanged on this set.  With `--check FILE` the script compares its line
with the first line of FILE and exits 1 when they differ.

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


def _sigma_text(sigma):
    return ",".join(str(x) for x in sigma)


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
    paths = {}
    for role, text in texts.items():
        path = paths[role] = os.path.join(tmp, "%s-%d.%s" % (name, seed, role))
        with open(path, "w") as fh:
            fh.write(text)
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
