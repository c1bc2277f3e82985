"""Fuzzing of every text reader through the command line.

The seeds are, per builtin, its configuration text and the CLI corpus's
sigma, polynomial and point texts on it; each example drops, repeats and
swaps characters and tokens of them and swaps in large integers, then runs
`validate`, `list --max-degree 2`, `picture`, `eval` and `trace` in
process, on the mutated configuration and on the builtin itself.  Every
command must exit 0 or 2, and an exit of 2 prints one `error:` line and no
traceback.  The work is bounded by the load limits, not by a deadline:
every numbering of variables built along the way is counted against
`config.MAX_VARIABLES`.  (`list` runs at degree 2 only: at the load limits
and its default bound it takes about a second.)
"""

import contextlib
import importlib.util
import io
import re
import tempfile
from importlib import resources
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from colorinv import cli
from colorinv.config import MAX_VARIABLES, list_builtin_configs
from colorinv.sympoly import MixedShape

_spec = importlib.util.spec_from_file_location(
    "cli_corpus", Path(__file__).resolve().parents[1] / "tools" / "cli_corpus.py")
corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(corpus)

SIGMAS = ("1", "(1)", "id", "()", "(1 2)", "(1 2 3)(4)", "2,1", "[2,3,1]")
LARGE = ("0", "-1", "9", "99", "65537", "1000000", "2147483648", "10" * 20)


def corpus_texts(name):
    """The texts the corpus reads on one builtin: its configuration, the
    seeded point, phi and random polynomial files of seeds 0-2 with their
    sigmas, and hand-written polynomials, scalars and points."""
    texts = {"config": [resources.files("colorinv").joinpath("configs", name + ".cfg")
                        .read_text(encoding="utf-8")],
             "sigma": list(SIGMAS),
             "poly": [corpus.GOOD_POLY, corpus.BAD_POLYS[0]]
             + ["(%s) * 1" % x for x in corpus.SCALARS],
             "point": [corpus.GOOD_POINT, corpus.BAD_POINTS[0]]}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in range(3):
            paths, sigma = corpus._write_inputs(name, seed, tmp)
            texts["sigma"].append(corpus._sigma_text(sigma))
            for role in ("phi", "poly1", "poly2", "point"):
                texts["point" if role == "point" else "poly"].append(
                    Path(paths[role]).read_text(encoding="utf-8"))
    return {role: tuple(seeds) for role, seeds in texts.items()}


CORPUS = {name: corpus_texts(name) for name in list_builtin_configs()}
TOKEN = re.compile(r"\d+|[A-Za-z_]+|\s+|.", re.S)
NUMBERING = MixedShape.numbering


@st.composite
def mutated(draw, seeds):
    """One of seeds after 0 to 3 edits: drop, repeat or swap a character
    or a token, or put a large integer in a token's place."""
    text = draw(st.sampled_from(seeds))
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(("drop", "repeat", "swap", "int")))
        units = list(text) if draw(st.booleans()) else TOKEN.findall(text)
        if not units:
            break
        i = draw(st.integers(0, len(units) - 1))
        if edit == "drop":
            del units[i]
        elif edit == "repeat":
            units.insert(i, units[i])
        elif edit == "swap":
            j = draw(st.integers(0, len(units) - 1))
            units[i], units[j] = units[j], units[i]
        else:
            digits = [k for k, u in enumerate(units) if u.isdigit()] or [i]
            units[draw(st.sampled_from(digits))] = draw(st.sampled_from(LARGE))
        text = "".join(units)
    return text


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@st.composite
def inputs(draw):
    """A builtin's name and its corpus texts, each mutated."""
    name = draw(st.sampled_from(sorted(CORPUS)))
    return name, {role: draw(mutated(seeds)) for role, seeds in CORPUS[name].items()}


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(drawn=inputs(),
       mults=st.sampled_from(("1", "2", "3", "1,1", "99999999999", "0,99999999999")),
       assign=st.sampled_from(("1", "1,1", "1,1,1", "2,1")))
def test_every_reader_exits_0_or_2(monkeypatch, drawn, mults, assign):
    name, texts = drawn
    built = []

    def counted(shape):
        n = NUMBERING(shape)
        built.append(len(n.variables))
        return n
    monkeypatch.setattr(MixedShape, "numbering", counted)
    with tempfile.TemporaryDirectory() as tmp:
        files = {}
        for role in ("config", "poly", "point"):
            files[role] = str(Path(tmp) / ("fuzz." + role))
            Path(files[role]).write_text(texts[role], encoding="utf-8")
        sigma = texts["sigma"]
        for cfg in ("--config=" + files["config"], "--config=builtin:" + name):
            commands = (
                ["validate", cfg],
                ["list", cfg, "--max-degree=2"],
                ["picture", cfg, "--multiplicities=" + mults, "--sigma=" + sigma],
                ["eval", cfg, "--poly=" + files["poly"], "--point=" + files["point"]],
                ["trace", cfg, "--sigma=" + sigma, "--point=" + files["point"]],
                ["trace", cfg, "--sigma=" + sigma, "--assign=" + assign,
                 "--point=" + files["point"]],
            )
            for argv in commands:
                code, out, err = run(argv)
                assert code in (0, 2), (argv, code, err)
                if code == 2:
                    assert out == "", argv
                    assert err.startswith("error: ") and "Traceback" not in err, (argv, err)
                    assert sum(line.startswith("error:") for line in err.splitlines()) == 1
                assert all(k <= MAX_VARIABLES for k in built), (argv, built)
