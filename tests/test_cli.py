"""Command line behavior, exercised in process through main(argv)."""

import json
import random
import re
import shlex
from pathlib import Path

import pytest

from colorinv.cli import main
from colorinv.config import MAX_TUPLES, builtin_config
from colorinv.pictures import PictureShape, build_phi
from colorinv.sampling import random_w0_point, standard_test_algebra
from colorinv.textform import (format_eps, format_point, format_sym,
                               parse_point, parse_sym)
from colorinv.traces import restitute, trace_monomial


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_validate_builtin(capsys):
    rc, out, err = run(capsys, "validate", "--config", "builtin:super")
    assert rc == 0
    assert "valid" in out.splitlines()[-1]
    assert "group: factors [2]" in out


def test_validate_unknown_config(capsys):
    rc, out, err = run(capsys, "validate", "--config", "builtin:missing")
    assert rc == 2
    assert err.startswith("error:")


def test_validate_rejects_group_order_beyond_limit(capsys, tmp_path):
    """A group too large to enumerate is refused at load, before its
    bicharacter is built; the limit itself is accepted."""
    text = ("group.factors = [%d]\nbicharacter.expmat = [[0]]\n"
            "space.degrees = [(0,)]\nshape.pairs = [(1, 1)]\n")
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(text % 1000000000)
    rc, out, err = run(capsys, "validate", "--config", str(cfg))
    assert rc == 2 and out == ""
    assert err == ("error: %s:1: group order 1000000000 exceeds the limit of 4096\n"
                   % cfg)
    cfg.write_text(text % 4096)
    rc, out, err = run(capsys, "validate", "--config", str(cfg))
    assert rc == 0 and "order 4096" in out


def test_list_enumerates_shapes(capsys):
    rc, out, err = run(capsys, "list", "--config", "builtin:super",
                       "--max-degree", "2")
    assert rc == 0
    assert "multiplicities 1  positions N=1" in out
    assert "multiplicities 2  positions N=2" in out
    assert "cycle type 2" in out
    assert "cycle type 1+1" in out


def test_picture_output_parses_back(capsys):
    rc, out, err = run(capsys, "picture", "--config", "builtin:z2z2",
                       "--multiplicities", "2", "--sigma", "(1 2)")
    assert rc == 0
    cfg = builtin_config("z2z2")
    expected = build_phi(PictureShape(cfg.shape, (2,)), (2, 1)).poly
    assert parse_sym(out.strip(), cfg.shape) == expected


def test_list_rejects_max_degree_outside_bounds(capsys, monkeypatch):
    cfg = builtin_config("super")

    def refuse(shape, max_positions):
        raise AssertionError("list enumerated with --max-degree %d" % max_positions)

    for bad in (cfg.max_n + 1, 0, -1):
        with monkeypatch.context() as patch:
            patch.setattr("colorinv.cli.balanced_multiplicities", refuse)
            rc, out, err = run(capsys, "list", "--config", "builtin:super",
                               "--max-degree", str(bad))
        assert rc == 2
        assert out == ""
        assert "--max-degree %d" % bad in err
        assert "bounds.max_n=%d" % cfg.max_n in err
    rc, out, err = run(capsys, "list", "--config", "builtin:super",
                       "--max-degree", str(cfg.max_n))
    assert rc == 0
    assert "positions N=%d" % cfg.max_n in out


def test_max_n_above_the_ceiling_is_refused_on_load(capsys, monkeypatch, tmp_path):
    path = tmp_path / "huge.cfg"
    text = (Path(__file__).parents[1] / "src/colorinv/configs/super.cfg").read_text()
    path.write_text(text + "bounds.max_n = 200\n")
    line = len(text.splitlines()) + 1

    def refuse(shape, max_positions):
        raise AssertionError("enumerated to N=%d" % max_positions)

    monkeypatch.setattr("colorinv.cli.balanced_multiplicities", refuse)
    for command in ("validate", "list"):
        rc, out, err = run(capsys, command, "--config", str(path))
        assert rc == 2
        assert out == ""
        assert err == "error: %s:%d: bounds.max_n 200 exceeds the limit of 8\n" % (path, line)


def test_unbounded_shapes_are_refused_on_load(capsys, monkeypatch, tmp_path):
    """Over any shape limit, validate, list and verify exit 2 naming the
    line and the limit; building the shape, enumerating multiplicities or
    numbering variables raises, so the refusal comes before any work."""
    def refuse(*args):
        raise AssertionError("work started on an over-limit shape")

    monkeypatch.setattr("colorinv.cli.balanced_multiplicities", refuse)
    monkeypatch.setattr("colorinv.sympoly.MixedShape.numbering", refuse)
    monkeypatch.setattr("colorinv.sympoly.MixedShape.__init__", refuse)
    head = "group.factors = [2]\nbicharacter.expmat = [[1]]\n"
    plane, line_ = "space.degrees = [(0,), (1,)]\n", "space.degrees = [(0,)]\n"
    cases = {"pairs": (plane, "shape.pairs = %r\n" % ([(1, 1)] * 7),
                       "7 shape pairs exceed the limit of 6"),
             "variables": (plane, "shape.pairs = [(10, 10)]\n",
                           "the shape's variables, the sum of dim^(b+t), "
                           "exceed the limit of 65536"),
             "long-pair": (line_, "shape.pairs = [(1000000, 1)]\n",
                           "a shape pair with b + t = 1000001 exceeds the "
                           "limit of 16")}
    for name, (degrees, line, message) in cases.items():
        path = tmp_path / (name + ".cfg")
        path.write_text(head + degrees + line)
        for command in ("validate", "list", "verify"):
            rc, out, err = run(capsys, command, "--config", str(path))
            assert rc == 2
            assert out == ""
            assert err == "error: %s:4: %s\n" % (path, message)


def test_picture_refuses_too_many_index_tuples(capsys, monkeypatch, tmp_path):
    """A picture visits dim^N index tuples: on a trivially graded space of
    dim 8, N = 5 is within MAX_TUPLES and N = 6 is refused with exit 2
    before the picture is built."""
    path = tmp_path / "dim8.cfg"
    path.write_text("group.factors = [1]\nbicharacter.expmat = [[0]]\n"
                    "space.degrees = %r\nshape.pairs = [(1, 1)]\n"
                    "bounds.max_n = 8\n" % ([(0,)] * 8))
    assert 8 ** 5 <= MAX_TUPLES < 8 ** 6

    def refuse(*args):
        raise AssertionError("picture built over the tuple limit")
    monkeypatch.setattr("colorinv.cli.build_phi", refuse)
    rc, out, err = run(capsys, "picture", "--config", str(path),
                       "--multiplicities", "6", "--sigma", "id")
    assert (rc, out) == (2, "")
    assert err == ("error: N=6 tensor positions on a space of dim 8 give 262144 "
                   "index tuples, above the limit of %d\n" % MAX_TUPLES)
    with pytest.raises(AssertionError, match="over the tuple limit"):
        run(capsys, "picture", "--config", str(path), "--multiplicities", "5",
            "--sigma", "id")


def test_trace_refuses_more_positions_than_max_n(capsys, monkeypatch, tmp_path):
    """A sigma without --assign lies in S_K, K its largest entry, and an
    --assign names N positions: above bounds.max_n (5 on super) either is
    refused with exit 2 before sigma is parsed or the trace taken."""
    cfg = builtin_config("super")
    point = random_w0_point(cfg.shape, standard_test_algebra(cfg.chi),
                            random.Random("cli-positions"))
    point_file = tmp_path / "point.txt"
    point_file.write_text(format_point(point))
    trace = ("trace", "--config", "builtin:super", "--point", str(point_file))

    def refuse(*args, **kwargs):
        raise AssertionError("work started over bounds.max_n")
    monkeypatch.setattr("colorinv.permutations.parse_perm", refuse)
    monkeypatch.setattr("colorinv.permutations.from_cycles", refuse)
    monkeypatch.setattr("colorinv.cli.trace_monomial", refuse)
    for extra, n in ((("--sigma", "(1 1000000)"), 1000000),
                     (("--sigma", "(1 10000000000)(2 3)"), 10000000000),
                     (("--sigma", "1,2,3,4,5,6"), 6),
                     (("--sigma", "(1 2)", "--assign", "1,1,1,1,1,1"), 6)):
        rc, out, err = run(capsys, *trace, *extra)
        assert (rc, out) == (2, ""), extra
        assert err == ("error: N=%d tensor positions exceed bounds.max_n=5 of "
                       "builtin:super\n" % n)


def test_picture_structured_output(capsys):
    rc, out, err = run(capsys, "picture", "--config", "builtin:super",
                       "--multiplicities", "2", "--sigma", "id")
    assert rc == 0
    rc, out, err = run(capsys, "picture", "--config", "builtin:super",
                       "--multiplicities", "2", "--sigma", "id",
                       "--format", "structured")
    assert rc == 0
    decoded = json.loads(out)
    assert decoded["terms"]


def test_picture_rejects_bad_sigma(capsys):
    rc, out, err = run(capsys, "picture", "--config", "builtin:super",
                       "--multiplicities", "2", "--sigma", "[1,1]")
    assert rc == 2
    assert err.startswith("error:")
    # argparse reads "--sigma=--" as an empty list up to Python 3.12 and as
    # "--" from 3.13; both are refused as a missing value
    rc, out, err = run(capsys, "picture", "--config", "builtin:super",
                       "--multiplicities", "2", "--sigma=--")
    assert (rc, out, err) == (2, "", "error: --sigma needs a value\n")


def test_picture_rejects_wrong_multiplicity_count(capsys):
    rc, out, err = run(capsys, "picture", "--config", "builtin:super",
                       "--multiplicities", "1,1", "--sigma", "id")
    assert rc == 2


def test_eval_matches_trace_on_shared_point(capsys, tmp_path):
    cfg = builtin_config("super")
    alg = standard_test_algebra(cfg.chi)
    rng = random.Random("cli-point")
    point = random_w0_point(cfg.shape, alg, rng)
    point_file = tmp_path / "point.txt"
    point_file.write_text(format_point(point))
    phi = build_phi(PictureShape(cfg.shape, (2,)), (2, 1))
    poly_file = tmp_path / "phi.txt"
    poly_file.write_text(format_sym(phi.poly))

    rc, eval_out, _ = run(capsys, "eval", "--config", "builtin:super",
                          "--poly", str(poly_file), "--point", str(point_file))
    assert rc == 0
    rc, trace_out, _ = run(capsys, "trace", "--config", "builtin:super",
                           "--sigma", "(1 2)", "--assign", "1,1",
                           "--point", str(point_file))
    assert rc == 0
    assert eval_out == trace_out


def test_trace_rejects_bad_assignment_with_reason(capsys, tmp_path):
    cfg = builtin_config("super")
    alg = standard_test_algebra(cfg.chi)
    point = random_w0_point(cfg.shape, alg, random.Random("cli-assign"))
    point_file = tmp_path / "point.txt"
    point_file.write_text(format_point(point))
    trace = ("trace", "--config", "builtin:super", "--point", str(point_file))

    # super has one operator per point, so only 1 is a valid entry
    for entry in ("2", "0", "-1"):
        rc, out, err = run(capsys, *trace, "--sigma", "(1 2)",
                           "--assign", "1,%s" % entry)
        assert (rc, out) == (2, "")
        assert err == ("error: assignment entry %s at position 2 of N=2 is "
                       "outside 1..1\n" % entry)

    # the CLI sizes sigma by the assignment, so a wrong length shows as a
    # size mismatch there; called directly, trace_monomial names it itself
    rc, out, err = run(capsys, *trace, "--sigma", "2,1", "--assign", "1,1,1")
    assert (rc, out) == (2, "")
    assert err == "error: permutation has size 2, expected 3\n"
    with pytest.raises(ValueError) as exc:
        trace_monomial(list(point.parts), [(1, 2)], [1, 1, 1])
    assert str(exc.value) == ("assignment has 3 entries, but N=2 positions "
                              "each need an operator index in 1..1")


def test_eval_missing_file(capsys, tmp_path):
    rc, out, err = run(capsys, "eval", "--config", "builtin:super",
                       "--poly", str(tmp_path / "absent.txt"),
                       "--point", str(tmp_path / "absent2.txt"))
    assert rc == 2
    assert err.startswith("error:")


def test_eval_zero_denominator_in_poly_file(capsys, tmp_path):
    poly_file = tmp_path / "poly.txt"
    poly_file.write_text("(1/0) * T(1)[1]^[1]\n")
    rc, out, err = run(capsys, "eval", "--config", "builtin:super",
                       "--poly", str(poly_file), "--point", str(tmp_path / "absent.txt"))
    assert (rc, out, err) == (2, "", "error: zero denominator in '1/0'\n")


def test_eval_zero_denominator_in_point_file(capsys, tmp_path):
    poly_file = tmp_path / "poly.txt"
    poly_file.write_text("(1) * 1\n")
    point_file = tmp_path / "point.txt"
    point_file.write_text("1: ((1/0) * 1) * e1 ox e1*\n")
    rc, out, err = run(capsys, "eval", "--config", "builtin:super",
                       "--poly", str(poly_file), "--point", str(point_file))
    assert (rc, out, err) == (2, "", "error: line 1: zero denominator in '1/0'\n")


def test_verify_single_suite_with_report(capsys, tmp_path):
    report = tmp_path / "report.txt"
    rc, out, err = run(capsys, "verify", "--config", "builtin:trivial",
                       "--suite", "bicharacter", "--report", str(report))
    assert rc == 0
    assert "verify: PASS" in out
    text = report.read_text()
    assert text.startswith("suite: bicharacter")
    assert "result: PASS" in text


def test_verify_unknown_suite(capsys):
    rc, out, err = run(capsys, "verify", "--config", "builtin:trivial",
                       "--suite", "nonsense")
    assert rc == 2
    assert err.startswith("error:")


def test_picture_rejects_n_beyond_max_n(capsys, monkeypatch, tmp_path):
    """N and N' past bounds.max_n are refused from the multiplicities
    alone: PictureShape, which lays out one entry per copy, is never
    built, so a huge multiplicity ends at once.  A (0, 1) pair gives
    N = 0 and a huge N'.  A negative multiplicity is refused first, as
    PictureShape refuses it."""
    cfg = builtin_config("z2z2")
    one_sided = tmp_path / "one-sided.cfg"
    one_sided.write_text("group.factors = [4]\nbicharacter.expmat = [[2]]\n"
                         "space.degrees = [(0,), (2,), (1,)]\n"
                         "shape.pairs = [(1, 1), (0, 1)]\n")
    cases = (
        ("builtin:z2z2", str(cfg.max_n + 1),
         "N=%d tensor positions exceed bounds.max_n=%d of builtin:z2z2"
         % (cfg.max_n + 1, cfg.max_n)),
        ("builtin:z4", "99999999999",
         "N=99999999999 tensor positions exceed bounds.max_n=5 of builtin:z4"),
        (str(one_sided), "0,99999999999",
         "shape is unbalanced: N=0 primal vs N'=99999999999 dual slots"),
        (str(one_sided), "-1,99999999999",
         "multiplicities must list one nonnegative int per summand"),
    )

    def refuse(*args):
        raise AssertionError("picture reached past bounds.max_n")

    for config, mults, message in cases:
        with monkeypatch.context() as patch:
            patch.setattr("colorinv.cli.PictureShape", refuse)
            patch.setattr("colorinv.cli.build_phi", refuse)
            rc, out, err = run(capsys, "picture", "--config", config,
                               "--multiplicities=" + mults, "--sigma", "id")
        assert (rc, out, err) == (2, "", "error: %s\n" % message)
    rc, out, err = run(capsys, "picture", "--config", "builtin:z2z2",
                       "--multiplicities", str(cfg.max_n), "--sigma", "id")
    assert rc == 0
    assert out.strip()


def test_eval_and_trace_honour_truncation_zero(capsys, tmp_path):
    cfg = builtin_config("z2z2")
    alg = standard_test_algebra(cfg.chi, cfg.truncation)
    point = random_w0_point(cfg.shape, alg, random.Random("cli-truncation"))
    point_file = tmp_path / "point.txt"
    point_file.write_text(format_point(point))
    phi = build_phi(PictureShape(cfg.shape, (2,)), (2, 1))
    poly_file = tmp_path / "phi.txt"
    poly_file.write_text(format_sym(phi.poly))
    eval_args = ("eval", "--config", "builtin:z2z2", "--poly", str(poly_file),
                 "--point", str(point_file))
    trace_args = ("trace", "--config", "builtin:z2z2", "--sigma", "(1 2)",
                  "--assign", "1,1", "--point", str(point_file))

    rc, full, _ = run(capsys, *eval_args)
    assert rc == 0 and full.strip() != "0"
    flat = standard_test_algebra(cfg.chi, 0)
    expected = format_eps(restitute(
        phi.poly, parse_point(point_file.read_text(), cfg.shape, flat)))
    assert expected == "0"
    for args in (eval_args, trace_args):
        rc, out, err = run(capsys, *args, "--truncation", "0")
        assert rc == 0, err
        assert out.strip() == expected
        rc, out, err = run(capsys, *args, "--truncation", "-1")
        assert rc == 2
        assert out == ""
        assert err.startswith("error:") and "--truncation" in err


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_examples():
    """The README's code blocks, and each `$ colorinv ...` line in them
    as (argv, the lines printed under it)."""
    blocks = re.findall(r"^```\n(.*?)^```", README.read_text(), re.M | re.S)
    examples = []
    for block in blocks:
        for chunk in re.split(r"^(?=\$ )", block, flags=re.M):
            if chunk.startswith("$ colorinv "):
                command, _, printed = chunk.partition("\n")
                examples.append((shlex.split(command)[2:], printed))
    return blocks, examples


def test_readme_examples_print_what_the_readme_shows(capsys, tmp_path, monkeypatch):
    """Every example whose output the README prints in full (not elided
    with ...), run in a directory holding the README's point.txt and the
    picture it prints as phi.txt."""
    blocks, examples = readme_examples()
    point = [b for b in blocks if b.startswith("1: ")]
    assert len(point) == 1
    (tmp_path / "point.txt").write_text(point[0])
    monkeypatch.chdir(tmp_path)
    ran = []
    for argv, printed in examples:
        if "..." in printed:
            continue
        assert run(capsys, *argv) == (0, printed, ""), argv
        if argv[0] == "picture":
            (tmp_path / "phi.txt").write_text(printed)
        ran.append(argv[0])
    assert ran == ["validate", "list", "picture", "eval", "trace"]
