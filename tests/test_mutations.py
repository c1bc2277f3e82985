"""Mutation catalog: faults planted in the library, and the suites that
catch them.

Each entry plants one fault, runs every verification suite on one builtin,
or on one configuration given as text, at seed 0 with max_n=2, and checks
that exactly the named suites FAIL, with the FAIL lines they print.  A
suite that stops catching its fault, or a suite that starts failing on a
fault it never saw, shows up here.
"""

import pytest

from colorinv import (cli, epsalgebra, oracle, permutations as perms, pictures, sympoly,
                      tensors, traces)
from colorinv.config import builtin_config, parse_config_text
from colorinv.cyclo import CycloRational
from colorinv.tensors import GradedOperator


def exponent_plus_one(monkeypatch, cfg):
    """The coefficient exponent of phi_sigma off by one wherever I_1 = 2."""
    exponent = pictures.coefficient_exponent
    monkeypatch.setattr(pictures, "coefficient_exponent",
                        lambda plan, I: (exponent(plan, I) + (I[0] == 2)) % plan.m)


def t_sigma_negated(monkeypatch, cfg):
    """The contraction path T_sigma negated for every sigma but the identity."""
    t_sigma = oracle.t_sigma_on_parts

    def negated(pshape, sigma, parts):
        out = t_sigma(pshape, sigma, parts)
        return out if sigma == perms.identity(len(sigma)) else -out
    monkeypatch.setattr(oracle, "t_sigma_on_parts", negated)


def trace_unsigned(monkeypatch, cfg):
    """The supertrace without its eps(g_a, g_a) sign: a plain trace."""
    def end_trace(x):
        total = x.alg.zero()
        for (a, c), lam in x.terms.items():
            if a == c:
                total = total + lam
        return total
    monkeypatch.setattr(traces, "end_trace", end_trace)


def transform_by_t(monkeypatch, cfg):
    """The point transform given T where T^-1 belongs."""
    apply_operator = oracle.apply_operator
    monkeypatch.setattr(oracle, "apply_operator",
                        lambda part, T, Tinv: apply_operator(part, T, T))


def compose_drops_row_1(monkeypatch, cfg):
    """Operator products that lose their first row."""
    compose = GradedOperator.compose

    def dropped(S, T):
        out = compose(S, T)
        return GradedOperator(out.space, out.alg,
                              {ab: x for ab, x in out.terms.items() if ab[0] != 1})
    monkeypatch.setattr(GradedOperator, "compose", dropped)


def sum_drops_last_pair(monkeypatch, cfg):
    """A sum of eps products (eps_sums: operator products, color brackets,
    psi_x, T.u, end_compose, restitution) that loses its last pair whenever
    it has more than one; a single product is left alone."""
    eps_product = epsalgebra.eps_product
    monkeypatch.setattr(epsalgebra, "eps_product", lambda pairs, *args: eps_product(
        pairs[:-1] if len(pairs) > 1 else pairs, *args))


def wrong_sum(monkeypatch, cfg):
    """identity + (1,0) read as the identity in the degree sum table."""
    cfg.chi.sum_table[0][3] = 0


def odd_pair_eps(monkeypatch, cfg):
    """eps of z4's two odd degrees, (1) and (3), negated both ways: m/2
    added to their two entries of the eps table."""
    table, half = cfg.chi.eps_table, cfg.chi.m // 2
    table[2][3] += half
    table[3][2] += half


def dual_word_pairs_dropped(monkeypatch, cfg):
    """Each SigmaPlan without the pairs of the dual-word normalization:
    their counts are taken back out of the plan's terms (a plan of several
    components has none)."""
    init = pictures.SigmaPlan.__init__

    def dropped(plan, pshape, sigma):
        init(plan, pshape, sigma)
        if len(plan.components) > 1:
            return
        counts = {(a, b): c for a, b, c in plan.terms}
        signed = [[(p, 1) for p in lo] + [(p, -1) for p in up] for _, lo, up in plan.copies]
        for c in range(len(signed)):
            for cp in range(c + 1, len(signed)):
                for a, sa in signed[cp]:
                    for b, sb in signed[c]:
                        counts[a, b] = counts.get((a, b), 0) - sa * sb
        plan.terms = tuple((a, b, c % plan.m) for (a, b), c in counts.items() if c % plan.m)
    monkeypatch.setattr(pictures.SigmaPlan, "__init__", dropped)


def wrong_root(monkeypatch, cfg):
    """The bicharacter's root table holding zeta^2 where zeta^1 belongs."""
    cfg.chi._roots[1] = CycloRational.root(cfg.chi.m, 2)


def eps_shifted_from_5(monkeypatch, cfg):
    """Every eps table entry >= 5 shifted by 3 (mod m); it plants nothing
    where m <= 5, so it runs on Z6Z6."""
    table, m = cfg.chi.eps_table, cfg.chi.m
    for a in range(cfg.chi.group.order):
        row = table[a]
        row[:] = [(x + 3) % m if x >= 5 else x for x in row]


def gamma_off_by_one(monkeypatch, cfg):
    """gamma off by one at a single (degree tuple, sigma), wherever the
    library reads it."""
    wrong_v = tuple(cfg.chi.position(g) for g in ((0, 1), (1, 0), (0, 0)))
    real = tensors.gamma_exponent

    def broken(chi, v, sigma):
        e = real(chi, v, sigma)
        if tuple(v) == wrong_v and tuple(sigma) == (2, 3, 1):
            e = (e + 1) % chi.m
        return e
    for module in (tensors, sympoly, oracle):
        monkeypatch.setattr(module, "gamma_exponent", broken)


# Z6 x Z6 with eps((1,0),(0,1)) = zeta_6: eps table entries reach 5, which
# no builtin's do.
Z6Z6 = """group.factors = [6, 6]
bicharacter.expmat = [[0, 1], [5, 0]]
space.degrees = [(0, 0), (0, 1), (1, 0)]
shape.pairs = [(1, 1)]
"""

NOT_DEGREE_0 = ("ValueError: summand 1 term %s has coefficient of "
                "degree != (0, 1); point is not degree 0")
# the invariance suite's lines: drawing each M's points raises
POINT_NOT_DEGREE_0 = ["FAIL M=%d: exception: %s" % (M, NOT_DEGREE_0 % term)
                      for M, term in ((1, "(1, 2)"), (2, "(2, 1)"))]

# fault: (builtin name or configuration text, plant, {suite: its FAIL
# lines}); every other suite passes
CATALOG = {
    "exponent-plus-one": ("z2z2", exponent_plus_one, {
        "path-equality": [
            "FAIL M=1 sigma=1: 2 of 3 points differ",
            "FAIL M=2 sigma=1,2: 2 of 3 points differ",
            "FAIL M=2 sigma=2,1: 1 of 3 points differ"],
        "invariance": [
            "FAIL M=1 sigma=1: 1 of 3 points differ"],
        "trace-match": [
            "FAIL M=1 sigma=1: 3 of 3 points differ",
            "FAIL M=2 sigma=1,2: 3 of 3 points differ",
            "FAIL M=2 sigma=2,1: 2 of 3 points differ"],
        "span": [
            "FAIL r=1 invariance multidegree 1: 3 transformed-point comparisons, 1 failed",
            "FAIL r=2 invariance multidegree 2: 6 transformed-point comparisons, 1 failed",
            "FAIL r=3 invariance multidegree 3: 18 transformed-point comparisons, 3 failed"],
    }),
    "t-sigma-negated": ("z2z2", t_sigma_negated, {
        "path-equality": [
            "FAIL M=2 sigma=2,1: 3 of 3 points differ"],
    }),
    "trace-unsigned": ("super", trace_unsigned, {
        "trace-match": [
            "FAIL M=1 sigma=1: 2 of 3 points differ",
            "FAIL M=2 sigma=1,2: 1 of 3 points differ",
            "FAIL M=2 sigma=2,1: 1 of 3 points differ"],
    }),
    "transform-by-t": ("trivial", transform_by_t, {
        "invariance": [
            "FAIL M=1 sigma=1: 3 of 3 points differ",
            "FAIL M=2 sigma=1,2: 2 of 3 points differ",
            "FAIL M=2 sigma=2,1: 2 of 3 points differ"],
    }),
    "compose-drops-row-1": ("z2z2", compose_drops_row_1, {
        "invariance": [
            "FAIL M=1 sigma=1: 2 of 3 points differ",
            "FAIL M=2 sigma=2,1: 1 of 3 points differ"],
        "span": [
            "FAIL r=1 invariance multidegree 1: 3 transformed-point comparisons, 2 failed",
            "FAIL r=2 invariance multidegree 2: 6 transformed-point comparisons, 5 failed",
            "FAIL r=3 invariance multidegree 3: 18 transformed-point comparisons, 10 failed"],
    }),
    "odd-pair-eps": ("z4", odd_pair_eps, {
        "jacobi": [
            "FAIL color-jacobi: failed at units ((1, 2), (2, 3), (3, 1))",
            "FAIL jacobi-homogeneous-sampled: 3 triples failed"],
        "centralizer-commute": [
            "FAIL psi-commutes k=2: 3 checks failed",
            "FAIL psi-commutes k=3: 85 checks failed"],
        "symalgebra": [
            "FAIL normalize-swap-relation: 2 swaps failed"],
        "path-equality": [
            "FAIL M=1 sigma=1: 2 of 3 points differ",
            "FAIL M=2 sigma=1,2: 1 of 3 points differ",
            "FAIL M=2 sigma=2,1: 1 of 3 points differ"],
        "trace-match": [
            "FAIL trace-cyclicity: 6 pairs failed"],
        "restitution": [
            "FAIL transposition-relations: 4 of 50 triples failed"],
        "span": [
            "FAIL r=1 invariance multidegree 1: 3 transformed-point comparisons, 2 failed",
            "FAIL r=3 invariance multidegree 3: 18 transformed-point comparisons, 1 failed"],
    }),
    "sum-drops-last-pair": ("trivial", sum_drops_last_pair, {
        "jacobi": [
            "FAIL bracket-antisymmetry: 2 pairs failed",
            "FAIL color-jacobi: failed at units ((1, 1), (1, 1), (1, 1))",
            "FAIL jacobi-homogeneous-sampled: 6 triples failed"],
        "path-equality": [
            "FAIL M=1 sigma=1: 2 of 3 points differ",
            "FAIL M=2 sigma=1,2: 2 of 3 points differ",
            "FAIL M=2 sigma=2,1: 3 of 3 points differ"],
        "invariance": [
            "FAIL M=1 sigma=1: 2 of 3 points differ",
            "FAIL M=2 sigma=1,2: 2 of 3 points differ",
            "FAIL M=2 sigma=2,1: 2 of 3 points differ"],
        "trace-match": [
            "FAIL M=1 sigma=1: 1 of 3 points differ",
            "FAIL M=2 sigma=1,2: 1 of 3 points differ",
            "FAIL M=2 sigma=2,1: 2 of 3 points differ",
            "FAIL trace-cyclicity: 3 pairs failed"],
    }),
    "wrong-sum": ("z2z2", wrong_sum, {
        "jacobi": [
            "FAIL color-jacobi: failed at units ((1, 2), (2, 3), (3, 1))",
            "FAIL jacobi-homogeneous-sampled: exception: "
            "ValueError: color bracket needs homogeneous operators"],
        "centralizer-commute": [
            "FAIL psi-commutes k=2: 12 checks failed",
            "FAIL psi-commutes k=3: 205 checks failed"],
        "path-equality": [
            "FAIL M=2 sigma=1,2: 1 of 3 points differ"],
        "invariance": POINT_NOT_DEGREE_0,
        "trace-match": [
            "FAIL M=2 sigma=2,1: 1 of 3 points differ",
            "FAIL trace-cyclicity: 6 pairs failed"],
        "span": ["FAIL r=%d invariance multidegree %d: exception: %s"
                 % (r, r, NOT_DEGREE_0 % "(1, 2)") for r in (1, 2, 3)],
    }),
    "dual-word-pairs-dropped": ("z4", dual_word_pairs_dropped, {
        "path-equality": [
            "FAIL M=2 sigma=2,1: 1 of 3 points differ"],
        "invariance": [
            "FAIL M=2 sigma=2,1: 1 of 3 points differ"],
        "span": [
            "FAIL r=3 invariance multidegree 3: 18 transformed-point comparisons, 2 failed"],
    }),
    "wrong-root": ("z3z3", wrong_root, {
        "jacobi": [
            "FAIL bracket-antisymmetry: 6 pairs failed",
            "FAIL color-jacobi: failed at units ((1, 1), (1, 2), (3, 1))"],
        "symalgebra": [
            "FAIL symmetrize-projector: 1 words failed"],
    }),
    "eps-shifted-from-5": (Z6Z6, eps_shifted_from_5, {
        "cocycle": [
            "FAIL action-functoriality: 5 triples failed",
            "FAIL cocycle-identity k=2: failed at (((0, 1), (1, 0)), (2, 1), (2, 1))",
            "FAIL cocycle-identity k=3: failed at "
            "(((0, 0), (0, 1), (1, 0)), (1, 3, 2), (1, 3, 2))",
            "FAIL cocycle-identity k=4: failed at "
            "(((0, 0), (0, 0), (0, 1), (1, 0)), (1, 2, 4, 3), (1, 2, 4, 3))"],
        "jacobi": [
            "FAIL bracket-antisymmetry: 6 pairs failed",
            "FAIL color-jacobi: failed at units ((1, 1), (1, 2), (2, 3))",
            "FAIL jacobi-homogeneous-sampled: 1 triples failed"],
        "centralizer-commute": [
            "FAIL psi-commutes k=2: 8 checks failed",
            "FAIL psi-commutes k=3: 162 checks failed"],
        "symalgebra": [
            "FAIL normalize-swap-relation: 6 swaps failed"],
        "path-equality": [
            "FAIL M=2 sigma=2,1: 1 of 3 points differ"],
    }),
    "gamma-off-by-one": ("z3z3", gamma_off_by_one, {
        "cocycle": [
            "FAIL cocycle-identity k=3: failed at "
            "(((0, 0), (0, 1), (1, 0)), (3, 1, 2), (2, 3, 1))"],
        "centralizer-commute": [
            "FAIL psi-commutes k=3: 12 checks failed"],
    }),
}


def fail_lines(rpt):
    return [line for line in rpt.render().splitlines() if line.startswith("FAIL ")]


@pytest.mark.parametrize("fault", sorted(CATALOG))
def test_fault_fails_exactly_its_suites(fault, monkeypatch):
    where, plant, expected = CATALOG[fault]
    cfg = parse_config_text(where, name=fault) if "\n" in where else builtin_config(where)
    plant(monkeypatch, cfg)
    got = {}
    for name in oracle.SUITES:
        lines = fail_lines(oracle.suite(name, cfg, seed=0, max_n=2))
        if lines:
            got[name] = lines
    assert got == expected


def test_library_exception_in_verify_is_a_fail_report(monkeypatch, capsys):
    cfg = builtin_config("z2z2")
    wrong_sum(monkeypatch, cfg)
    monkeypatch.setattr(cli, "resolve_config", lambda spec: cfg)
    code = cli.main(["verify", "--config", "builtin:z2z2", "--suite", "invariance"])
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith("suite: invariance\nconfig: builtin:z2z2\n")
    # verify runs to N = 3, so M=3 adds a third line
    assert [line for line in out.splitlines() if line.startswith("FAIL ")] \
        == POINT_NOT_DEGREE_0 + ["FAIL M=3: exception: " + NOT_DEGREE_0 % "(1, 2)"]
    assert out.endswith("\nverify: FAIL\n")


def test_unknown_suite_is_refused_before_any_work(capsys):
    assert cli.main(["verify", "--config", "builtin:z2z2", "--suite", "nope"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown suite 'nope'" in captured.err
