"""Referee suites: classical rank oracle, reports, determinism."""

import itertools

import pytest

from colorinv import oracle, permutations as perms
from colorinv.config import builtin_config, parse_config_text
from colorinv.groups import Bicharacter, FiniteAbelianGroup
from colorinv.oracle import (
    SUITES,
    balanced_multiplicities,
    classical_invariant_dim,
    span_check,
    suite,
)
from colorinv.epsalgebra import hop, words_of_degree
from colorinv.sympoly import MixedShape
from colorinv.tensors import GradedSpace, GradedTensor


def matrix_shape(n, pairs):
    chi0 = Bicharacter(FiniteAbelianGroup([1]), [[0]])
    space = GradedSpace(chi0, [0] * n)
    return MixedShape(space, pairs)


def test_classical_invariant_dimensions_frozen():
    one_matrix_2 = matrix_shape(2, [(1, 1)])
    assert classical_invariant_dim(one_matrix_2, 1) == 1
    assert classical_invariant_dim(one_matrix_2, 2) == 2
    # tr(A)^3, tr(A)tr(A^2), tr(A^3) are dependent for 2 x 2 matrices.
    assert classical_invariant_dim(one_matrix_2, 3) == 2
    one_matrix_1 = matrix_shape(1, [(1, 1)])
    assert classical_invariant_dim(one_matrix_1, 2) == 1
    two_matrix = matrix_shape(2, [(1, 1), (1, 1)])
    assert classical_invariant_dim(two_matrix, 2) == 6
    lopsided = matrix_shape(2, [(2, 1)])
    assert classical_invariant_dim(lopsided, 2) == 0
    mixed = matrix_shape(2, [(2, 1), (1, 2)])
    assert classical_invariant_dim(mixed, 2) == 5


def test_classical_oracle_needs_trivial_group(cfgs):
    with pytest.raises(ValueError):
        classical_invariant_dim(cfgs["super"].shape, 2)


def test_span_check_matches_classical_ranks():
    for n in (1, 2):
        for r in (1, 2, 3):
            rpt = span_check(matrix_shape(n, [(1, 1)]), r)
            assert rpt.ok, (n, r, rpt.render())
    assert span_check(matrix_shape(2, [(1, 1), (1, 1)]), 2).ok
    assert span_check(matrix_shape(2, [(2, 1), (1, 2)]), 2).ok


def test_span_check_computes_the_unbalanced_dimension(cfgs, monkeypatch):
    """With no balanced multidegree the classical dimension is still
    computed block by block, so a nonzero block is reported."""
    shape = MixedShape(cfgs["trivial"].space, [(2, 1)])
    assert span_check(shape, 1).ok
    monkeypatch.setattr(oracle, "_invariant_block_dim", lambda shape, M, r: 1)
    rpt = span_check(shape, 1)
    assert not rpt.ok
    assert [c.detail for c in rpt.cases] == [
        "no balanced multidegree; classical invariant dimension 1"]


def test_span_check_skips_blocks_over_the_monomial_limit(monkeypatch):
    """On a trivially graded space of dim 8 the r = 3 block of one matrix
    has C(66, 3) = 45,760 monomials, and the one block of (2,1) C(514, 3):
    both are skipped before any picture rank or derivation row is worked
    out, in the balanced and in the unbalanced branch.  A block of as many
    monomials as the limit still runs."""
    def refuse(*args):
        raise AssertionError("classical work ran on a block over the limit")
    for name in ("_phi_rank_block", "_invariant_block_dim", "rank_int"):
        monkeypatch.setattr(oracle, name, refuse)
    limit = oracle.MAX_SPAN_MONOMIALS
    assert [c.line() for c in span_check(matrix_shape(8, [(1, 1)]), 3).cases] == [
        "PASS multidegree 3: skipped: 45760 monomials in one block exceed the "
        "limit of %d" % limit]
    assert [c.line() for c in span_check(matrix_shape(8, [(2, 1)]), 3).cases] == [
        "PASS degree 3: skipped: 22500864 monomials in one block exceed the "
        "limit of %d" % limit]
    monkeypatch.undo()
    # one 2 x 2 matrix at r = 2: C(5, 2) = 10 monomials
    monkeypatch.setattr(oracle, "MAX_SPAN_MONOMIALS", 10)
    assert [c.detail for c in span_check(matrix_shape(2, [(1, 1)]), 2).cases] == [
        "picture span rank 2, classical invariant dimension 2"]
    monkeypatch.setattr(oracle, "MAX_SPAN_MONOMIALS", 9)
    assert [c.detail for c in span_check(matrix_shape(2, [(1, 1)]), 2).cases] == [
        "skipped: 10 monomials in one block exceed the limit of 9"]


def test_span_suite_skips_graded_blocks_over_max_n(monkeypatch):
    """On super with one (4,4) pair every block has N = 4r; with
    bounds.max_n = 3 the restricted mode skips each one before building
    any phi or drawing any point.  A block at N = max_n still runs."""
    cfg = parse_config_text("group.factors = [2]\nbicharacter.expmat = [[1]]\n"
                            "space.degrees = [(0,), (1,)]\nshape.pairs = [(4, 4)]\n"
                            "bounds.max_n = 3\n")

    def refuse(*args):
        raise AssertionError("a block over bounds.max_n was worked on")
    monkeypatch.setattr(oracle, "build_phi", refuse)
    monkeypatch.setattr(oracle, "_transformed_pair", refuse)
    rpt = suite("span", cfg)
    assert [c.line() for c in rpt.cases if "invariance" in c.name] == [
        "PASS r=%d invariance multidegree %d: skipped: N=%d exceeds bounds.max_n=3"
        % (r, r, 4 * r) for r in (1, 2, 3)]
    monkeypatch.undo()
    one_matrix = MixedShape(cfg.space, [(1, 1)])
    assert [c.detail for c in span_check(one_matrix, 2, max_n=2).cases][1:] == [
        "6 transformed-point comparisons, 0 failed"]


def test_span_suite_skips_trivial_blocks_over_max_n(monkeypatch):
    """On a one-dimensional trivial space with one (4,4) pair each block
    has one monomial, so the monomial limit never fires; with
    bounds.max_n = 3 every block of N = 4r is skipped before any phi, rank
    or derivation row.  A block at N = max_n still runs."""
    cfg = parse_config_text("group.factors = [1]\nbicharacter.expmat = [[0]]\n"
                            "space.degrees = [(0,)]\nshape.pairs = [(4, 4)]\n"
                            "bounds.max_n = 3\n")

    def refuse(*args):
        raise AssertionError("a block over bounds.max_n was worked on")
    for name in ("build_phi", "_phi_rank_block", "_invariant_block_dim", "rank_int"):
        monkeypatch.setattr(oracle, name, refuse)
    assert [c.line() for c in suite("span", cfg).cases] == [
        "PASS r=%d multidegree %d: skipped: N=%d exceeds bounds.max_n=3"
        % (r, r, 4 * r) for r in (1, 2, 3)]
    monkeypatch.undo()
    one_matrix = MixedShape(cfg.space, [(1, 1)])
    assert [c.line() for c in span_check(one_matrix, 2, max_n=2).cases] == [
        "PASS multidegree 2: picture span rank 1, classical invariant dimension 1"]


def test_wide_verify_skips_checks_over_the_work_limits(monkeypatch):
    """On a trivially graded space of dim 8, centralizer-commute at k = 3
    would make 8^5 * 3! = 196,608 psi checks, and symalgebra would list
    C(66, 3) = 45,760 monomials of degree 3: both pass as skipped before
    the work starts, while the cases under the limits still run."""
    cfg = parse_config_text("group.factors = [1]\nbicharacter.expmat = [[0]]\n"
                            "space.degrees = %r\nshape.pairs = [(1, 1)]\n"
                            % ([(0,)] * 8))
    psi = oracle.psi_derivation

    def psi_below_width_3(x, t):
        assert len(t.variance) < 3, "psi ran at a width over the limit"
        return psi(x, t)

    def refuse(*args):
        raise AssertionError("symalgebra listed monomials over the limit")
    monkeypatch.setattr(oracle, "psi_derivation", psi_below_width_3)
    monkeypatch.setattr(oracle, "enumerate_sym_basis", refuse)
    limit = oracle.MAX_CHECKS
    assert [c.line() for c in suite("centralizer-commute", cfg).cases] == [
        "PASS psi-commutes k=1: 512 (sigma, unit, basis tensor) checks",
        "PASS eta-commutes k=1: 8 (sigma, group element, basis tensor) checks",
        "PASS psi-commutes k=2: 8192 (sigma, unit, basis tensor) checks",
        "PASS eta-commutes k=2: 128 (sigma, group element, basis tensor) checks",
        "PASS psi-commutes k=3: skipped: 196608 checks exceed the limit of %d" % limit,
        "PASS eta-commutes k=3: 3072 (sigma, group element, basis tensor) checks"]
    assert [c.line() for c in suite("symalgebra", cfg).cases][0] == (
        "PASS dimension-series: skipped: 45760 monomials of degree 3 exceed the "
        "limit of %d" % oracle.MAX_SYM_LISTING)
    monkeypatch.undo()
    # super at k = 3: 2^5 * 3! = 192 psi checks; 4 variables: C(6, 3) = 20
    sup = builtin_config("super")
    for limit, skipped in ((192, False), (191, True)):
        monkeypatch.setattr(oracle, "MAX_CHECKS", limit)
        detail = {c.name: c.detail for c in suite("centralizer-commute", sup).cases}
        assert detail["psi-commutes k=3"].startswith("skipped") == skipped
    for limit, skipped in ((20, False), (19, True)):
        monkeypatch.setattr(oracle, "MAX_SYM_LISTING", limit)
        detail = {c.name: c.detail for c in suite("symalgebra", sup).cases}
        assert detail["dimension-series"].startswith("skipped") == skipped


def test_bicharacter_and_cocycle_skip_checks_over_the_work_limit(monkeypatch):
    """On Z_64 with seven space degrees the bicharacter suite would check
    64^3 = 262,144 biadditive triples, and the cocycle table at k = 4
    would hold 7^4 * 4! = 57,624 gamma values: both pass as skipped before
    the work starts, while the cases under the limit still run.  On z3z3
    (|G| = 9, three degrees) each case runs at its own count and is
    skipped one below it."""
    cfg = parse_config_text("group.factors = [64]\nbicharacter.expmat = [[32]]\n"
                            "space.degrees = [(0,), (2,), (4,), (6,), (1,), (3,), (5,)]\n"
                            "shape.pairs = [(1, 1)]\n")
    gamma = oracle.gamma_exponent

    def gamma_below_width_4(chi, degs, sigma):
        assert len(degs) < 4, "a cocycle table over the limit was built"
        return gamma(chi, degs, sigma)
    monkeypatch.setattr(oracle, "gamma_exponent", gamma_below_width_4)
    limit = oracle.MAX_CHECKS
    lines = [c.line() for c in suite("bicharacter", cfg).cases]
    assert lines[1:3] == [
        "PASS biadditive: skipped: 262144 triples exceed the limit of %d" % limit,
        "PASS skew-inverse: eps(g,h)eps(h,g)=1 on all 4096 pairs"]
    assert [c.line() for c in suite("cocycle", cfg).cases][:3] == [
        "PASS cocycle-identity k=2: 196 (degrees, sigma, tau) checks",
        "PASS cocycle-identity k=3: 12348 (degrees, sigma, tau) checks",
        "PASS cocycle-identity k=4: skipped: 57624 gamma values exceed the "
        "limit of %d" % limit]
    monkeypatch.undo()
    z3z3 = builtin_config("z3z3")
    for case, count, what, run in (
            ("biadditive", 729, "triples", "729 triples checked"),
            ("skew-inverse", 81, "pairs", "eps(g,h)eps(h,g)=1 on all 81 pairs")):
        monkeypatch.setattr(oracle, "MAX_CHECKS", count)
        assert {c.name: c.detail for c in suite("bicharacter", z3z3).cases}[case] == run
        monkeypatch.setattr(oracle, "MAX_CHECKS", count - 1)
        assert {c.name: c.detail for c in suite("bicharacter", z3z3).cases}[case] == (
            "skipped: %d %s exceed the limit of %d" % (count, what, count - 1))
    # 3^4 * 4! = 1,944 gamma values at k = 4
    monkeypatch.setattr(oracle, "MAX_CHECKS", 1944)
    detail = {c.name: c.detail for c in suite("cocycle", z3z3).cases}
    assert detail["cocycle-identity k=4"] == "46656 (degrees, sigma, tau) checks"
    monkeypatch.setattr(oracle, "MAX_CHECKS", 1943)
    detail = {c.name: c.detail for c in suite("cocycle", z3z3).cases}
    assert detail["cocycle-identity k=4"] == (
        "skipped: 1944 gamma values exceed the limit of 1943")
    assert detail["cocycle-identity k=3"] == "972 (degrees, sigma, tau) checks"


def test_sampling_suites_skip_over_the_test_algebra_word_limit(cfgs, monkeypatch):
    """On Z_256 the test algebra has 512 generators and 1 + 512 + C(512, 2)
    + 256 = 131,585 normal words of length <= 2: each sampling suite passes
    as one skipped case before any algebra is built.  The count is the
    listing's on every builtin, and z3z3 (190 words) runs at its own count
    and is skipped one below it."""
    cfg = parse_config_text("group.factors = [256]\nbicharacter.expmat = [[128]]\n"
                            "space.degrees = [(0,), (1,)]\nshape.pairs = [(1, 1)]\n")

    def refused(*args, **kwargs):
        raise AssertionError("a test algebra over the word limit was built")
    monkeypatch.setattr(oracle, "standard_test_algebra", refused)
    skip = ("PASS test-algebra: skipped: 131585 normal words of length <= 2 "
            "exceed the limit of %d")
    limit = oracle.MAX_CHECKS
    assert oracle.SAMPLING == ("path-equality", "invariance", "trace-match",
                               "restitution", "span")
    for name in oracle.SAMPLING:
        assert [c.line() for c in suite(name, cfg).cases] == [skip % limit], name
    monkeypatch.undo()
    for name, c in cfgs.items():
        alg = oracle.standard_test_algebra(c.chi, truncation=3)
        words = sum(len(words_of_degree(alg, d, 2)) for d in range(c.chi.group.order))
        monkeypatch.setattr(oracle, "MAX_CHECKS", words - 1)
        lines = [x.line() for x in suite("restitution", c).cases]
        assert lines == [
            "PASS test-algebra: skipped: %d normal words of length <= 2 exceed "
            "the limit of %d" % (words, words - 1)], name
    monkeypatch.setattr(oracle, "MAX_CHECKS", 190)
    for name in oracle.SAMPLING:
        rpt = suite(name, cfgs["z3z3"], max_n=2)
        assert rpt.ok and all("test-algebra" not in c.name for c in rpt.cases), name


def test_jacobi_brackets_three_basis_vectors_of_a_wider_space():
    """On a space of dim 4 the jacobi suite brackets the matrix units of
    the first three basis vectors: 9 units, 81 pairs, 729 triples."""
    dim4 = parse_config_text("group.factors = [2]\nbicharacter.expmat = [[1]]\n"
                             "space.degrees = [0, 0, 1, 1]\nshape.pairs = [(1, 1)]\n",
                             name="dim4")
    detail = {c.name: c.detail for c in suite("jacobi", dim4).cases}
    assert detail["bracket-antisymmetry"] == "all 81 matrix unit pairs"
    assert detail["color-jacobi"] == "all 729 matrix unit triples"


def test_span_check_restricted_mode_on_graded_groups(cfgs):
    rpt = span_check(cfgs["super"].shape, 2)
    assert rpt.ok
    assert any(case.name == "restricted-mode" for case in rpt.cases)


def test_suite_names_frozen():
    assert SUITES == ("bicharacter", "cocycle", "jacobi", "centralizer-commute",
                      "symalgebra", "path-equality", "invariance", "trace-match",
                      "restitution", "span")


def test_unknown_suite_rejected(cfgs):
    with pytest.raises(ValueError):
        suite("nonsense", cfgs["trivial"])


def test_reports_are_deterministic(cfgs):
    cfg = cfgs["super"]
    first = suite("bicharacter", cfg, seed=5).render()
    second = suite("bicharacter", cfg, seed=5).render()
    assert first == second
    third = suite("cocycle", cfg, seed=5).render()
    fourth = suite("cocycle", cfg, seed=5).render()
    assert third == fourth


def test_report_rendering_format(cfgs):
    rpt = suite("bicharacter", cfgs["trivial"], seed=0)
    text = rpt.render()
    assert text.startswith("suite: bicharacter")
    assert "config: " in text
    assert "seed: 0" in text
    assert text.rstrip().endswith("failed)")
    lines = [ln for ln in text.splitlines() if ln.startswith(("PASS", "FAIL"))]
    names = [ln.split(":", 1)[0] for ln in lines]
    assert names == sorted(names)
    assert rpt.ok
    assert "result: PASS (%d cases, 0 failed)" % len(rpt.cases) in text


def test_tally_fails_only_the_case_whose_stream_raises():
    """A raising stream or check fails its own case alone; check decides
    each item, and the first refused one fills %(first)r."""
    rpt = oracle.Report("demo", "none", 0)

    def raising():
        yield True
        raise KeyError("boom")
    rpt.tally("a", raising(), "%(total)d checks", "%(bad)d failed")
    rpt.tally("b", iter([True, True]), "%(total)d checks", "%(bad)d failed")
    rpt.tally("c", [1, 0], "%(total)d checks", "%(bad)d failed", lambda x: 1 // x)
    rpt.tally("d", [(1, 2), (3, 3), (4, 4)], "%(total)d checks",
              "%(bad)d of %(total)d, first %(first)r", lambda p: p[0] < p[1])
    assert [c.line() for c in rpt.cases] == [
        "FAIL a: exception: KeyError: 'boom'", "PASS b: 2 checks",
        "FAIL c: exception: ZeroDivisionError: integer division or modulo by zero",
        "FAIL d: 2 of 3, first (3, 3)"]


def test_biadditive_names_the_first_failing_triple(cfgs, monkeypatch):
    """A non-biadditive eps_exponent (one exponent raised at (2, 2) on z4)
    fails the case at its first triple in product order."""
    orig = Bicharacter.eps_exponent
    monkeypatch.setattr(Bicharacter, "eps_exponent", lambda self, g, h:
                        (orig(self, g, h) + (g == h == (2,))) % self.m)
    lines = [c.line() for c in suite("bicharacter", cfgs["z4"]).cases]
    assert "FAIL biadditive: failed at ((1,), (1,), (2,))" in lines


def test_balanced_multiplicities(cfgs):
    sup = cfgs["super"]
    assert balanced_multiplicities(sup.shape, 3) == [(1,), (2,), (3,)]
    mixed = MixedShape(sup.space, [(2, 1), (1, 2)])
    assert balanced_multiplicities(mixed, 3) == [(1, 1)]
    lopsided = MixedShape(sup.space, [(2, 1)])
    assert balanced_multiplicities(lopsided, 3) == []


def test_bicharacter_suite_catches_broken_additivity(monkeypatch):
    """The config checks only the exponent matrix; the suite still checks
    the axioms pointwise, so an eps_exponent that breaks additivity at one
    pair fails it."""
    cfg = builtin_config("z4")
    assert suite("bicharacter", cfg).ok
    real = Bicharacter.eps_exponent

    def broken(chi, g, h):
        e = real(chi, g, h)
        return (e + 1) % chi.m if (g, h) == ((1,), (2,)) else e

    monkeypatch.setattr(Bicharacter, "eps_exponent", broken)
    cases = {c.name: c.ok for c in suite("bicharacter", cfg).cases}
    assert not cases["biadditive"]
    assert cases["exponent-matrix-axioms"]


def test_centralizer_suite_catches_a_wrong_sum_table_entry(monkeypatch):
    """One wrong entry in the bicharacter's sum table, (0,1) + (1,0) read
    as (0,1) on z2z2, fails the psi checks of the centralizer suite at
    max_n=2, and leaves the eta checks, which add no degrees, passing."""
    def outcomes(broken):
        cfg = builtin_config("z2z2")
        chi = cfg.chi
        a, b = chi.position((0, 1)), chi.position((1, 0))
        assert chi.sum_table[a][b] == chi.position((1, 1))
        if broken:
            row = list(chi.sum_table[a])
            row[b] = a
            monkeypatch.setitem(chi.sum_table, a, row)
        return {c.name: c.ok for c in suite("centralizer-commute", cfg, max_n=2).cases}

    assert all(outcomes(broken=False).values())
    cases = outcomes(broken=True)
    assert not cases["psi-commutes k=2"] and not cases["psi-commutes k=3"]
    assert all(cases["eta-commutes k=%d" % k] for k in (1, 2, 3))


def test_tabulated_cocycle_check_catches_broken_gamma(cfgs, monkeypatch):
    cfg = cfgs["z3z3"]
    chi = cfg.chi
    clean = {c.name: c for c in suite("cocycle", cfg).cases}
    assert all(c.ok for c in clean.values())
    assert clean["cocycle-identity k=2"].detail == "36 (degrees, sigma, tau) checks"
    assert clean["cocycle-identity k=3"].detail == "972 (degrees, sigma, tau) checks"
    assert clean["cocycle-identity k=4"].detail == "46656 (degrees, sigma, tau) checks"
    assert clean["action-functoriality"].detail == "30 sampled (p, q, tensor) triples"

    # gamma off by one at a single (degree tuple, sigma)
    order = chi.element_order()
    wrong_v = tuple(chi.position(g) for g in ((0, 1), (1, 0), (0, 0)))
    wrong_sigma = (2, 3, 1)
    real = oracle.gamma_exponent

    def broken(chi, v, sigma):
        e = real(chi, v, sigma)
        if tuple(v) == wrong_v and tuple(sigma) == wrong_sigma:
            e = (e + 1) % chi.m
        return e

    monkeypatch.setattr(oracle, "gamma_exponent", broken)
    cases = {c.name: c for c in suite("cocycle", cfg).cases}

    # the first failing triple of a direct loop over (v, sigma, tau), the
    # degrees in the lexicographic order of their int tuples
    degs = sorted(set(cfg.space.degrees), key=order.__getitem__)
    s3 = perms.all_perms(3)
    first = next((v, sg, tu)
                 for v in itertools.product(degs, repeat=3)
                 for sg in s3
                 for tu in s3
                 if broken(chi, v, perms.compose(tu, sg))
                 != (broken(chi, perms.act_tuple(sg, v), tu) + broken(chi, v, sg)) % chi.m)
    assert not cases["cocycle-identity k=3"].ok
    v, sg, tu = first
    assert cases["cocycle-identity k=3"].detail == \
        "failed at %r" % ((tuple(order[d] for d in v), sg, tu),)
    for name in ("cocycle-identity k=2", "cocycle-identity k=4", "action-functoriality"):
        assert cases[name].ok and cases[name].detail == clean[name].detail


def psi_on_basis_term(x, t, drop=False):
    """psi_x on a one-term primal tensor, written out slot by slot: slot i
    takes entry T_ab when its index is b, the entry hops past the later
    slots and picks up eps(|x|, |v_j|) for each earlier slot j.  With drop,
    slot 3 leaves the factor of slot 2 out of that prefix sign."""
    space, chi = t.space, t.space.chi
    alpha = x.g_degree()
    ((idx, lam),) = t.terms.items()
    degs = [space.degree(i) for i in idx]
    out = GradedTensor.zero(space, t.alg, t.variance)
    for i, b in enumerate(idx):
        prefix = sum(chi.eps_table[alpha][degs[j]] for j in range(i)
                     if not (drop and (i, j) == (2, 1)))
        tail = chi.degree_sum(degs[i + 1:])
        for (a, c), entry in x.terms.items():
            if c == b:
                nidx = idx[:i] + (a,) + idx[i + 1:]
                coeff = hop(entry, tail).times_root(prefix) * lam
                out = out + GradedTensor(space, t.alg, t.variance, {nidx: coeff})
    return out


def eta_skipping_last_slot(g, t):
    """eta_g with the sign of the last slot left out."""
    chi = t.space.chi
    return GradedTensor(t.space, t.alg, t.variance, {
        idx: lam.times_root(sum(chi.eps_table[g][t.space.degree(i)]
                                for i in idx[:-1]))
        for idx, lam in t.terms.items()})


def test_centralizer_suite_catches_broken_actions(cfgs, monkeypatch):
    cfg = cfgs["z3z3"]

    def outcomes():
        return {c.name: (c.ok, c.detail)
                for c in suite("centralizer-commute", cfg).cases}

    clean = outcomes()
    for k, n in ((1, 27), (2, 162), (3, 1458)):
        assert clean["psi-commutes k=%d" % k] == \
            (True, "%d (sigma, unit, basis tensor) checks" % n)
        assert clean["eta-commutes k=%d" % k] == \
            (True, "%d (sigma, group element, basis tensor) checks" % n)

    # the slot-by-slot psi passes as written ...
    monkeypatch.setattr(oracle, "psi_derivation", psi_on_basis_term)
    assert outcomes() == clean

    # ... and fails at width 3 once one eps factor drops from a prefix sign
    monkeypatch.setattr(oracle, "psi_derivation",
                        lambda x, t: psi_on_basis_term(x, t, drop=True))
    broken = outcomes()
    ok, detail = broken.pop("psi-commutes k=3")
    assert not ok and detail.endswith(" checks failed")
    assert all(broken[name] == clean[name] for name in broken)

    monkeypatch.undo()
    monkeypatch.setattr(oracle, "eta_action", eta_skipping_last_slot)
    broken = outcomes()
    assert broken["eta-commutes k=1"] == clean["eta-commutes k=1"]
    for k in (2, 3):
        ok, detail = broken["eta-commutes k=%d" % k]
        assert not ok and detail.endswith(" checks failed")
        assert broken["psi-commutes k=%d" % k] == clean["psi-commutes k=%d" % k]
