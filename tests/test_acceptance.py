"""Acceptance battery: ten exact checks, one printed verdict line each.

Every check is all-or-nothing: a single violated identity anywhere fails
the criterion.  All arithmetic is exact, so there are no tolerances."""

import random
from fractions import Fraction

from colorinv.config import builtin_config, list_builtin_configs
from colorinv.cyclo import CycloRational
from colorinv.groups import Bicharacter, FiniteAbelianGroup
from colorinv.oracle import span_check, suite
from colorinv.permutations import all_perms
from colorinv.pictures import PictureShape, build_phi, t_sigma_on_parts
from colorinv.sampling import (
    random_sym_polynomial,
    random_w0_point,
    standard_test_algebra,
)
from colorinv.sympoly import MixedShape
from colorinv.tensors import GradedSpace, apply_operator, random_gl_epsilon
from colorinv.traces import (
    W0Point,
    end_trace,
    identity_end,
    injectivity_probe,
    operator_to_end,
    restitute,
    trace_match,
    transposition_sign_check,
)


def report(number, description, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    print("criterion %d %s: %s" % (number, verdict, description))
    assert ok, "criterion %d failed: %s %s" % (number, description, detail)


def run_suite_everywhere(name, config_names):
    failures = []
    for cname in config_names:
        rpt = suite(name, builtin_config(cname))
        if not rpt.ok:
            failures.append(rpt.render())
    return failures


def trivial_space(n):
    chi0 = Bicharacter(FiniteAbelianGroup([1]), [[0]])
    return GradedSpace(chi0, [0] * n)


def test_criterion_01_bicharacter_axioms():
    failures = run_suite_everywhere("bicharacter",
                                    ("trivial", "super", "z4", "z2z2"))
    report(1, "bicharacter axioms hold exhaustively on the four sign groups",
           not failures, "\n".join(failures))


def test_criterion_02_cocycle_identity():
    failures = run_suite_everywhere("cocycle", list_builtin_configs())
    report(2, "sign cocycle identity holds for all permutation pairs up to k=4",
           not failures, "\n".join(failures))


def test_criterion_03_color_jacobi():
    failures = run_suite_everywhere("jacobi", list_builtin_configs())
    report(3, "antisymmetry and color Jacobi hold for all matrix-unit triples",
           not failures, "\n".join(failures))


def test_criterion_04_centralizer_commutes():
    failures = run_suite_everywhere("centralizer-commute",
                                    list_builtin_configs())
    report(4, "signed place permutations commute with the operator and "
              "group actions up to k=3", not failures, "\n".join(failures))


def picture_shapes(cfg):
    shapes = [(cfg.shape, (1,)), (cfg.shape, (2,)), (cfg.shape, (3,))]
    shapes.append((MixedShape(cfg.space, [(2, 1), (1, 2)]), (1, 1)))
    return shapes


def test_criterion_05_path_equality():
    bad = []
    for name in ("super", "z2z2"):
        cfg = builtin_config(name)
        alg = standard_test_algebra(cfg.chi, truncation=3)
        for shape, mults in picture_shapes(cfg):
            ps = PictureShape(shape, mults)
            phis = {s: build_phi(ps, s) for s in all_perms(ps.N)}
            rng = random.Random("acc5/%s/%s" % (name, mults))
            for _ in range(20):
                u = random_w0_point(shape, alg, rng)
                for sigma, phi in phis.items():
                    lhs = restitute(phi.poly, u)
                    rhs = t_sigma_on_parts(ps, sigma, u.parts)
                    if lhs != rhs:
                        bad.append((name, mults, sigma))
    report(5, "polynomial and contraction evaluations agree on 20 points "
              "per shape for every permutation", not bad, repr(bad[:5]))


def test_criterion_06_gl_invariance():
    bad = []
    cases = [(name, builtin_config(name).shape, (2,))
             for name in list_builtin_configs()]
    sup = builtin_config("super")
    cases.append(("super-mixed", MixedShape(sup.space, [(2, 1), (1, 2)]),
                  (1, 1)))
    for label, shape, mults in cases:
        alg = standard_test_algebra(shape.chi, truncation=3)
        ps = PictureShape(shape, mults)
        phis = {s: build_phi(ps, s) for s in all_perms(ps.N)}
        rng = random.Random("acc6/%s" % label)
        for _ in range(20):
            u = random_w0_point(shape, alg, rng)
            T, Tinv = random_gl_epsilon(shape.space, alg, rng)
            moved = W0Point(shape, alg,
                            [apply_operator(p, T, Tinv) for p in u.parts])
            for sigma, phi in phis.items():
                if restitute(phi.poly, u) != restitute(phi.poly, moved):
                    bad.append((label, sigma))
    report(6, "restituted picture invariants are unchanged along 20 seeded "
              "group moves per shape", not bad, repr(bad[:5]))


def test_criterion_07_trace_match():
    bad = []
    for name in ("trivial", "super", "z2z2"):
        cfg = builtin_config(name)
        alg = standard_test_algebra(cfg.chi, truncation=3)
        one = cfg.shape
        two = MixedShape(cfg.space, [(1, 1), (1, 1)])
        cases = [(one, (1,)), (one, (2,)), (one, (3,)),
                 (two, (1, 1)), (two, (2, 1)), (two, (1, 2))]
        for shape, mults in cases:
            ps = PictureShape(shape, mults)
            rng = random.Random("acc7/%s/%s" % (name, mults))
            for _ in range(5):
                u = random_w0_point(shape, alg, rng)
                for sigma in all_perms(ps.N):
                    match, lhs, rhs = trace_match(ps, sigma, u)
                    if not match:
                        bad.append((name, mults, sigma))
    report(7, "restituted pictures equal the matching trace monomials for "
              "all permutations up to three positions", not bad, repr(bad[:5]))


def test_criterion_08_classical_span():
    failures = []
    for n in (1, 2):
        for pairs in ([(1, 1)], [(1, 1), (1, 1)]):
            shape = MixedShape(trivial_space(n), pairs)
            for r in (1, 2, 3):
                rpt = span_check(shape, r)
                if not rpt.ok:
                    failures.append(rpt.render())
    mixed = MixedShape(trivial_space(2), [(2, 1), (1, 2)])
    rpt = span_check(mixed, 2)
    if not rpt.ok:
        failures.append(rpt.render())
    report(8, "picture invariants span the classical invariant spaces for "
              "matrices up to n=2, degree 3", not failures,
           "\n".join(failures))


def test_criterion_09_restitution_well_defined():
    bad = []
    count = 0
    for name, quota in (("super", 17), ("z2z2", 17), ("z4", 16)):
        cfg = builtin_config(name)
        alg = standard_test_algebra(cfg.chi)
        pool = range(len(cfg.shape.numbering().variables))
        rng = random.Random("acc9/%s" % name)
        for _ in range(quota):
            u = random_w0_point(cfg.shape, alg, rng)
            k = rng.randint(2, 4)
            word = tuple(rng.choice(pool) for _ in range(k))
            i = rng.randint(1, k - 1)
            if not transposition_sign_check(cfg.shape, word, i, u):
                bad.append((name, word, i))
            count += 1
    certificates = 0
    for name in ("super", "z3z3"):
        cfg = builtin_config(name)
        rng = random.Random("acc9cert/%s" % name)
        quota = 10
        while quota:
            p = random_sym_polynomial(cfg.shape, 2, rng)
            if p.is_zero():
                continue
            if injectivity_probe(p).is_zero():
                bad.append((name, "certificate"))
            certificates += 1
            quota -= 1
    ok = not bad and count == 50 and certificates == 20
    report(9, "restitution respects the sign relations on 50 seeded cases "
              "and staircase certificates witness 20 nonzero polynomials",
           ok, repr(bad[:5]))


def test_criterion_10_supertrace():
    expected = {"trivial": Fraction(2), "super": Fraction(0),
                "z4": Fraction(1), "z2z2": Fraction(-1), "z3z3": Fraction(3)}
    bad = []
    pairs = 0
    for name in list_builtin_configs():
        cfg = builtin_config(name)
        alg = standard_test_algebra(cfg.chi)
        ident = end_trace(identity_end(cfg.space, alg))
        if ident != alg.scalar(CycloRational.from_rational(expected[name])):
            bad.append((name, "identity"))
        rng = random.Random("acc10/%s" % name)
        for _ in range(10):
            a, _ = random_gl_epsilon(cfg.space, alg, rng)
            b, _ = random_gl_epsilon(cfg.space, alg, rng)
            lhs = end_trace(operator_to_end(a.compose(b)))
            rhs = end_trace(operator_to_end(b.compose(a)))
            if lhs != rhs:
                bad.append((name, "cyclic"))
            pairs += 1
    ok = not bad and pairs == 50
    report(10, "the graded trace gives the expected identity values and is "
               "cyclic on 50 seeded degree-zero pairs", ok, repr(bad[:5]))
