"""Picture invariants: position maps, coefficients, evaluation paths."""

import collections
import copy
import functools
import gc
import itertools
import math
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from colorinv import permutations as perms
from colorinv.config import parse_config_text
from colorinv.cyclo import CycloRational
from colorinv.groups import Bicharacter
from colorinv.oracle import balanced_multiplicities, classical_invariant_dim, suite
from colorinv.permutations import all_perms
from colorinv.pictures import (
    PictureShape,
    _mul_counts,
    _phi_counts,
    blocked_word,
    build_phi,
    coefficient_exponent,
    contraction_pairs,
    dual_word_exponent,
    mu,
    nu,
    p_eps_exponent,
    sigma_hat,
    t_sigma_on_parts,
    tau,
    theta_eval,
)
from colorinv.sampling import random_w0_point, standard_test_algebra
from colorinv.sympoly import MixedShape, SymPolynomial, SymVariable, sym_normalize
from colorinv.tensors import act_perm, gamma_exponent
from colorinv.textform import format_sym
from colorinv.traces import restitute

PHI_TEXTS = {
    ("trivial", (1,), (1,)): "(1) * T(1)[1]^[1] + (1) * T(1)[2]^[2]",
    ("trivial", (2,), (1, 2)):
        "(1) * T(1)[1]^[1] * T(1)[1]^[1] + (2) * T(1)[1]^[1] * T(1)[2]^[2]"
        " + (1) * T(1)[2]^[2] * T(1)[2]^[2]",
    ("trivial", (2,), (2, 1)):
        "(1) * T(1)[1]^[1] * T(1)[1]^[1] + (2) * T(1)[1]^[2] * T(1)[2]^[1]"
        " + (1) * T(1)[2]^[2] * T(1)[2]^[2]",
    ("super", (1,), (1,)): "(1) * T(1)[1]^[1] + (-1) * T(1)[2]^[2]",
    ("super", (2,), (1, 2)):
        "(1) * T(1)[1]^[1] * T(1)[1]^[1] + (-2) * T(1)[1]^[1] * T(1)[2]^[2]"
        " + (1) * T(1)[2]^[2] * T(1)[2]^[2]",
    ("super", (2,), (2, 1)):
        "(1) * T(1)[1]^[1] * T(1)[1]^[1] + (-1) * T(1)[2]^[2] * T(1)[2]^[2]"
        " + (-2) * T(1)[1]^[2] * T(1)[2]^[1]",
    ("z4", (1,), (1,)): "(1) * T(1)[1]^[1] + (1) * T(1)[2]^[2] + (-1) * T(1)[3]^[3]",
}


def test_mu_frozen_values(cfgs):
    sup = cfgs["super"]
    assert mu(PictureShape(sup.shape, (2,))) == (1, 3, 2, 4)
    assert mu(PictureShape(sup.shape, (3,))) == (1, 4, 2, 5, 3, 6)
    mixed = MixedShape(sup.space, [(2, 1), (1, 2)])
    assert mu(PictureShape(mixed, (1, 1))) == (1, 2, 4, 3, 5, 6)


def test_mu_is_a_permutation(cfgs):
    sup = cfgs["super"]
    shapes = [PictureShape(sup.shape, m) for m in ((1,), (2,), (3,))]
    shapes.append(PictureShape(MixedShape(sup.space, [(2, 1), (1, 2)]), (1, 1)))
    for ps in shapes:
        image = mu(ps)
        n = ps.N + ps.Nprime
        assert sorted(image) == list(range(1, n + 1))


def test_t_sigma_on_parts_refuses_parts_over_another_space(cfgs, algebras):
    """Checked before any work: a super picture shape with z2z2 parts."""
    u = random_w0_point(cfgs["z2z2"].shape, algebras["z2z2"], random.Random("foreign"))
    ps = PictureShape(cfgs["super"].shape, (2,))
    with pytest.raises(ValueError, match="^summand 1 tensor over wrong space "
                                         "or algebra$"):
        t_sigma_on_parts(ps, (2, 1), u.parts)


def test_t_sigma_on_parts_refuses_parts_over_two_algebras(cfgs):
    """Checked before the join: summand 2 over another truncation."""
    z2z2 = cfgs["z2z2"]
    mixed = MixedShape(z2z2.space, [(2, 1), (1, 2)])
    rng = random.Random("two-algebras")
    parts = [random_w0_point(mixed, standard_test_algebra(z2z2.chi, truncation=t),
                             rng).part(i) for i, t in ((1, 3), (2, 2))]
    with pytest.raises(ValueError, match="^summand 2 tensor over wrong space "
                                         "or algebra$"):
        t_sigma_on_parts(PictureShape(mixed, (1, 1)), (1, 2, 3), parts)


@pytest.mark.parametrize("sigma", [(1, 1), (3, 1), (2, 1, 3), (1,)])
def test_sigma_outside_s_n_is_refused(cfgs, algebras, sigma):
    """Every entry point that takes sigma refuses one that is not a
    permutation of 1..N, with the same message, before any work."""
    ps = PictureShape(cfgs["super"].shape, (2,))
    u = random_w0_point(ps.shape, algebras["super"], random.Random("outside"))
    blocked = act_perm(mu(ps), blocked_word(ps, u.parts))
    for call in (lambda: build_phi(ps, sigma), lambda: ps.plan(sigma),
                 lambda: ps.plan(sigma).components, lambda: contraction_pairs(ps, sigma),
                 lambda: theta_eval(sigma, blocked),
                 lambda: t_sigma_on_parts(ps, sigma, u.parts)):
        with pytest.raises(ValueError, match="^sigma must lie in S_2$"):
            call()


def test_picture_shape_bookkeeping(cfgs):
    sup = cfgs["super"]
    ps = PictureShape(sup.shape, (2,))
    assert (ps.N, ps.Nprime, ps.k) == (2, 2, 2)
    assert ps.layout == ((1, (1,), (1,)), (1, (2,), (2,)))
    blocked = tuple(v for i, _, _ in ps.layout for v in sup.shape.variance(i))
    assert blocked == (0, 1, 0, 1)
    mixed = PictureShape(MixedShape(sup.space, [(2, 1), (1, 2), (0, 1)]), (2, 1, 0))
    assert (mixed.N, mixed.Nprime, mixed.k) == (5, 4, 3)
    assert mixed.layout == ((1, (1, 2), (1,)), (1, (3, 4), (2,)),
                            (2, (5,), (3, 4)))
    unbalanced = PictureShape(MixedShape(sup.space, [(2, 1)]), (1,))
    assert unbalanced.N != unbalanced.Nprime
    with pytest.raises(ValueError):
        unbalanced.require_balanced()


def test_phi_frozen_polynomials(cfgs):
    for (name, mults, sigma), text in PHI_TEXTS.items():
        ps = PictureShape(cfgs[name].shape, mults)
        phi = build_phi(ps, sigma)
        assert format_sym(phi.poly) == text


def test_phi_lands_in_degree_zero(cfgs):
    for name in ("super", "z4", "z2z2"):
        cfg = cfgs[name]
        shapes = [(cfg.shape, (2,)),
                  (MixedShape(cfg.space, [(2, 1), (1, 2)]), (1, 1))]
        for shape, mults in shapes:
            ps = PictureShape(shape, mults)
            degree = shape.numbering().degree
            for sigma in all_perms(ps.N):
                poly = build_phi(ps, sigma).poly
                for word in poly.terms:
                    assert cfg.chi.degree_sum([degree[k] for k in word]) == 0


def test_p_eps_brute_force(cfgs):
    for cfg in cfgs.values():
        chi = cfg.chi
        order = chi.element_order()
        for degs in itertools.product(cfg.space.degrees, repeat=3):
            g = [order[d] for d in degs]
            expected = sum(chi.eps_exponent(g[i], g[j])
                           for i in range(3) for j in range(i, 3))
            assert chi.root(p_eps_exponent(chi, degs)) == chi.root(expected)
            reversed_expected = sum(chi.eps_exponent(g[j], g[i])
                                    for i in range(3) for j in range(i + 1, 3))
            assert chi.root(dual_word_exponent(chi, degs)) == \
                chi.root(reversed_expected)


def test_triangular_form_agrees_with_dual_word_form_for_signs(cfgs):
    """On block degrees summing to the identity, the printed triangular
    product (p_eps_exponent) equals the strict reversed one that phi_sigma
    uses when eps takes only the values +-1, and not on z3z3, where eps
    takes cube roots of unity."""
    for name, cfg in cfgs.items():
        chi = cfg.chi
        differ = 0
        for degs in itertools.product(range(chi.group.order), repeat=3):
            if chi.degree_sum(degs) == 0:
                differ += (p_eps_exponent(chi, degs)
                           - dual_word_exponent(chi, degs)) % chi.m != 0
        assert (differ > 0) == (name == "z3z3"), name


def test_path_equality_seeded(cfgs):
    for name in ("super", "z2z2"):
        cfg = cfgs[name]
        alg = standard_test_algebra(cfg.chi, truncation=3)
        ps = PictureShape(cfg.shape, (2,))
        rng = random.Random("path/%s" % name)
        phis = {sigma: build_phi(ps, sigma) for sigma in all_perms(2)}
        for _ in range(5):
            u = random_w0_point(cfg.shape, alg, rng)
            for sigma, phi in phis.items():
                lhs = restitute(phi.poly, u)
                rhs = t_sigma_on_parts(ps, sigma, u.parts)
                assert lhs == rhs, (name, sigma)


def join_cases(cfgs):
    """(name, picture shape, points) for every builtin at N <= 3, and the
    mixed shape (2,1)+(1,2) with multiplicities (1,1) on super.  Point
    coefficients have words of length <= 1, so at truncation 3 products
    over three copies survive and the contracted values are mostly
    nonzero."""
    cases = []
    for name in sorted(cfgs):
        cfg = cfgs[name]
        alg = standard_test_algebra(cfg.chi, truncation=3)
        rng = random.Random("join/%s" % name)
        points = [random_w0_point(cfg.shape, alg, rng, max_len=1) for _ in range(2)]
        for n in (1, 2, 3):
            cases.append((name, PictureShape(cfg.shape, (n,)), points))
    sup = cfgs["super"]
    mixed = MixedShape(sup.space, [(2, 1), (1, 2)])
    alg = standard_test_algebra(sup.chi, truncation=3)
    rng = random.Random("join/mixed")
    points = [random_w0_point(mixed, alg, rng, max_len=1) for _ in range(2)]
    cases.append(("mixed", PictureShape(mixed, (1, 1)), points))
    return cases


def four_moves(ps, sigma, t):
    """The blocked word moved by mu, sigma_hat, tau and nu, as
    t_sigma_on_parts moves it before contracting."""
    for p in (mu(ps), sigma_hat(sigma), tau(ps.N), nu(ps.N)):
        t = act_perm(p, t)
    return t


def test_joined_t_sigma_matches_unpruned_path(cfgs):
    """The join builds only surviving blocked terms; the value must be the
    one the full blocked word gives through the same four moves."""
    for name, ps, points in join_cases(cfgs):
        for sigma in all_perms(ps.N):
            for u in points:
                full = theta_eval(sigma, act_perm(mu(ps), blocked_word(ps, u.parts)))
                assert t_sigma_on_parts(ps, sigma, u.parts) == full, (name, ps, sigma)


def test_join_builds_exactly_the_surviving_terms(cfgs):
    """Every term of the joined blocked word survives contraction after the
    four moves, and every surviving term of the full word is built."""
    checked = 0
    for name, ps, points in join_cases(cfgs):
        half = ps.N
        for sigma in all_perms(ps.N):
            pairs = contraction_pairs(ps, sigma)
            assert len(pairs) == half and all(a < b for a, b in pairs)
            for u in points:
                joined = blocked_word(ps, u.parts, pairs)
                moved = four_moves(ps, sigma, joined)
                assert len(moved.terms) == len(joined.terms)
                assert all(all(w[2 * i] == w[2 * i + 1] for i in range(half))
                           for w in moved.terms), (name, ps, sigma)
                full = four_moves(ps, sigma, blocked_word(ps, u.parts))
                kept = {w: c for w, c in full.terms.items()
                        if all(w[2 * i] == w[2 * i + 1] for i in range(half))}
                assert moved.terms == kept, (name, ps, sigma)
                checked += len(joined.terms)
    assert checked


def test_path_equality_on_length_one_points(cfgs, z12z12):
    """With coefficient words of length 1, quadratic terms such as
    T[a]^[b] T[b]^[a] survive truncation 3, so a wrong sign on them shows
    up as a mismatch between the two paths."""
    configs = [cfgs[name] for name in ("super", "z2z2", "z3z3")]
    configs.append(z12z12)
    for cfg in configs:
        alg = standard_test_algebra(cfg.chi, truncation=3)
        ps = PictureShape(cfg.shape, (2,))
        rng = random.Random("length-one/%s" % cfg.name)
        points = [random_w0_point(cfg.shape, alg, rng, max_len=1) for _ in range(3)]
        for sigma in all_perms(2):
            phi = build_phi(ps, sigma)
            for u in points:
                lhs = restitute(phi.poly, u)
                assert lhs == t_sigma_on_parts(ps, sigma, u.parts), (cfg.name, sigma)
                assert not lhs.is_zero(), (cfg.name, sigma)


def test_phi_polynomials_are_normalized(cfgs):
    cfg = cfgs["z2z2"]
    ps = PictureShape(cfg.shape, (2,))
    for sigma in all_perms(2):
        poly = build_phi(ps, sigma).poly
        for word in poly.terms:
            assert all(isinstance(k, int) for k in word)
            assert list(word) == sorted(word)


def textbook_degree(shape, v):
    """The G-degree of a variable as an int tuple: its lower indices'
    degrees minus its upper indices' degrees."""
    grp, order = shape.chi.group, shape.chi.element_order()
    d = grp.identity
    for x in v.lower:
        d = grp.add(d, order[shape.space.degree(x)])
    for x in v.upper:
        d = grp.add(d, grp.neg(order[shape.space.degree(x)]))
    return d


def textbook_coefficient_exponent(pshape, sigma, I):
    """The coefficient exponent at index tuple I worked out from scratch:
    gamma over the inversions of rho = nu tau sigma_hat mu on the blocked
    degree tuple J = mu^{-1} . (degrees of I, negated degrees of
    I o sigma^{-1}), plus the dual-word normalization of the w-block
    degrees, the degrees added and negated as int tuples."""
    chi = pshape.shape.chi
    grp = chi.group
    space = pshape.shape.space
    N = pshape.N
    inv = perms.inverse(sigma)

    def deg(r):
        return chi.element_order()[space.degree(r)]

    def total(gs):
        return functools.reduce(grp.add, gs, grp.identity)

    sorted_degs = ([deg(r) for r in I]
                   + [grp.neg(deg(I[inv[y - 1] - 1])) for y in range(1, N + 1)])
    mu_p = mu(pshape)
    J = perms.act_tuple(perms.inverse(mu_p), tuple(chi.position(g) for g in sorted_degs))
    rho = perms.compose(perms.nu_perm(N), perms.compose(
        perms.tau_perm(N), perms.compose(perms.hat_perm(sigma), mu_p)))
    h = []
    for _, lo, up in pshape.layout:
        lo_deg = total(deg(I[p - 1]) for p in lo)
        up_deg = total(deg(I[inv[q - 1] - 1]) for q in up)
        h.append(chi.position(grp.add(lo_deg, grp.neg(up_deg))))
    return (gamma_exponent(chi, J, rho) + dual_word_exponent(chi, h)) % chi.m


def textbook_phi(pshape, sigma):
    """phi_sigma summed from scratch: at each index tuple I, the variable
    word of the copies, insertion-sorted by the written-out order (degree
    position, summand, lower, upper) with the eps exponent of each swapped
    pair of degrees added up, dropped when it repeats an odd variable, and
    multiplied by the root of textbook_coefficient_exponent at I, so no
    formula of the library's SigmaPlan is shared.  Each sorted word
    becomes an id tuple through var_id at the end."""
    shape = pshape.shape
    chi = shape.chi
    inv = perms.inverse(sigma)

    def key(v):
        return chi.position(textbook_degree(shape, v)), v.summand, v.lower, v.upper

    total = {}
    for I in itertools.product(range(1, shape.space.dim + 1), repeat=pshape.N):
        word = [SymVariable(i, tuple(I[p - 1] for p in lo),
                            tuple(I[inv[q - 1] - 1] for q in up))
                for i, lo, up in pshape.layout]
        exp = 0
        for a in range(1, len(word)):
            b = a
            while b > 0 and key(word[b - 1]) > key(word[b]):
                exp += chi.eps_exponent(textbook_degree(shape, word[b - 1]),
                                        textbook_degree(shape, word[b]))
                word[b - 1], word[b] = word[b], word[b - 1]
                b -= 1
        if any(x == y and chi.parity_bit(chi.position(textbook_degree(shape, x)))
               for x, y in zip(word, word[1:])):
            continue
        c = chi.root(exp) * chi.root(textbook_coefficient_exponent(pshape, sigma, I))
        word = tuple(shape.var_id(v) for v in word)
        total[word] = total[word] + c if word in total else c
    return SymPolynomial(shape, total)


def _assert_phi_matches_textbook(ps, name, sigmas=None):
    """build_phi equals textbook_phi for each sigma (all of S_N by
    default), in value and in each coefficient's order: CycloRational's ==
    compares values across orders, and the order shows in printed text."""
    for sigma in all_perms(ps.N) if sigmas is None else sigmas:
        got, want = build_phi(ps, sigma).poly, textbook_phi(ps, sigma)
        assert got == want, (name, ps, sigma)
        assert {w: c.order for w, c in got.terms.items()} == \
            {w: c.order for w, c in want.terms.items()}, (name, ps, sigma)


def test_build_phi_matches_textbook_sum(cfgs):
    for cfg in cfgs.values():
        shapes = [PictureShape(cfg.shape, (n,)) for n in (1, 2, 3)]
        shapes.append(PictureShape(MixedShape(cfg.space, [(2, 1), (1, 2)]), (1, 1)))
        for ps in shapes:
            _assert_phi_matches_textbook(ps, cfg.name)


def test_build_phi_matches_textbook_sum_over_components(cfgs):
    """Shapes where sigma may split the copies into several components,
    so build_phi multiplies the components' pictures; textbook_phi sums
    over all index tuples at once."""
    for name in ("super", "z3z3"):
        _assert_phi_matches_textbook(PictureShape(cfgs[name].shape, (4,)), name)
    z2z2 = cfgs["z2z2"]
    mixed = MixedShape(z2z2.space, [(1, 1), (2, 2)])
    _assert_phi_matches_textbook(PictureShape(mixed, (2, 1)), "z2z2")
    # Copies whose lower and upper positions differ.  At (1,3,6,2,4,5)
    # sigma splits them into {1,3}, {2,4}; linking through sigma instead of
    # sigma^{-1} would join all four.
    sup = cfgs["super"]
    ps = PictureShape(MixedShape(sup.space, [(2, 1), (1, 2)]), (2, 2))
    sigmas = [(1, 3, 6, 2, 4, 5)] + random.Random("components").sample(all_perms(ps.N), 10)
    _assert_phi_matches_textbook(ps, "super", sigmas)


def test_build_phi_matches_textbook_sum_on_symmetric_components(cfgs):
    """Components with symmetries, where build_phi works out one index
    tuple per orbit: one sigma per cycle type at M=(5,) (rotations of each
    cycle), shape (2,2) at M=(2,) and (1,1)+(1,1) at M=(2,1); and shape
    (2,2) at M=(4,) with a sigma whose symmetries are three involutions, a
    Klein four-group, so no one rotation generates the orbits."""
    for name in ("super", "z3z3"):
        cfg = cfgs[name]
        _assert_phi_matches_textbook(PictureShape(cfg.shape, (5,)), name,
                                     [rep for _, rep in perms.cycle_type_reps(5)])
        for pairs, mults in (([(2, 2)], (2,)), ([(1, 1), (1, 1)], (2, 1))):
            ps = PictureShape(MixedShape(cfg.space, pairs), mults)
            _assert_phi_matches_textbook(ps, name)
    klein = (3, 6, 1, 8, 7, 2, 5, 4)
    for name in ("super", "trivial"):
        ps = PictureShape(MixedShape(cfgs[name].space, [(2, 2)]), (4,))
        symmetries = ps.plan(klein).symmetries
        assert len(symmetries) == 3, (name, symmetries)
        for P in symmetries:
            assert all(P[P[p]] == p for p in range(ps.N)), (name, P)
        _assert_phi_matches_textbook(ps, name, [klein])


@functools.lru_cache(maxsize=None)
def character(lam, cycle_type):
    """chi^lam of S_r at a permutation of the given cycle type, by
    Murnaghan-Nakayama on beta-sets: the beads lam_i + n - i (n parts,
    i = 1..n), where removing a rim hook of length h moves a bead b to the
    empty place b - h, with sign (-1) to the number of beads in between."""
    if not cycle_type:
        return 1
    h, rest = cycle_type[0], cycle_type[1:]
    n = len(lam)
    beads = {part + n - 1 - i for i, part in enumerate(lam)}
    total = 0
    for b in beads:
        if b >= h and b - h not in beads:
            moved = sorted(beads - {b} | {b - h}, reverse=True)
            mu = tuple(x - (n - 1 - i) for i, x in enumerate(moved) if x > n - 1 - i)
            total += (-1) ** sum(b - h < x < b for x in beads) * character(mu, rest)
    return total


def test_sign_character_sum_of_one_matrix_vanishes_exactly_past_dim(cfgs, z12z12):
    """The color trace identities of one matrix: for every lambda of r,
    Phi_lambda, the sum over S_r of chi^lambda(sigma) phi_sigma (one sigma
    per cycle type weighted by its class size), lies in lambda's ideal of
    Q[S_r], which acts as 0 on V^{ox r} exactly when lambda leaves the
    (k,l)-hook, lambda_{k+1} > l, k and l the numbers of even and odd basis
    vectors; otherwise Phi_lambda is nonzero, so hook_count(r, k, l) of
    them are.  The sign character, lambda = (1^r), gives zero exactly when
    V has no odd basis vector and r > dim (Cayley-Hamilton for 2x2 at
    r = 3 on trivial).  The characters are pinned by sum chi^lambda(1)^2
    = r! and by chi^(1^r) being the sign."""
    for r in range(1, 7):
        types = [part for part, _ in perms.cycle_type_reps(r)]
        assert sum(character(lam, (1,) * r) ** 2 for lam in types) == math.factorial(r)
        assert all(character((1,) * r, part) == (-1) ** (r - len(part)) for part in types)
    for cfg in list(cfgs.values()) + [z12z12]:
        chi, space = cfg.chi, cfg.space
        odd = sum(chi.parity_bit(d) for d in space.degrees)
        k = space.dim - odd
        for r in range(1, 7):
            ps = PictureShape(cfg.shape, (r,))
            phis = []
            for part, sigma in perms.cycle_type_reps(r):
                size = math.factorial(r) // math.prod(part) // math.prod(
                    math.factorial(m) for m in collections.Counter(part).values())
                phis.append((part, build_phi(ps, sigma).poly.scale(size)))
            nonzero = 0
            for lam, _ in phis:
                total = SymPolynomial.zero(cfg.shape)
                for part, phi in phis:
                    total = total + phi.scale(character(lam, part))
                zero = total.is_zero()
                assert zero == (len(lam) > k and lam[k] > odd), (cfg.name, lam)
                nonzero += not zero
                if lam == (1,) * r:
                    assert zero == (not odd and r > space.dim), (cfg.name, r)
            assert nonzero == hook_count(r, k, odd), (cfg.name, r)


def test_character_sums_on_mixed_shapes_vanish_exactly_outside_the_hook(cfgs):
    """The color trace identities on mixed shapes (1,1)+(1,1),
    (2,1)+(1,2) and (1,1)+(2,2), every balanced M with N <= 4: for lambda
    of N and g in S_N, Phi_lambda,g = sum over all sigma of S_N of
    chi^lambda(sigma g^{-1}) phi_sigma lies in lambda's two-sided ideal of
    Q[S_N], so it is zero when lambda leaves the (k,l)-hook,
    lambda_{k+1} > l.  It is checked at g = id and two seeded g.  At
    g = id, hook_count(N, k, l) of the Phi_lambda are nonzero on every
    block, so they vanish exactly outside the hook.  No lambda of N <= 4
    leaves z4's (2|1)-hook, so super ((2,2) at N = 4) and trivial (three
    rows from N = 3) carry the vanishing; z4 carries m = 4."""
    for name in ("z4", "super", "trivial"):
        cfg = cfgs[name]
        odd = sum(cfg.chi.parity_bit(d) for d in cfg.space.degrees)
        k = cfg.space.dim - odd
        for pairs in ([(1, 1), (1, 1)], [(2, 1), (1, 2)], [(1, 1), (2, 2)]):
            shape = MixedShape(cfg.space, pairs)
            for M in balanced_multiplicities(shape, 4):
                ps = PictureShape(shape, M)
                sigmas = all_perms(ps.N)
                phis = [(sigma, build_phi(ps, sigma).poly) for sigma in sigmas]
                rng = random.Random("identities/%s/%s/%s" % (name, pairs, M))
                gs = [perms.identity(ps.N), rng.choice(sigmas), rng.choice(sigmas)]
                lams = [part for part, _ in perms.cycle_type_reps(ps.N)]
                for i, g in enumerate(gs):
                    g_inv = perms.inverse(g)
                    classes = {}     # cycle type of sigma g^{-1} -> sum of its phi_sigma
                    for sigma, phi in phis:
                        part = tuple(sorted(map(len, perms.cycles(perms.compose(sigma, g_inv))),
                                            reverse=True))
                        classes[part] = classes[part] + phi if part in classes else phi
                    nonzero = 0
                    for lam in lams:
                        total = SymPolynomial.zero(shape)
                        for part, phi in classes.items():
                            total = total + phi.scale(character(lam, part))
                        zero = total.is_zero()
                        if len(lam) > k and lam[k] > odd:
                            assert zero, (name, pairs, M, lam, g)
                        nonzero += not zero
                    if i == 0:
                        assert nonzero == hook_count(ps.N, k, odd), (name, pairs, M)


def test_build_phi_matches_textbook_sum_on_empty_halves_and_twin_summands(cfgs):
    """EDGE_PICTURES, where some copies have no lower or no upper
    positions, or two summands are equal pairs, for every sigma."""
    for name in ("super", "z3z3", "z4"):
        for pairs, mults in EDGE_PICTURES:
            ps = PictureShape(MixedShape(cfgs[name].space, pairs), mults)
            _assert_phi_matches_textbook(ps, name)


def copy_relabellings(ps):
    """Every pi in prod_i S_{M_i}, as (pi on the copies, pi_low on the
    lower positions 1..N, pi_up on the upper positions 1..N): pi sends
    each copy c to a copy pi(c) of the same summand, and c's lower and
    upper positions, in order, to those of pi(c)."""
    blocks = [[c for c, (i, _, _) in enumerate(ps.layout) if i == s]
              for s in range(1, ps.shape.s + 1)]
    for choice in itertools.product(*(itertools.permutations(b) for b in blocks)):
        pi = {c: d for block, images in zip(blocks, choice)
              for c, d in zip(block, images)}
        low, up = [0] * ps.N, [0] * ps.N
        for c, d in pi.items():
            for half, slot in ((low, 1), (up, 2)):
                for p, q in zip(ps.layout[c][slot], ps.layout[d][slot]):
                    half[p - 1] = q
        yield pi, tuple(low), tuple(up)


def _assert_symmetries_written_out(ps, sigma):
    """The plan's symmetries against every pi of prod_i S_{M_i} that fixes
    sigma, pi_up . sigma . pi_low^{-1} = sigma: when sigma links all the
    copies they are exactly these pi other than the identity, as maps of
    0-based positions of I (pi_low), and each moves every copy; otherwise
    there are none.  With the identity they are closed under composition."""
    plan = ps.plan(sigma)
    ident = tuple(range(ps.N))
    fixing = {}
    for pi, low, up in copy_relabellings(ps):
        if perms.compose(up, sigma) == perms.compose(sigma, low):
            fixing[tuple(q - 1 for q in low)] = pi
    assert len(set(plan.symmetries)) == len(plan.symmetries), (ps, sigma)
    if len(plan.components) > 1:
        assert plan.symmetries == (), (ps, sigma)
        return
    assert set(plan.symmetries) == set(fixing) - {ident}, (ps, sigma)
    for P in plan.symmetries:
        assert all(d != c for c, d in fixing[P].items()), (ps, sigma, P)
    group = set(plan.symmetries) | {ident}
    for a in group:
        for b in group:
            assert tuple(a[b[p]] for p in ident) in group, (ps, sigma, a, b)


def test_sigma_plan_symmetries_are_the_relabellings_fixing_sigma(cfgs):
    """On each component of sigma and on the whole shape: shape (1,1) at
    N <= 5, the mixed pictures, pairs with an empty half and twin
    summands, and (2,1)+(1,2) at M=(2,2) on a seeded sample of sigma."""
    sup = cfgs["super"]
    shapes = [(PictureShape(sup.shape, (n,)), all_perms(n)) for n in range(1, 6)]
    for pairs, mults in MIXED_PICTURES + EDGE_PICTURES:
        ps = PictureShape(MixedShape(sup.space, pairs), mults)
        shapes.append((ps, all_perms(ps.N)))
    big = PictureShape(MixedShape(sup.space, [(2, 1), (1, 2)]), (2, 2))
    shapes.append((big, random.Random("symmetries").sample(all_perms(6), 60)))
    found = 0
    for ps, sigmas in shapes:
        for sigma in sigmas:
            _assert_symmetries_written_out(ps, sigma)
            for mults, sub_sigma in ps.plan(sigma).components:
                sub = ps.part(mults)
                _assert_symmetries_written_out(sub, sub_sigma)
                found += len(sub.plan(sub_sigma).symmetries)
    assert found


def _assert_phi_constant_on_orbits(ps, sigmas):
    """phi_sigma equals phi of pi_up . sigma . pi_low^{-1} for every pi in
    prod_i S_{M_i}, term by term and in each coefficient's order."""
    for sigma in sigmas:
        phi = build_phi(ps, sigma).poly
        orders = {w: c.order for w, c in phi.terms.items()}
        for _, low, up in copy_relabellings(ps):
            moved = perms.compose(up, perms.compose(sigma, perms.inverse(low)))
            other = build_phi(ps, moved).poly
            assert other.terms == phi.terms, (ps, sigma, moved)
            assert {w: c.order for w, c in other.terms.items()} == orders, \
                (ps, sigma, moved)


def test_phi_is_constant_on_relabelling_orbits_of_mixed_shapes(cfgs):
    """Copies of two summands relabelled within each summand: (2,1)+(1,2)
    at M=(2,2) on a seeded sample of sigma, (1,1)+(2,2) at M=(2,1) on
    every sigma."""
    for name in ("super", "z3z3"):
        cfg = cfgs[name]
        ps = PictureShape(MixedShape(cfg.space, [(2, 1), (1, 2)]), (2, 2))
        _assert_phi_constant_on_orbits(
            ps, random.Random("orbits/" + name).sample(all_perms(ps.N), 6))
        ps = PictureShape(MixedShape(cfg.space, [(1, 1), (2, 2)]), (2, 1))
        _assert_phi_constant_on_orbits(ps, all_perms(ps.N))


def test_component_counts_multiply_in_either_order(cfgs):
    """Components are balanced of G-degree 0, so multiplying two of their
    counts dicts gives the same dict, exponents mod m included, in either
    order; build_phi relies on this when it multiplies the smallest first.
    On super a repeated odd variable drops some pairs of monomials."""
    dropped = 0
    for name in ("super", "z3z3"):
        space = cfgs[name].space
        shapes = [(PictureShape(MixedShape(space, [(1, 1)]), (4,)), all_perms(4)),
                  (PictureShape(MixedShape(space, [(1, 1), (2, 2)]), (2, 1)), all_perms(4))]
        ps = PictureShape(MixedShape(space, [(2, 1), (1, 2)]), (2, 2))
        shapes.append((ps, [(1, 3, 6, 2, 4, 5)]
                       + random.Random("components").sample(all_perms(6), 10)))
        for ps, sigmas in shapes:
            for sigma in sigmas:
                parts = [_phi_counts(ps.part(mults), s)
                         for mults, s in ps.plan(sigma).components]
                for a, b in itertools.combinations(parts, 2):
                    ab = _mul_counts(ps.shape, a, b)
                    assert ab == _mul_counts(ps.shape, b, a), (name, ps, sigma)
                    dropped += sum(ab.values()) < sum(a.values()) * sum(b.values())
        if name == "super":
            assert dropped


def _mul_counts_by_sort(shape, left, right):
    """The product of two counts dicts the long way: sym_normalize of each
    concatenated pair of monomials, counts summed per (monomial, exponent
    mod m)."""
    m = shape.chi.m
    out = collections.Counter()
    for (w1, e1), n1 in left.items():
        for (w2, e2), n2 in right.items():
            res = sym_normalize(shape, w1 + w2)
            if res is not None:
                out[res[1], (e1 + e2 + res[0]) % m] += n1 * n2
    return dict(out)


def test_mul_counts_matches_the_sort_of_each_concatenated_pair(cfgs):
    """_mul_counts, multiplying sigma's component counts in plan order as
    build_phi does, against the full sort of each concatenated pair.  On
    super and z2z2 a repeated odd variable drops pairs; on z3z3 m = 3,
    and the (1,1)+(2,2) shape has components over both summands."""
    cases = {"super": ([(1, 1)], (5,), [(2, 1, 4, 3, 5), (1, 2, 3, 4, 5)]),
             "z2z2": ([(1, 1)], (5,), [(2, 1, 4, 3, 5), (1, 3, 2, 4, 5)]),
             "z3z3": ([(1, 1)], (5,), [(2, 1, 4, 3, 5), (1, 2, 3, 5, 4)]),
             "z3z3 mixed": ([(1, 1), (2, 2)], (2, 1), [(1, 2, 3, 4), (3, 2, 1, 4)])}
    for name, (pairs, mults, sigmas) in cases.items():
        ps = PictureShape(MixedShape(cfgs[name.split()[0]].space, pairs), mults)
        dropped = products = 0
        for sigma in sigmas:
            parts = [_phi_counts(ps.part(sub), s) for sub, s in ps.plan(sigma).components]
            assert len(parts) >= 2, (name, sigma)
            counts = parts[0]
            for part in parts[1:]:
                got = _mul_counts(ps.shape, counts, part)
                assert got == _mul_counts_by_sort(ps.shape, counts, part), (name, sigma)
                dropped += sum(got.values()) < sum(counts.values()) * sum(part.values())
                products += 1
                counts = got
        assert products >= 3
        assert bool(dropped) == (name in ("super", "z2z2")), (name, dropped)


def test_build_phi_matches_textbook_sum_when_the_smallest_component_is_not_first(cfgs):
    """sigma whose components, in the plan's order, do not come smallest
    counts dict first, so build_phi multiplies them in another order."""
    cases = ((([(1, 1)], (4,)), [(2, 1, 3, 4), (1, 3, 2, 4)]),
             (([(1, 1), (2, 2)], (2, 1)), [(3, 2, 1, 4)]))
    for name in ("super", "z3z3"):
        for (pairs, mults), sigmas in cases:
            ps = PictureShape(MixedShape(cfgs[name].space, pairs), mults)
            for sigma in sigmas:
                sizes = [len(_phi_counts(ps.part(mults), s))
                         for mults, s in ps.plan(sigma).components]
                assert sizes != sorted(sizes), (name, ps, sigma, sizes)
            _assert_phi_matches_textbook(ps, name, sigmas)


def _cycle_phi(shape, length):
    """phi of the standard length-cycle 1 -> 2 -> ... -> length -> 1 on
    (1,1)^length: the trace of the length-th power of the matrix."""
    sigma = tuple(range(2, length + 1)) + (1,)
    return build_phi(PictureShape(shape, (length,)), sigma).poly


def test_phi_is_the_product_of_its_cycles_traces(cfgs):
    """On shape (1,1) a picture invariant is a trace monomial: phi_sigma is
    the product over the cycles of sigma of phi of a cycle of that
    length, and phi_sigma = phi_{pi sigma pi^{-1}} for every pi in S_N."""
    for cfg in cfgs.values():
        assert cfg.shape.pairs == ((1, 1),)
        traces = {n: _cycle_phi(cfg.shape, n) for n in range(1, 5)}
        for n in range(1, 5):
            ps = PictureShape(cfg.shape, (n,))
            phis = {sigma: build_phi(ps, sigma).poly for sigma in all_perms(n)}
            for sigma, phi in phis.items():
                expected = SymPolynomial.from_word(cfg.shape, ())
                for cyc in perms.cycles(sigma):
                    expected = expected * traces[len(cyc)]
                assert phi == expected, (cfg.name, sigma)
                for pi in all_perms(n):
                    conj = perms.compose(pi, perms.compose(sigma, perms.inverse(pi)))
                    assert phis[conj] == phi, (cfg.name, sigma, pi)


MIXED_PICTURES = (([(1, 1), (2, 2)], (2, 1)), ([(2, 1), (1, 2)], (1, 1)),
                  ([(1, 1), (1, 1)], (2, 1)), ([(2, 2), (1, 1)], (1, 1)),
                  ([(2, 2)], (2,)))
# Pairs with an empty half (copies with no lower or no upper positions),
# and twin summands, two copies each.
EDGE_PICTURES = (([(2, 0), (0, 2)], (2, 2)), ([(1, 0), (0, 1)], (3, 3)),
                 ([(2, 1), (0, 1)], (1, 1)), ([(1, 1), (1, 1)], (2, 2)))


def test_components_are_balanced_of_degree_zero_and_multiply_to_phi(cfgs):
    cfg = cfgs["z4"]
    for pairs, mults in MIXED_PICTURES:
        ps = PictureShape(MixedShape(cfg.space, pairs), mults)
        for sigma in all_perms(ps.N):
            parts = [(ps.part(mults), s) for mults, s in ps.plan(sigma).components]
            assert sum(sub.k for sub, _ in parts) == ps.k
            product = SymPolynomial.from_word(ps.shape, ())
            for sub, sub_sigma in parts:
                assert sub.N == sub.Nprime and sorted(sub_sigma) == list(range(1, sub.N + 1))
                phi = build_phi(sub, sub_sigma).poly
                assert phi.g_degree() == 0, (ps, sigma, sub)
                product = product * phi
            assert product == build_phi(ps, sigma).poly, (ps, sigma)


def union_find_components(ps, sigma):
    """sigma's components on the copies of ps worked out apart from the
    plan, as (member copies, multiplicities, sub-sigma): copy c is linked
    to the copy owning lower position sigma^{-1}(q) for each of its upper
    positions q, and linked copies are joined by union-find.  Components
    come in the order of their first copies, members in blocked order;
    sub-sigma is sigma with the members' lower and upper positions
    relabelled 1.. in order."""
    layout = ps.layout
    owner = {p: c for c, (_, lo, _) in enumerate(layout) for p in lo}
    inv = perms.inverse(sigma)
    label = list(range(len(layout)))

    def root(c):
        while label[c] != c:
            c = label[c]
        return c

    for c, (_, _, up) in enumerate(layout):
        for q in up:
            a, b = sorted((root(c), root(owner[inv[q - 1]])))
            label[b] = a
    groups = {}
    for c in range(len(layout)):
        groups.setdefault(root(c), []).append(c)
    out = []
    for members in groups.values():
        mults = [0] * ps.shape.s
        for c in members:
            mults[layout[c][0] - 1] += 1
        upper = [q for c in members for q in layout[c][2]]
        rank = {q: r for r, q in enumerate(upper, start=1)}
        out.append((members, tuple(mults),
                    tuple(rank[sigma[p - 1]] for c in members for p in layout[c][1])))
    return out


def test_plan_components_match_a_union_find_referee(cfgs):
    """For every sigma on the mixed and edge pictures, the plan's
    components are the referee's: the same multiplicities and sub-sigma in
    the same order, the member copies (each copy in exactly one component,
    as many in the sub-shape as the referee lists, each in its summand),
    and one kept tuple that a second lookup returns again."""
    sup = cfgs["super"]
    split = 0
    for pairs, mults in MIXED_PICTURES + EDGE_PICTURES:
        ps = PictureShape(MixedShape(sup.space, pairs), mults)
        for sigma in all_perms(ps.N):
            got = ps.plan(sigma).components
            want = union_find_components(ps, sigma)
            assert list(got) == [(m, s) for _, m, s in want], (ps, sigma)
            members = [c for copies, _, _ in want for c in copies]
            assert sorted(members) == list(range(ps.k)), (ps, sigma)
            for (mults, _), (copies, _, _) in zip(got, want):
                sub = ps.part(mults)
                assert sub.k == len(copies) and sub is ps.part(mults)
                assert [i for i, _, _ in sub.layout] == \
                    [ps.layout[c][0] for c in copies], (ps, sigma)
            assert ps.plan(sigma).components is got
            split += len(got) > 1
    assert split


def test_a_picture_shape_is_freed_without_the_cyclic_collector(cfgs):
    """Neither a shape nor a plan refers to its own shape: with the
    cyclic collector off, a shape that has built phi for a split and a
    connected sigma, and kept their plans and sub-shapes, is freed, with
    its sub-shapes, as soon as the last reference to it goes."""
    ps = PictureShape(cfgs["super"].shape, (3,))
    enabled = gc.isenabled()
    gc.disable()
    try:
        for sigma in ((2, 1, 3), (2, 3, 1)):
            build_phi(ps, sigma)
        assert ps.part((3,)) is ps
        shapes = [weakref.ref(ps), weakref.ref(ps.part((1,))), weakref.ref(ps.part((2,)))]
        assert len(ps.plan((2, 1, 3)).components) == 2
        assert len(ps.plan((2, 3, 1)).components) == 1
        del ps
        assert [ref() for ref in shapes] == [None, None, None]
    finally:
        if enabled:
            gc.enable()


def _assert_plan_matches_textbook(ps):
    """coefficient_exponent against the textbook formula at every index
    tuple, for every sigma of S_N.  The plan of a sigma with several
    components has no coefficient form; each of its components' plans is
    checked over the component's own tuples instead."""
    dim = ps.shape.space.dim
    for sigma in all_perms(ps.N):
        plan = ps.plan(sigma)
        if len(plan.components) > 1:
            assert not hasattr(plan, "terms"), (ps, sigma)
        for mults, sub_sigma in plan.components:
            sub = ps.part(mults)
            sub_plan = sub.plan(sub_sigma)
            for I in itertools.product(range(1, dim + 1), repeat=sub.N):
                assert coefficient_exponent(sub_plan, I) == \
                    textbook_coefficient_exponent(sub, sub_sigma, I), (sub, sub_sigma, I)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_coefficient_exponent_matches_textbook_formula(cfgs, n):
    for cfg in cfgs.values():
        _assert_plan_matches_textbook(PictureShape(cfg.shape, (n,)))


def test_coefficient_exponent_matches_textbook_formula_mixed(cfgs):
    for cfg in cfgs.values():
        mixed = MixedShape(cfg.space, [(1, 1), (2, 2)])
        _assert_plan_matches_textbook(PictureShape(mixed, (2, 1)))


def test_coefficient_exponent_does_not_depend_on_the_order_of_terms(cfgs):
    """A plan's terms are sorted by position pair, and its exponent is the
    plain sum over them in any order: on a copy whose terms are shuffled,
    as a plan rewritten after it was built may hold them, it is the same."""
    rng = random.Random(38)
    reordered = 0
    for name in ("z3z3", "z4"):
        cfg = cfgs[name]
        dim = cfg.space.dim
        for _ in range(25):
            ps = PictureShape(cfg.shape, (rng.randint(1, 5),))
            sigma = rng.sample(range(1, ps.N + 1), ps.N)
            for mults, sub_sigma in ps.plan(sigma).components:
                sub = ps.part(mults)
                plan = sub.plan(sub_sigma)
                assert plan.terms == tuple(sorted(plan.terms)), (sub, sub_sigma)
                shuffled = copy.copy(plan)
                shuffled.terms = tuple(rng.sample(plan.terms, len(plan.terms)))
                reordered += shuffled.terms != plan.terms
                table = plan.table
                for _ in range(10):
                    I = tuple(rng.randint(1, dim) for _ in range(sub.N))
                    d = [plan.degrees[r - 1] for r in I]
                    summed = sum(c * table[d[a]][d[b]] for a, b, c in plan.terms) % plan.m
                    assert coefficient_exponent(plan, I) == summed, (sub, sub_sigma, I)
                    assert coefficient_exponent(shuffled, I) == summed, (sub, sub_sigma, I)
    assert reordered > 20


def hook_count(r, k, l):
    """The number of partitions lambda of r inside the (k,l)-hook,
    lambda_{k+1} <= l, counted part by part: rows past the k-th take at
    most l."""
    def count(rest, most, row):
        if not rest:
            return 1
        cap = most if row <= k else min(most, l)
        return sum(count(rest - p, p, row + 1) for p in range(1, min(rest, cap) + 1))
    return count(r, r, 1)


def test_hook_count_matches_brute_force_and_the_classical_dimension(cfgs):
    """hook_count against the cycle types of every permutation of S_r,
    and, on the trivial grading (two even basis vectors), against the
    classical invariant dimension of one 2x2 matrix."""
    for r in range(1, 7):
        types = {tuple(sorted(map(len, perms.cycles(s)), reverse=True))
                 for s in all_perms(r)}
        for k, l in itertools.product(range(4), repeat=2):
            brute = sum(len(lam) <= k or lam[k] <= l for lam in types)
            assert hook_count(r, k, l) == brute, (r, k, l)
    trivial = cfgs["trivial"]
    for r in range(1, 5):
        assert classical_invariant_dim(trivial.shape, r) == hook_count(r, 2, 0), r


def rank_mod_p(polys, m):
    """Rank of polynomials with coefficients in Q(zeta_m) over F_p, p the
    least prime = 1 (mod m) above 2^30: zeta_m goes to an element w of
    order m in F_p, and each coefficient's numerators are read over the
    inverse of its den."""
    p = 2 ** 30 + 1
    while (p - 1) % m or not all(p % q for q in range(2, math.isqrt(p) + 1)):
        p += 1
    w = next(w for w in (pow(a, (p - 1) // m, p) for a in range(2, p))
             if len({pow(w, i, p) for i in range(m)}) == m)
    pivots = {}
    for poly in polys:
        row = {}
        for mono, c in poly.terms.items():
            z = pow(w, m // c.order, p)
            row[mono] = sum(x * pow(z, i, p) for i, x in enumerate(c.num)) \
                * pow(c.den, -1, p) % p
        row = {key: x for key, x in row.items() if x}
        while row:
            lead = min(row)
            if lead not in pivots:
                pivots[lead] = row
                break
            f = row[lead] * pow(pivots[lead][lead], -1, p)
            for key, x in pivots[lead].items():
                row[key] = (row.get(key, 0) - f * x) % p
            row = {key: x for key, x in row.items() if x}
    return len(pivots)


# Ranks over r = 1..6 of the phi_sigma on one matrix, per builtin.
ONE_MATRIX_RANKS = {"super": [1, 2, 3, 4, 5, 6], "trivial": [1, 2, 2, 3, 3, 4],
                    "z2z2": [1, 2, 3, 5, 7, 10], "z3z3": [1, 2, 3, 4, 5, 7],
                    "z4": [1, 2, 3, 5, 7, 10]}


def test_one_matrix_pictures_span_the_hook_partitions(cfgs):
    """Graded spanning on one matrix: for r = 1..6 the phi_sigma, one
    sigma per cycle type, have rank the number of partitions of r inside
    the (k,l)-hook, k and l the numbers of even and odd basis vectors (the
    centre of the image of Q[S_r] in End(V^{ox r}))."""
    ranks = {}
    for name, cfg in cfgs.items():
        odd = sum(cfg.chi.parity_bit(d) for d in cfg.space.degrees)
        k = cfg.space.dim - odd
        for r in range(1, 7):
            ps = PictureShape(cfg.shape, (r,))
            polys = [build_phi(ps, sigma).poly for _, sigma in perms.cycle_type_reps(r)]
            rank = rank_mod_p(polys, cfg.chi.m)
            assert rank == hook_count(r, k, odd), (name, r)
            ranks.setdefault(name, []).append(rank)
    assert ranks == ONE_MATRIX_RANKS


SIGN_RULE_FACTORS = ([6, 6], [3, 6], [12, 12])


@st.composite
def sign_rule_configs(draw):
    """Config with a random valid bicharacter of order m = 6 or 12, where
    deg Phi_m < m - 1, on a group from SIGN_RULE_FACTORS, and up to three
    basis degrees listed in the fixed order of G."""
    d1, d2 = factors = draw(st.sampled_from(SIGN_RULE_FACTORS))
    m = Bicharacter(factors, [[0, 0], [0, 0]]).m

    def diagonal(d):
        # eps(g, g) must be a sign, and B_ii defined mod d.
        return [v for v in range(m) if 2 * v % m == 0 and d * v % m == 0]

    off = draw(st.sampled_from([x for x in range(m) if d1 * x % m == 0 and d2 * x % m == 0]))
    expmat = [[draw(st.sampled_from(diagonal(d1))), off],
              [-off, draw(st.sampled_from(diagonal(d2)))]]
    order = Bicharacter(factors, expmat).element_order()
    picks = draw(st.lists(st.integers(0, len(order) - 1), min_size=1, max_size=3))
    degrees = [order[i] for i in sorted(picks)]
    return parse_config_text(
        "group.factors = %r\nbicharacter.expmat = %r\nspace.degrees = %r\n"
        "shape.pairs = [(1, 1)]\n" % (factors, expmat, degrees),
        name="random-sign-rule")


@given(cfg=sign_rule_configs())
@settings(max_examples=8, deadline=None)
def test_random_sign_rules(cfg):
    chi = cfg.chi
    assert chi.m in (6, 12)
    for e in range(-chi.m, 2 * chi.m):
        assert chi.root(e) == CycloRational.root(chi.m, e)
    table = chi.eps_table
    for g in chi.group.elements():
        for h in chi.group.elements():
            assert table[chi.position(g)][chi.position(h)] == chi.eps_exponent(g, h)
    _assert_plan_matches_textbook(PictureShape(cfg.shape, (3,)))
    _assert_phi_matches_textbook(PictureShape(cfg.shape, (3,)), cfg.name)
    # a 4-cycle and (12)(34): components with rotations
    _assert_phi_matches_textbook(PictureShape(cfg.shape, (4,)), cfg.name,
                                 [(2, 3, 4, 1), (2, 1, 4, 3)])
    mixed = MixedShape(cfg.space, [(1, 1), (2, 2)])
    _assert_plan_matches_textbook(PictureShape(mixed, (1, 1)))
    rpt = suite("path-equality", cfg, max_n=2)
    assert rpt.ok, rpt.render()
