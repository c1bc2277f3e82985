"""Truncated sign-commutative coefficient algebras and normal ordering."""

import gc
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from colorinv.cyclo import CycloRational
from colorinv.epsalgebra import (
    EpsAlgebra,
    EpsElement,
    eps_product,
    eps_sums,
    filtration_level,
    filtration_member,
    hop,
    normal_order,
    sorted_words,
    words_of_degree,
)
from colorinv.sampling import random_eps_of_degree, standard_test_algebra
from colorinv.sympoly import MixedShape, SymPolynomial, enumerate_sym_basis, sym_normalize
from colorinv.tensors import DUAL, PRIMAL, GradedOperator, GradedSpace, GradedTensor


def brute_normal(alg, word):
    """Sort a word by adjacent swaps, one eps factor per swap; None if the
    word dies (repeated odd letter)."""
    chi = alg.chi
    c = CycloRational.one()
    w = list(word)
    swapped = True
    while swapped:
        swapped = False
        for i in range(len(w) - 1):
            if w[i] > w[i + 1]:
                c = c * chi.eps(alg.degree(w[i]), alg.degree(w[i + 1]))
                w[i], w[i + 1] = w[i + 1], w[i]
                swapped = True
    for i in range(len(w) - 1):
        if w[i] == w[i + 1] and chi.parity_bit(alg.degree(w[i])):
            return None
    return c, tuple(w)


def chain_product(alg, word):
    out = alg.one()
    for i in word:
        out = out * alg.gen(i)
    return out


def test_normal_order_matches_brute_force(algebras):
    for name in ("super", "z4"):
        alg = algebras[name]
        gens = range(1, alg.ngens + 1)
        for length in (1, 2, 3):
            for word in itertools.product(gens, repeat=length):
                expected = brute_normal(alg, word)
                got = normal_order(alg, word)
                if got is not None:
                    got = alg.chi.root(got[0]), got[1]
                assert got == expected, (name, word)
                elem = chain_product(alg, word)
                if expected is None:
                    assert elem.is_zero()
                else:
                    c, w = expected
                    assert elem == alg.monomial(w, c)


def test_multiplication_associative_seeded(algebras):
    for name in ("super", "z3z3"):
        alg = algebras[name]
        rng = random.Random("assoc/%s" % name)
        els = [alg.chi.position(g) for g in alg.chi.group.elements()]
        for _ in range(12):
            a = random_eps_of_degree(alg, rng.choice(els), rng)
            b = random_eps_of_degree(alg, rng.choice(els), rng)
            c = random_eps_of_degree(alg, rng.choice(els), rng)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c


def test_generator_commutation_exhaustive(algebras):
    for alg in algebras.values():
        chi = alg.chi
        for i in range(1, alg.ngens + 1):
            for j in range(1, alg.ngens + 1):
                lhs = alg.gen(i) * alg.gen(j)
                rhs = (alg.gen(j) * alg.gen(i)).scale(
                    chi.eps(alg.degree(i), alg.degree(j)))
                assert lhs == rhs


def test_odd_squares_vanish(algebras):
    for alg in algebras.values():
        for i in range(1, alg.ngens + 1):
            sq = alg.gen(i) * alg.gen(i)
            if alg.chi.parity_bit(alg.degree(i)):
                assert sq.is_zero()
            else:
                assert not sq.is_zero()


def test_truncation_kills_long_words(algebras):
    alg = algebras["trivial"]
    elem = alg.one()
    for _ in range(alg.truncation):
        elem = elem * alg.gen(1)
    assert not elem.is_zero()
    assert (elem * alg.gen(1)).is_zero()


def test_hop_round_trip_and_identity(algebras):
    for name in ("super", "z2z2"):
        alg = algebras[name]
        rng = random.Random("hop/%s" % name)
        els = [alg.chi.position(g) for g in alg.chi.group.elements()]
        for _ in range(10):
            d = rng.choice(els)
            e = random_eps_of_degree(alg, rng.choice(els), rng)
            assert hop(hop(e, d), d, invert=True) == e
            assert hop(e, 0) == e


def test_hop_scales_homogeneous_elements(algebras):
    alg = algebras["super"]
    chi = alg.chi
    for h in chi.group.elements():
        for d in chi.group.elements():
            rng = random.Random("hopscale/%s/%s" % (h, d))
            h_at, d_at = chi.position(h), chi.position(d)
            e = random_eps_of_degree(alg, h_at, rng)
            assert hop(e, d_at) == e.scale(chi.eps(h_at, d_at))


def test_words_of_degree_brute_force(algebras):
    for name in ("super", "z4"):
        alg = algebras[name]
        chi = alg.chi
        by_degree = {}
        for length in range(0, 3):
            for word in itertools.combinations_with_replacement(
                    range(1, alg.ngens + 1), length):
                if any(word[i] == word[i + 1] and chi.parity_bit(alg.degree(word[i]))
                       for i in range(len(word) - 1)):
                    continue
                d = chi.degree_sum([alg.degree(i) for i in word])
                by_degree.setdefault(d, []).append(word)
        for d in range(chi.group.order):
            got = words_of_degree(alg, d, max_len=2)
            assert sorted(got) == sorted(by_degree.get(d, []))
            for w in got:
                assert alg.word_degree(w) == d


def test_words_of_degree_rejects_a_non_position(algebras):
    """A degree is a position in 0..|G|-1; anything else raises instead of
    giving no words, so random_eps_of_degree cannot draw zero unnoticed."""
    for name in ("super", "z2z2"):
        alg = algebras[name]
        order = alg.chi.group.order
        for bad in (alg.chi.element_order()[1], order, -1):
            with pytest.raises(ValueError, match="not a position"):
                words_of_degree(alg, bad)
            with pytest.raises(ValueError, match="not a position"):
                random_eps_of_degree(alg, bad, random.Random(0))
        assert words_of_degree(alg, order - 1, 2)


def test_homogeneity_tracking(algebras):
    alg = algebras["z2z2"]
    rng = random.Random("homog")
    chi = alg.chi
    for g in chi.group.elements():
        d = chi.position(g)
        e = random_eps_of_degree(alg, d, rng)
        if e.is_zero():
            continue
        assert e.is_homogeneous_of(d)
        assert e.g_degree() == d
    a = random_eps_of_degree(alg, chi.position((0, 1)), rng)
    b = random_eps_of_degree(alg, chi.position((1, 0)), rng)
    if not (a * b).is_zero():
        assert (a * b).g_degree() == chi.position((1, 1))


def test_g_degree_is_the_one_degree_of_a_sum(cfgs, algebras):
    """EpsElement, SymPolynomial and GradedOperator share one reading of a
    sum's G-degree: zero has the identity, a homogeneous sum its degree,
    a sum of two degrees None, and an operator with one inhomogeneous
    entry None, whatever degree its other entries ask for."""
    cfg, alg = cfgs["z4"], algebras["z4"]
    # the standard algebra has two generators per degree: x1, x2 of the
    # identity, x3, x4 of the next position
    x1, x3, x4 = alg.gen(1), alg.gen(3), alg.gen(4)
    d = alg.degree(3)
    assert d != 0 and alg.degree(4) == d
    assert alg.zero().g_degree() == 0
    assert (x3 + x4).g_degree() == d
    assert (x1 + x3).g_degree() is None

    shape = cfg.shape
    degree = shape.numbering().degree
    even = degree.index(0)
    graded = next(k for k, g in enumerate(degree) if g)
    assert SymPolynomial.zero(shape).g_degree() == 0
    assert SymPolynomial.from_word(shape, (graded,), 2).g_degree() == degree[graded]
    mixed = SymPolynomial.from_word(shape, (even,)) + SymPolynomial.from_word(shape, (graded,))
    assert mixed.g_degree() is None

    space = cfg.space
    unit = GradedOperator.matrix_unit
    assert GradedOperator.zero(space, alg).g_degree() == 0
    # E_11 x3 and E_22 x4 both raise the degree by that of x3
    shifted = unit(space, alg, 1, 1, x3) + unit(space, alg, 2, 2, x4)
    assert shifted.g_degree() == d
    assert (unit(space, alg, 1, 1) + unit(space, alg, 2, 2, x3)).g_degree() is None
    assert unit(space, alg, 1, 1, x1 + x3).g_degree() is None
    assert (shifted + unit(space, alg, 3, 3, x1 + x3)).g_degree() is None


def test_constant_and_proper_parts(algebras):
    alg = algebras["super"]
    e = alg.scalar(CycloRational.from_rational(3)) + alg.gen(1) * alg.gen(3)
    assert e.constant_part() == CycloRational.from_rational(3)
    assert e.proper_part() == alg.gen(1) * alg.gen(3)
    assert e.proper_part() + alg.scalar(e.constant_part()) == e


def test_filtration(algebras):
    alg = algebras["super"]
    assert filtration_level(alg.one()) == 0
    g3 = alg.gen(3)
    assert filtration_level(g3) == 3
    assert filtration_member(g3, 3)
    assert not filtration_member(g3, 2)
    prod = alg.gen(2) * alg.gen(4)
    assert filtration_level(prod) == 4
    assert filtration_member(prod, 4)


def test_term_core_contract(cfgs, algebras):
    """The sparse core shared by the four term-dict classes: sums across
    places raise and equality across places is False; scalars enter +, -
    and == only where each class takes them; a sum that cancels drops the
    word; an operator's cached degree does not leak into a sum."""
    cfg = cfgs["super"]
    alg = algebras["super"]
    other_alg = EpsAlgebra(alg.chi, [alg.degree(i) for i in range(1, alg.ngens + 1)],
                           alg.truncation - 1)
    space = cfg.space
    v = cfg.shape.var_id(cfg.shape.numbering().variables[0])
    other_shape = MixedShape(space, [(1, 1), (1, 1)])
    other_space = GradedSpace(space.chi, space.degrees[:1])

    e, f = alg.gen(1), alg.gen(2)
    p = SymPolynomial.from_word(cfg.shape, (v,))
    q = SymPolynomial.from_word(cfg.shape, (v, v))
    t = GradedTensor.basis(space, alg, (PRIMAL, DUAL), (1, 2), e)
    u = GradedTensor.basis(space, alg, (PRIMAL, DUAL), (2, 2), f)
    A = GradedOperator.matrix_unit(space, alg, 1, 2)
    B = GradedOperator.identity(space, alg)
    pairs = [
        (e, f, EpsElement(other_alg, {(1,): CycloRational.one()})),
        (p, q, SymPolynomial.from_word(other_shape, (v,))),
        (t, u, GradedTensor.basis(space, alg, (DUAL, PRIMAL), (1, 2), e)),
        (A, B, GradedOperator.identity(other_space, alg)),
    ]
    for x, y, elsewhere in pairs:
        with pytest.raises(ValueError):
            x + elsewhere
        with pytest.raises(ValueError):
            x - elsewhere
        assert x != elsewhere and not x == elsewhere
        assert (x + y) - x == y
        assert (x - x).terms == {} and (x + (-x)).is_zero() and not (x - x)
        assert set((x + y - x).terms) == set(y.terms)
        assert x.scale(0).is_zero() and x.scale(Fraction(2)) == x + x
        assert -(-x) == x and bool(x)

    one = alg.one()
    for c in (1, Fraction(1), CycloRational.one()):
        assert e + c == c + e == e + one
        assert e - c == e - one and c - e == one - e
        assert one == c and c == one
        assert p + c - c == p and (p + c).terms[()] == CycloRational.one()
        assert (p - c).terms[()] == -CycloRational.one()
        assert SymPolynomial.from_word(cfg.shape, ()) != c
        for x in (t, A):
            with pytest.raises(TypeError):
                x + c
            with pytest.raises(TypeError):
                c + x
            with pytest.raises(TypeError):
                x - c
            assert x != c

    alpha = A.g_degree()
    assert alpha != B.g_degree()
    assert (A + B).g_degree() is None
    assert (-A).g_degree() == alpha and A.scale(2).g_degree() == alpha
    assert (A - A).g_degree() == 0


def test_words_of_degree_order_is_pinned(algebras):
    """Seeded draws index into these lists, so their order is part of the
    output: the brute-force words of each degree, in sorted() order."""
    for name, alg in algebras.items():
        chi = alg.chi
        by_degree = {}
        for length in range(0, 3):
            for word in itertools.product(range(1, alg.ngens + 1), repeat=length):
                if any(word[i] > word[i + 1]
                       or (word[i] == word[i + 1] and chi.parity_bit(alg.degree(word[i])))
                       for i in range(len(word) - 1)):
                    continue
                d = chi.degree_sum([alg.degree(i) for i in word])
                by_degree.setdefault(d, []).append(word)
        for d in range(chi.group.order):
            assert words_of_degree(alg, d, 2) == sorted(by_degree.get(d, [])), (name, d)


def test_sym_basis_order_is_pinned(cfgs):
    """enumerate_sym_basis lists monomials in the order of their id
    tuples, with and without a multidegree, as seeded draws expect."""
    cases = [(cfg.shape, 3) for cfg in cfgs.values()]
    cases.append((MixedShape(cfgs["z4"].space, [(2, 1), (1, 2)]), 2))
    for shape, top in cases:
        vs = shape.numbering().variables
        par = shape.numbering().parity
        for r in range(0, top + 1):
            brute = []
            for ids in itertools.product(range(len(vs)), repeat=r):
                if any(a > b or (a == b and par[a]) for a, b in zip(ids, ids[1:])):
                    continue
                brute.append(ids)
            brute.sort()
            assert enumerate_sym_basis(shape, r) == brute, (shape, r)
            for M in itertools.product(range(r + 1), repeat=shape.s):
                if sum(M) != r:
                    continue
                want = [ids for ids in brute
                        if tuple(sum(1 for k in ids if vs[k].summand == i)
                                 for i in range(1, shape.s + 1)) == M]
                assert enumerate_sym_basis(shape, r, multidegree=M) == want, (shape, r, M)


# ------------------------------------- the eps product against its chain

# Per root order m of a builtin, a coefficient order that does not divide m.
FOREIGN_ORDER = {2: 3, 3: 4, 4: 3}


def chain_of_products(left, right, normalize, m, bound):
    """The product of two {word: coefficient} dicts pair by pair:
    c1 * c2 * root(m, e) per pair of words no longer than bound together,
    added up per normal word with +, zero sums dropped."""
    out = {}
    for w1, c1 in left.items():
        for w2, c2 in right.items():
            res = normalize(w1 + w2)
            if len(w1) + len(w2) > bound or res is None:
                continue
            e, w = res
            c = c1 * c2 * CycloRational.root(m, e)
            out[w] = out[w] + c if w in out else c
    return {w: c for w, c in out.items() if c}


@st.composite
def coefficients(draw, m):
    """Orders 1, m and one not dividing m; denominators up to 6."""
    order = draw(st.sampled_from((1, m, FOREIGN_ORDER[m])))
    den = draw(st.sampled_from((1, 2, 3, 6)))
    nums = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3))
    return CycloRational(order, [Fraction(k, den) for k in nums])


@st.composite
def product_cases(draw, cfgs):
    """(kind, m, x, y, normalize, bound, cancelled word or None).  Terms
    are words of up to two ids from a pool of two to four, with odd ids
    where the builtin has them, so several pairs often land on one word;
    Lambda_eps is truncated at 3, so products of two two-letter words
    vanish.  The "cancel" branch is {u: a, v: k a} * {v: c, u: d} with
    d = -c * zeta^(-e) / k, e the swap exponent of v u, so the word u v
    gets a c - a c = 0 from two pairs whose denominators differ when k is
    not 1."""
    cfg = cfgs[draw(st.sampled_from(("super", "z2z2", "z3z3", "z4")))]
    m = cfg.chi.m
    if draw(st.booleans()):
        alg = standard_test_algebra(cfg.chi, 3)
        kind, ids, bound = "eps", range(1, alg.ngens + 1), alg.truncation
        make, zero = alg.monomial, alg.zero()

        def normalize(w):
            return normal_order(alg, w)
    else:
        shape = cfg.shape
        kind, ids, bound = "sym", range(len(shape.numbering().variables)), float("inf")
        zero = SymPolynomial.zero(shape)

        def make(w, c):
            return SymPolynomial.from_word(shape, w, c)

        def normalize(w):
            return sym_normalize(shape, w)
    if draw(st.sampled_from(("random", "cancel"))) == "cancel":
        p, q = sorted(draw(st.lists(st.sampled_from(ids), min_size=2, max_size=2, unique=True)))
        a, c = draw(coefficients(m)), draw(coefficients(m))
        k = draw(st.sampled_from((1, 2, -3, Fraction(1, 2), Fraction(-2, 3))))
        e = normalize((q, p))[0]
        x = make((p,), a) + make((q,), a * k)
        y = make((q,), c) + make((p,), (-c).times_root(m, -e) * (1 / Fraction(k)))
        return kind, m, x, y, normalize, bound, (p, q) if a and c else None
    pool = draw(st.lists(st.sampled_from(ids), min_size=2, max_size=4, unique=True))
    sums = []
    for _ in range(2):
        elem = zero
        for _ in range(draw(st.integers(0, 4))):
            word = tuple(draw(st.lists(st.sampled_from(pool), max_size=2)))
            elem = elem + make(word, draw(coefficients(m)))
        sums.append(elem)
    return (kind, m) + tuple(sums) + (normalize, bound, None)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_eps_product_matches_the_chain_of_products(cfgs, data):
    """EpsElement and SymPolynomial products equal the pair-by-pair chain
    in value and in each coefficient's order, truncation and cancellation
    included."""
    kind, m, x, y, normalize, bound, cancelled = data.draw(product_cases(cfgs))
    want = chain_of_products(x.terms, y.terms, normalize, m, bound)
    got = (x * y).terms
    assert got.keys() == want.keys(), kind
    for w, c in want.items():
        assert (got[w].order, got[w].num, got[w].den) == (c.order, c.num, c.den), (kind, w)
    assert cancelled not in got


# ----------------------------------- sums of eps products against their sum


@st.composite
def sums_of_products(draw, cfgs):
    """(alg, {key: [(x, y), ...]}) over EpsElements of a builtin's standard
    algebra truncated at 3: one to three keys, each with one to four pairs
    of sums of up to three words of up to two generators, coefficients of
    orders 1, m and one not dividing m.  A key may repeat one of its pairs
    negated, so that its pairs cancel in part or in full."""
    cfg = cfgs[draw(st.sampled_from(("super", "z2z2", "z3z3", "z4")))]
    alg = standard_test_algebra(cfg.chi, 3)
    m = cfg.chi.m
    words = st.sampled_from([w for d in range(cfg.chi.group.order)
                             for w in words_of_degree(alg, d, 2)])

    def element():
        elem = alg.zero()
        for _ in range(draw(st.integers(0, 3))):
            elem = elem + EpsElement(alg, {draw(words): draw(coefficients(m))})
        return elem

    sums = {}
    for key in range(draw(st.integers(1, 3))):
        pairs = [(element(), element()) for _ in range(draw(st.integers(1, 4)))]
        if draw(st.booleans()):
            x, y = pairs[draw(st.integers(0, len(pairs) - 1))]
            pairs.append((x, -y))
        sums[key] = pairs
    return alg, sums


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_eps_sums_match_the_sum_of_products(cfgs, data):
    """eps_sums, and eps_product on several pairs, equal the EpsElement sum
    of the products x * y in value, a key whose sum is zero left out; in
    `order` too when every operand order divides m."""
    alg, sums = data.draw(sums_of_products(cfgs))
    m = alg.chi.m
    got = eps_sums(alg, {key: [(x.terms, y.terms) for x, y in pairs]
                         for key, pairs in sums.items()})
    for key, pairs in sums.items():
        want = alg.zero()
        for x, y in pairs:
            want = want + x * y
        terms = eps_product([(x.terms, y.terms) for x, y in pairs],
                            normal_order, alg, m, alg.truncation)
        assert (got[key].terms if key in got else {}) == terms
        assert terms == want.terms, key
        if all(m % c.order == 0 for x, y in pairs for c in (*x.terms.values(),
                                                            *y.terms.values())):
            assert {w: (c.order, c.num, c.den) for w, c in terms.items()} == \
                {w: (c.order, c.num, c.den) for w, c in want.terms.items()}, key
    assert all(got.values())


def test_eps_product_order_is_the_lcm_of_the_operands_meeting_at_a_word(cfgs):
    """On super (m = 2), x_1 with coefficient 1 at order 3 meets itself
    negated and then a plain x_1.  The running sum of products drops the
    cancelled pair and its order with it, leaving order 2; the summed
    product keeps every order that met at the word, lcm(2, 3) = 6.  The
    value is 1 both ways."""
    alg = standard_test_algebra(cfgs["super"].chi, 3)
    one = alg.one()
    third = EpsElement(alg, {(1,): CycloRational(3, [1])})
    pairs = [(third, one), (-third, one), (alg.gen(1), one)]
    fused = eps_product([(x.terms, y.terms) for x, y in pairs], normal_order, alg,
                        alg.chi.m, alg.truncation)
    chained = alg.zero()
    for x, y in pairs:
        chained = chained + x * y
    assert fused == chained.terms == {(1,): CycloRational.one()}
    assert (fused[(1,)].order, chained.terms[(1,)].order) == (6, 2)


def recursive_sorted_words(ids, parity, max_len):
    """sorted_words as a recursive walk: each word, then each extension by
    an id from the last one on (past it when that id is odd)."""
    ids = tuple(ids)
    out = []

    def extend(word, start):
        out.append(word)
        if len(word) < max_len:
            for k in range(start, len(ids)):
                extend(word + (ids[k],), k + parity[ids[k]])

    extend((), 0)
    return out


@given(ids=st.lists(st.integers(0, 9), unique=True, max_size=6).map(sorted),
       parity=st.lists(st.integers(0, 1), min_size=10, max_size=10),
       max_len=st.integers(0, 4))
@settings(max_examples=80, deadline=None)
def test_sorted_words_matches_the_recursive_walk(ids, parity, max_len):
    assert sorted_words(ids, parity, max_len) == recursive_sorted_words(ids, parity, max_len)


def test_sorted_words_leaves_no_cyclic_garbage():
    """The word list is freed by reference counting alone: with the cyclic
    collector off, a call leaves nothing for it to find."""
    ids, parity = range(1, 9), [0, 0, 1, 0, 1, 0, 1, 0, 1]
    gc.disable()
    try:
        gc.collect()
        words = sorted_words(ids, parity, 3)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert words == recursive_sorted_words(ids, parity, 3)
