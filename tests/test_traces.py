"""Restitution, staircase certificates, and trace monomials."""

import collections
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from colorinv import sampling
from colorinv.cyclo import CycloRational
from colorinv.epsalgebra import EpsElement, add_term, eps_sums, words_of_degree
from colorinv.linalg import inverse_int
from colorinv.permutations import all_perms
from colorinv.pictures import PictureShape, build_phi
from colorinv.sampling import (
    random_eps_of_degree,
    random_rational,
    random_sym_polynomial,
    random_w0_point,
    standard_test_algebra,
)
from colorinv.sympoly import MixedShape, SymPolynomial, SymVariable
from colorinv.tensors import (
    PRIMAL,
    GradedOperator,
    GradedTensor,
    invert_operator,
    random_gl_epsilon,
)
from colorinv.traces import (
    W0Point,
    end_compose,
    end_to_operator,
    end_trace,
    identity_end,
    injectivity_probe,
    operator_to_end,
    position_assignment,
    restitute,
    restitute_word,
    staircase_point,
    trace_match,
    trace_monomial,
    transposition_sign_check,
    u11_variance,
)

SUPERTRACE_OF_IDENTITY = {
    "trivial": Fraction(2),
    "super": Fraction(0),
    "z4": Fraction(1),
    "z2z2": Fraction(-1),
    "z3z3": Fraction(3),
}


def test_restitute_constants(cfgs, algebras):
    cfg, alg = cfgs["super"], algebras["super"]
    rng = random.Random("const")
    u = random_w0_point(cfg.shape, alg, rng)
    one = SymPolynomial.from_word(cfg.shape, ())
    assert restitute(one, u) == alg.one()
    zero = SymPolynomial(cfg.shape, {})
    assert restitute(zero, u).is_zero()


def test_restitute_is_linear(cfgs, algebras):
    cfg, alg = cfgs["z2z2"], algebras["z2z2"]
    rng = random.Random("linear")
    for _ in range(5):
        u = random_w0_point(cfg.shape, alg, rng)
        p = random_sym_polynomial(cfg.shape, 2, rng)
        parts = {}
        for word, c in p.terms.items():
            parts.setdefault(len(word), SymPolynomial(cfg.shape, {}))
            parts[len(word)] = parts[len(word)] + \
                SymPolynomial(cfg.shape, {word: c})
        c = CycloRational.from_rational(Fraction(3, 2))
        for comp in parts.values():
            assert restitute(comp.scale(c), u) == restitute(comp, u).scale(c)


def test_restitute_rejects_mixed_degrees(cfgs, algebras):
    cfg = cfgs["trivial"]
    v = cfg.shape.var_id(SymVariable(1, (1,), (1,)))
    mixed = SymPolynomial.from_word(cfg.shape, (v,)) + \
        SymPolynomial.from_word(cfg.shape, (v, v))
    u = random_w0_point(cfg.shape, algebras["trivial"], random.Random(1))
    with pytest.raises(ValueError):
        restitute(mixed, u)


def test_restitute_refuses_a_polynomial_over_another_shape(cfgs, algebras):
    """Checked before any work: over another space a monomial names other
    variables, and a summand the point lacks would be read past its end.
    restitute_word refuses a word over another shape the same way, since
    the point keeps its products by its own shape's variable ids."""
    z2z2 = cfgs["z2z2"]
    u = random_w0_point(z2z2.shape, algebras["z2z2"], random.Random("foreign"))
    phi = build_phi(PictureShape(cfgs["super"].shape, (2,)), (2, 1)).poly
    wide = MixedShape(z2z2.space, [(1, 1), (1, 1)])
    second = SymPolynomial.from_word(wide, (wide.var_id(SymVariable(2, (1,), (1,))),))
    for poly in (phi, second):
        with pytest.raises(ValueError, match="^polynomial and point live over "
                                             "different shapes$"):
            restitute(poly, u)
        with pytest.raises(ValueError, match="^word and point live over "
                                             "different shapes$"):
            restitute_word(poly.shape, next(iter(poly.terms)), u)


def exact_terms(elem):
    """Each coefficient as (order, num, den): equal values kept at
    different orders print differently, so they must not compare equal."""
    return {w: (c.order, c.num, c.den) for w, c in elem.terms.items()}


def monomial_sum_eps_of_degree(alg, d, rng, max_len=2, terms=2):
    """random_eps_of_degree written as a running sum of alg.monomial terms."""
    pool = words_of_degree(alg, d, max_len)
    out = alg.zero()
    if not pool:
        return out
    for _ in range(terms):
        w = pool[rng.randrange(len(pool))]
        c = random_rational(rng)
        if c:
            out = out + alg.monomial(w, c)
    if out.is_zero():
        out = alg.monomial(pool[rng.randrange(len(pool))], 1)
    return out


def test_random_eps_of_degree_pins_monomial_sum(cfgs, algebras):
    """Same draws, same value, same coefficient orders and the same rng
    state after the call; many draws per word exercise cancellation."""
    for name in sorted(cfgs):
        alg = algebras[name]
        for d in range(alg.chi.group.order):
            for max_len, terms in ((1, 6), (2, 2), (3, 4)):
                for seed in range(3):
                    a = random.Random("eps/%s/%d" % (name, seed))
                    b = random.Random("eps/%s/%d" % (name, seed))
                    got = random_eps_of_degree(alg, d, a, max_len, terms)
                    want = monomial_sum_eps_of_degree(alg, d, b, max_len, terms)
                    assert exact_terms(got) == exact_terms(want), (name, d)
                    assert a.getstate() == b.getstate(), (name, d)


def two_step_eps_of_degree(alg, d, rng, max_len=2, terms=2):
    """random_eps_of_degree with each coefficient made as a rational and
    then rotated to the root order, summed into a dict that the EpsElement
    constructor filters once more."""
    pool = words_of_degree(alg, d, max_len)
    if not pool:
        return alg.zero()
    out = {}
    for _ in range(terms):
        w = pool[rng.randrange(len(pool))]
        num = rng.randint(-4, 4)
        c = CycloRational.from_rational(num, rng.choice([1, 1, 2, 3]))
        if c:
            add_term(out, w, c.times_root(alg.chi.m, 0))
    if not out:
        return alg.monomial(pool[rng.randrange(len(pool))], 1)
    return EpsElement(alg, out)


def repooled_gl_epsilon(space, alg, rng):
    """random_gl_epsilon listing the pool of words of an entry's degree
    again at every entry it fills."""
    add, neg = space.chi.sum_table, space.chi.neg_table
    n = space.dim
    while True:
        drawn = {(a, b): rng.randint(-3, 3)
                 for a in range(1, n + 1) for b in range(1, n + 1)
                 if space.degree(a) == space.degree(b)}
        if inverse_int([[drawn.get((a, b), 0) for b in range(1, n + 1)]
                        for a in range(1, n + 1)]) is not None:
            break
    terms = {ab: alg.scalar(k) for ab, k in drawn.items() if k}
    maxlen = min(alg.truncation, 2)
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            if rng.random() > 0.6:
                continue
            d = add[space.degree(b)][neg[space.degree(a)]]
            pool = [w for w in words_of_degree(alg, d, maxlen) if w]
            if not pool:
                continue
            w = pool[rng.randrange(len(pool))]
            coeff = rng.choice([-2, -1, 1, 2])
            add_term(terms, (a, b), alg.monomial(w, coeff))
    T = GradedOperator(space, alg, terms)
    return T, invert_operator(T)


def exact_entries(x):
    """{key: exact_terms(entry)} for a tensor or an operator."""
    return {k: exact_terms(lam) for k, lam in x.terms.items()}


def test_draws_match_the_two_step_referees(cfgs, monkeypatch):
    """On every builtin at seeds 0-29, random_w0_point and random_gl_epsilon
    return what the referees return, each coefficient's order, numerators
    and denominator included, and leave the rng in the same state."""
    for name in sorted(cfgs):
        cfg = cfgs[name]
        alg = standard_test_algebra(cfg.chi, truncation=3)
        for seed in range(30):
            got, want = random.Random(seed), random.Random(seed)
            point = random_w0_point(cfg.shape, alg, got)
            with monkeypatch.context() as patched:
                patched.setattr(sampling, "random_eps_of_degree", two_step_eps_of_degree)
                ref = random_w0_point(cfg.shape, alg, want)
            assert [exact_entries(u) for u in point.parts] == \
                [exact_entries(u) for u in ref.parts], (name, seed)
            assert got.getstate() == want.getstate(), (name, seed)
            ops = random_gl_epsilon(cfg.space, alg, got)
            ref_ops = repooled_gl_epsilon(cfg.space, alg, want)
            assert [exact_entries(x) for x in ops] == \
                [exact_entries(x) for x in ref_ops], (name, seed)
            assert got.getstate() == want.getstate(), (name, seed)


def one_seeded_restitute(poly, point):
    """restitute as a running total of products each seeded with
    alg.one()."""
    alg = point.alg
    vs = poly.shape.numbering().variables
    total = alg.zero()
    for mono, c in poly.terms.items():
        acc = alg.one()
        for v in (vs[k] for k in mono):
            lam = point.part(v.summand).terms.get(v.word())
            acc = alg.zero() if lam is None else acc * lam
        if acc:
            total = total + acc.scale(c)
    return total


def rational_copy(point):
    """The point with every coefficient rebuilt at order 1; an irrational
    coefficient raises ValueError."""
    def rational(c):
        q, *rest = c.coeffs
        if any(rest):
            raise ValueError("%s is not rational" % c)
        return CycloRational.from_rational(q)
    parts = [GradedTensor(u.space, u.alg, u.variance,
                          {idx: EpsElement(u.alg, {
                              w: rational(c) for w, c in lam.terms.items()})
                           for idx, lam in u.terms.items()})
             for u in point.parts]
    return W0Point(point.shape, point.alg, parts)


def test_restitute_pins_one_seeded_products(cfgs):
    """On phi_sigma at N <= 3 and on random polynomials, at points whose
    coefficients have the root order and at order 1; rational coefficients
    on degree-one monomials keep the first factor's order visible."""
    for name in sorted(cfgs):
        cfg = cfgs[name]
        alg = standard_test_algebra(cfg.chi, truncation=3)
        rng = random.Random("restitute/%s" % name)
        u = random_w0_point(cfg.shape, alg, rng, max_len=1)
        points = [u, rational_copy(u), random_w0_point(cfg.shape, alg, rng)]
        polys = [build_phi(PictureShape(cfg.shape, (n,)), sigma).poly
                 for n in (1, 2, 3) for sigma in all_perms(n)]
        polys += [random_sym_polynomial(cfg.shape, r, rng) for r in (1, 1, 2, 2, 2)]
        for poly in polys:
            if len({len(m) for m in poly.terms}) > 1:
                continue
            for point in points:
                assert exact_terms(restitute(poly, point)) == \
                    exact_terms(one_seeded_restitute(poly, point)), name


def test_rational_copy_refuses_an_irrational_coefficient(cfgs):
    cfg = cfgs["z4"]
    alg = standard_test_algebra(cfg.chi, truncation=3)
    u = GradedTensor.basis(cfg.space, alg, u11_variance(), (1, 1))
    point = W0Point(cfg.shape, alg, [u.scale(CycloRational.root(4, 1))])
    with pytest.raises(ValueError, match="not rational"):
        rational_copy(point)
    assert rational_copy(W0Point(cfg.shape, alg, [u])).parts == (u,)


def plain_restitute_word(shape, word, point):
    """restitute_word as a plain loop over the word, keeping nothing."""
    alg = point.alg
    vs = shape.numbering().variables
    acc = None
    for k in word:
        v = vs[k]
        lam = point.part(v.summand).terms.get(v.word())
        if lam is None:
            return alg.zero()
        acc = lam.times_root(0) if acc is None else acc * lam
        if not acc:
            return alg.zero()
    return alg.one() if acc is None else acc


def chain_restitute(poly, point):
    """restitute walking the monomials in sorted order, each reusing only
    the prefix products of the one before, and keeping nothing after the
    call."""
    degrees = sorted({len(mono) for mono in poly.terms})
    assert len(degrees) <= 1
    alg = point.alg
    if degrees == [0]:
        return alg.scalar(poly.terms[()])
    vs = poly.shape.numbering().variables
    chain, prev, pairs = [], (), []  # chain[i]: the product over prev[:i + 1]
    for mono in sorted(poly.terms):
        lams = [point.part(vs[k].summand).terms.get(vs[k].word()) for k in mono]
        if any(lam is None for lam in lams):
            continue
        n = 0
        while n < len(chain) and mono[n] == prev[n]:
            n += 1
        del chain[n:]
        prev = mono
        for lam in lams[n:]:
            x = chain[-1] * lam if chain else lam
            if not x:
                break
            chain.append(x)
        if len(chain) == len(mono):
            pairs.append((chain[-1].terms, {(): poly.terms[mono]}))
    return eps_sums(alg, {(): pairs}).get((), alg.zero())


def interleaved_calls(cfg, rng, calls):
    """Make `calls` restitute and restitute_word calls at one point, then
    the same calls at a second point of the same shape, whose coefficients
    are rationals at order 1, and compare each
    value, coefficient orders included, with the memo-free referees.  Half
    the words extend a cut of an earlier word, so they share its prefix;
    the polynomials are sums of the sorted forms of drawn words of one
    length.  Returns how often a word or monomial missed the point's
    support, had a product that vanished, or shared a nonempty prefix
    with an earlier one at that point."""
    shape = cfg.shape
    alg = standard_test_algebra(cfg.chi, 3)
    nvars = len(shape.numbering().variables)

    def draw_word(words):
        head = ()
        if words and rng.random() < 0.5:
            w = rng.choice(words)
            head = w[:rng.randint(0, len(w))]
        return head + tuple(rng.randrange(nvars) for _ in range(rng.randint(0, 2)))

    words, made = [], []
    for _ in range(calls):
        w = draw_word(words)
        words.append(w)
        if rng.random() < 0.5:
            made.append(("word", w))
            continue
        poly = SymPolynomial.from_word(shape, w)
        for _ in range(rng.randint(0, 3)):
            x = draw_word(words)
            if len(x) == len(w):
                words.append(x)
                poly = poly + SymPolynomial.from_word(shape, x).scale(random_rational(rng))
        made.append(("poly", poly))
    seen = collections.Counter()
    points = [random_w0_point(shape, alg, rng, density=0.6) for _ in range(2)]
    for point in (points[0], rational_copy(points[1])):
        prefixes = set()
        for kind, arg in made:
            if kind == "word":
                got, want = restitute_word(shape, arg, point), \
                    plain_restitute_word(shape, arg, point)
                met = [arg]
            else:
                got, want = restitute(arg, point), chain_restitute(arg, point)
                met = list(arg.terms)
            assert exact_terms(got) == exact_terms(want), (kind, arg)
            for w in met:
                if any(not plain_restitute_word(shape, (k,), point) for k in w):
                    seen["missed"] += 1
                elif not plain_restitute_word(shape, w, point):
                    seen["vanished"] += 1
                if w and w[:1] in prefixes:
                    seen["shared"] += 1
                prefixes.update(w[:i] for i in range(1, len(w) + 1))
    return seen


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_kept_products_match_the_memo_free_referees(cfgs, data):
    """Calls interleaved at one point, then repeated at a second point:
    what a point keeps from earlier calls changes no value or order."""
    cfg = cfgs[data.draw(st.sampled_from(sorted(cfgs)))]
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    interleaved_calls(cfg, rng, data.draw(st.integers(1, 12)))


def test_interleaved_calls_meet_every_case(cfgs):
    """The seeded runs of interleaved_calls meet, on every builtin,
    monomials that miss the support, products that vanish and words that
    share a prefix."""
    for name in sorted(cfgs):
        seen = collections.Counter()
        for seed in range(4):
            seen += interleaved_calls(cfgs[name], random.Random("kept/%d" % seed), 12)
        assert min(seen[k] for k in ("missed", "vanished", "shared")) > 0, (name, seen)


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_restitute_is_the_sum_of_its_monomials_words(cfgs, data):
    """restitute equals sum c * restitute_word(monomial), in value and in
    each coefficient's order, on homogeneous polynomials of degree 0 to 3
    at points that miss part of W's basis, so some monomials restitute to
    zero; a constant keeps c * 1 at c's own order.  Both functions read
    W0Point.product, so the words are restituted by the memo-free
    plain_restitute_word."""
    cfg = cfgs[data.draw(st.sampled_from(sorted(cfgs)))]
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    alg = standard_test_algebra(cfg.chi, 3)
    point = random_w0_point(cfg.shape, alg, rng, density=data.draw(st.sampled_from((0.4, 0.8))))
    r = data.draw(st.integers(0, 3))
    if r:
        poly = random_sym_polynomial(cfg.shape, r, rng, terms=data.draw(st.integers(1, 8)))
        poly = SymPolynomial(cfg.shape, {w: c for w, c in poly.terms.items() if len(w) == r})
    else:
        poly = SymPolynomial(cfg.shape, {(): random_rational(rng)})
    want = alg.zero()
    for mono, c in poly.terms.items():
        want = want + plain_restitute_word(cfg.shape, mono, point).scale(c)
    assert exact_terms(restitute(poly, point)) == exact_terms(want)


def test_staircase_separates_single_variables(cfgs):
    for name in ("super", "z2z2"):
        cfg = cfgs[name]
        point, index = staircase_point(cfg.shape, 1)
        n = len(cfg.shape.numbering().variables)
        seen = {}
        for v in range(n):
            poly = SymPolynomial.from_word(cfg.shape, (v,))
            val = restitute(poly, point)
            assert not val.is_zero()
            key = tuple(sorted(val.terms))
            assert key not in seen, (name, v)
            seen[key] = v
        assert len(index) == n


def test_transposition_sign_identity_seeded(cfgs):
    for name in ("super", "z2z2", "z4"):
        cfg = cfgs[name]
        alg = standard_test_algebra(cfg.chi, truncation=3)
        rng = random.Random("transp/%s" % name)
        pool = range(len(cfg.shape.numbering().variables))
        for _ in range(8):
            u = random_w0_point(cfg.shape, alg, rng)
            k = rng.randint(2, 3)
            word = tuple(rng.choice(pool) for _ in range(k))
            i = rng.randint(1, k - 1)
            assert transposition_sign_check(cfg.shape, word, i, u)


def test_injectivity_probe_certifies_nonzero(cfgs):
    for name in ("super", "z3z3"):
        cfg = cfgs[name]
        rng = random.Random("probe/%s" % name)
        hits = 0
        while hits < 8:
            p = random_sym_polynomial(cfg.shape, 2, rng)
            if p.is_zero():
                continue
            hits += 1
            assert not injectivity_probe(p).is_zero()


def test_injectivity_probe_of_zero_is_zero(cfgs):
    cfg = cfgs["super"]
    assert injectivity_probe(SymPolynomial(cfg.shape, {}), r=2).is_zero()


def test_supertrace_of_identity_frozen(cfgs, algebras):
    for name, expected in SUPERTRACE_OF_IDENTITY.items():
        cfg, alg = cfgs[name], algebras[name]
        val = end_trace(identity_end(cfg.space, alg))
        assert val == alg.scalar(CycloRational.from_rational(expected)), name


def test_trace_is_cyclic_on_degree_zero(cfgs, algebras):
    for name in ("super", "z2z2", "z3z3"):
        cfg, alg = cfgs[name], algebras[name]
        rng = random.Random("cyclic/%s" % name)
        for _ in range(8):
            a, _ = random_gl_epsilon(cfg.space, alg, rng)
            b, _ = random_gl_epsilon(cfg.space, alg, rng)
            lhs = end_trace(operator_to_end(a.compose(b)))
            rhs = end_trace(operator_to_end(b.compose(a)))
            assert lhs == rhs


def test_end_algebra_laws(cfgs, algebras):
    cfg, alg = cfgs["super"], algebras["super"]
    rng = random.Random("endalg")
    ident = identity_end(cfg.space, alg)
    ends = []
    for _ in range(3):
        T, _ = random_gl_epsilon(cfg.space, alg, rng)
        ends.append(operator_to_end(T))
    a, b, c = ends
    assert end_compose(a, ident) == a
    assert end_compose(ident, a) == a
    assert end_compose(end_compose(a, b), c) == end_compose(a, end_compose(b, c))
    for x in ends:
        assert operator_to_end(end_to_operator(x)) == x


def test_operator_end_round_trip(cfgs, algebras):
    cfg, alg = cfgs["z4"], algebras["z4"]
    rng = random.Random("endrt")
    T, _ = random_gl_epsilon(cfg.space, alg, rng)
    assert end_to_operator(operator_to_end(T)) == T


def test_trace_monomial_matches_numeric_traces(cfgs, algebras):
    cfg, alg = cfgs["trivial"], algebras["trivial"]
    rng = random.Random("numeric")
    dim = cfg.space.dim

    def random_matrix():
        return [[Fraction(rng.randint(-4, 4)) for _ in range(dim)]
                for _ in range(dim)]

    def as_operator(mat):
        out = GradedOperator.zero(cfg.space, alg)
        for a in range(dim):
            for b in range(dim):
                unit = GradedOperator.matrix_unit(cfg.space, alg, a + 1, b + 1)
                out = out + unit.scale(CycloRational.from_rational(mat[a][b]))
        return out

    def mat_mul(x, y):
        return [[sum(x[i][k] * y[k][j] for k in range(dim)) for j in range(dim)]
                for i in range(dim)]

    def mat_trace(x):
        return sum(x[i][i] for i in range(dim))

    for _ in range(6):
        mats = [random_matrix() for _ in range(3)]
        ops = [operator_to_end(as_operator(m)) for m in mats]
        for cyclist in ([(1, 2, 3)], [(1,), (2, 3)], [(1, 2), (3,)],
                        [(1,), (2,), (3,)], [(3, 1, 2)]):
            expected = Fraction(1)
            for cyc in cyclist:
                prod = mats[cyc[0] - 1]
                for i in cyc[1:]:
                    prod = mat_mul(prod, mats[i - 1])
                expected *= mat_trace(prod)
            got = trace_monomial(ops, cyclist)
            assert got == alg.scalar(CycloRational.from_rational(expected)), cyclist


def test_trace_monomial_refuses_parts_that_are_not_primal_dual(cfgs, algebras):
    """Each cycle's chain starts at its first operator, so a 1-cycle is
    refused by end_trace and a longer cycle by end_compose."""
    cfg, alg = cfgs["super"], algebras["super"]
    part = GradedTensor.basis(cfg.space, alg, (PRIMAL, PRIMAL), (1, 1))
    with pytest.raises(ValueError, match=r"^end_trace needs a \(primal, dual\) word$"):
        trace_monomial([part], [(1,)])
    with pytest.raises(ValueError, match=r"^end_compose needs \(primal, dual\) words$"):
        trace_monomial([part], [(1, 2)], [1, 1])


def test_trace_match_seeded(cfgs):
    for name in ("super", "z2z2"):
        cfg = cfgs[name]
        alg = standard_test_algebra(cfg.chi, truncation=3)
        ps = PictureShape(cfg.shape, (2,))
        rng = random.Random("tm/%s" % name)
        for _ in range(3):
            u = random_w0_point(cfg.shape, alg, rng)
            for sigma in all_perms(2):
                match, lhs, rhs = trace_match(ps, sigma, u)
                assert match, (name, sigma)
                assert lhs == rhs


def test_position_assignment(cfgs):
    sup = cfgs["super"]
    assert position_assignment(PictureShape(sup.shape, (2,))) == [1, 1]
    two = MixedShape(sup.space, [(1, 1), (1, 1)])
    assert position_assignment(PictureShape(two, (1, 1))) == [1, 2]
    assert position_assignment(PictureShape(two, (2, 1))) == [1, 1, 2]


def test_w0_point_rejects_wrong_degree(cfgs, algebras):
    cfg, alg = cfgs["super"], algebras["super"]
    bad = GradedTensor.basis(cfg.space, alg, u11_variance(), (1, 2))
    with pytest.raises(ValueError):
        W0Point(cfg.shape, alg, [bad])
    good = GradedTensor.basis(cfg.space, alg, u11_variance(), (1, 1))
    W0Point(cfg.shape, alg, [good])


def test_u11_variance_frozen():
    assert u11_variance() == (0, 1)
