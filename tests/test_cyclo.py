"""Exact cyclotomic arithmetic: reduction, ring axioms, roots, lifts."""

import ast
from fractions import Fraction
import math
import pathlib

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

import colorinv
from colorinv import cyclo
from colorinv.cyclo import CycloRational, as_cyclo, cyclotomic_poly

ORDERS = (1, 2, 3, 4, 6, 8, 12)

fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def elements(order):
    return st.lists(fractions, min_size=1, max_size=6).map(
        lambda cs: CycloRational(order, cs))


def test_cyclotomic_polynomial_matches_sympy():
    x = sympy.Symbol("x")
    for m in range(1, 25):
        ours = cyclotomic_poly(m)
        theirs = sympy.Poly(sympy.cyclotomic_poly(m, x), x).all_coeffs()
        theirs = tuple(Fraction(int(c)) for c in reversed(theirs))
        assert tuple(ours) == theirs


def test_reduction_degree_below_totient():
    for m in ORDERS:
        deg = int(sympy.totient(m))
        x = CycloRational(m, [1] * (3 * m))
        assert len(x.coeffs) <= deg


@given(a=elements(12), b=elements(12), c=elements(12))
@settings(max_examples=60, deadline=None)
def test_ring_axioms_order_twelve(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + CycloRational.zero() == a
    assert a * CycloRational.one() == a
    assert a - a == CycloRational.zero()


def test_root_powers_multiply():
    for m in ORDERS:
        for e in range(m):
            for f in range(m):
                lhs = CycloRational.root(m, e) * CycloRational.root(m, f)
                assert lhs == CycloRational.root(m, e + f)


def test_roots_sum_to_zero():
    for m in (2, 3, 4, 6, 12):
        total = CycloRational.zero()
        for e in range(m):
            total = total + CycloRational.root(m, e)
        assert total.is_zero()


def test_known_root_values():
    assert CycloRational.root(1, 0) == CycloRational.one()
    assert CycloRational.root(2, 1).coeffs == (Fraction(-1),)
    assert CycloRational.root(4, 2) == CycloRational.from_rational(Fraction(-1))
    assert CycloRational.root(6, 3) == CycloRational.from_rational(Fraction(-1))
    i = CycloRational.root(4, 1)
    assert i * i == CycloRational.from_rational(Fraction(-1))
    assert i.coeffs == (0, 1)


@given(q=fractions)
def test_rational_embedding_round_trip(q):
    x = CycloRational.from_rational(q)
    assert x.order == 1
    assert x.coeffs == (q,)


@given(q=fractions, k=st.integers(1, 6))
def test_rational_from_numerator_and_denominator(q, k):
    """from_rational(num, den) is num/den in lowest terms, stored as the
    element of the Fraction num/den is."""
    x = CycloRational.from_rational(q.numerator * k, q.denominator * k)
    y = CycloRational.from_rational(q)
    assert (x.order, x.num, x.den) == (y.order, y.num, y.den)


@given(p=fractions, q=fractions)
def test_rational_arithmetic_matches_fractions(p, q):
    xp, xq = CycloRational.from_rational(p), CycloRational.from_rational(q)
    assert (xp + xq).coeffs == (p + q,)
    assert (xp * xq).coeffs == (p * q,)
    assert (xp - xq).coeffs == (p - q,)


@given(a=elements(4))
@settings(max_examples=40, deadline=None)
def test_lift_preserves_value(a):
    for bigm in (4, 8, 12):
        lifted = CycloRational(bigm, list(a.times_root(bigm, 0).coeffs))
        assert lifted == a


def test_cross_order_equality_and_addition():
    # zeta_2 + zeta_3 lands in the order-6 field as z - 2.
    mixed = CycloRational.root(2, 1) + CycloRational.root(3, 1)
    assert mixed == CycloRational(6, [-2, 1])
    assert CycloRational.root(4, 2) == CycloRational.root(2, 1)
    assert CycloRational.root(12, 4) == CycloRational.root(3, 1)


def test_as_cyclo_coercion():
    assert as_cyclo(3) == CycloRational.from_rational(Fraction(3))
    assert as_cyclo(Fraction(1, 2)) * as_cyclo(2) == CycloRational.one()
    x = CycloRational.root(3, 1)
    assert as_cyclo(x) is x


@st.composite
def int_scalings(draw):
    """(order, coefficients, lift, k): x = CycloRational(order, coefficients)
    lifted to the order `lift`, a multiple of its order, and an int k."""
    n = draw(st.sampled_from((1, 2, 3, 4, 12)))
    cs = draw(st.lists(fractions, min_size=1, max_size=6))
    lift = draw(st.sampled_from([m for m in (1, 2, 3, 4, 12) if m % n == 0]))
    return n, cs, lift, draw(st.integers(-12, 12))


@given(case=int_scalings())
@example(case=(3, [Fraction(1, 2), Fraction(-3, 4)], 12, 0))
@example(case=(1, [Fraction(5, 6)], 1, -3))
@example(case=(12, [Fraction(2, 3), Fraction(0), Fraction(-1)], 12, 6))
@settings(max_examples=150, deadline=None)
def test_int_operand_scales_as_its_rational(case):
    n, cs, lift, k = case
    x = CycloRational(n, cs).times_root(lift, 0)
    want = x * CycloRational.from_rational(k)
    for got in (x * k, k * x):
        assert (got.order, got.num, got.den) == (want.order, want.num, want.den)


# ----------------------------------------- sympy referee for the arithmetic

REFEREE_ORDERS = (1, 2, 3, 4, 6, 12)
X = sympy.Symbol("x")


def referee_poly(order, cs, bigm):
    """sum cs[k] zeta_order^k in Q(zeta_bigm), written with zeta_order =
    x^(bigm/order) and reduced by sympy modulo Phi_bigm."""
    step = bigm // order
    poly = sympy.Poly(sum((sympy.Rational(c.numerator, c.denominator) * X ** (k * step)
                           for k, c in enumerate(cs)), sympy.Integer(0)), X, domain="QQ")
    return poly.rem(sympy.Poly(sympy.cyclotomic_poly(bigm, X), X, domain="QQ"))


def ours_as_poly(x):
    return sympy.Poly(sum((sympy.Rational(c.numerator, c.denominator) * X ** k
                           for k, c in enumerate(x.coeffs)), sympy.Integer(0)), X, domain="QQ")


@st.composite
def referee_pairs(draw):
    """(order, coefficients) for a and b.  b is drawn independently, or as
    a's value written another way: with a multiple of Phi added at a's
    order, or spread out to an order that a's order divides."""
    ma = draw(st.sampled_from(REFEREE_ORDERS))
    ca = draw(st.lists(fractions, min_size=1, max_size=8))
    how = draw(st.sampled_from(("independent", "plus-phi", "spread")))
    if how == "independent":
        mb = draw(st.sampled_from(REFEREE_ORDERS))
        cb = draw(st.lists(fractions, min_size=1, max_size=8))
    elif how == "plus-phi":
        mb = ma
        shift = draw(st.integers(0, 3))
        k = draw(fractions)
        phi = [0] * shift + [k * c for c in cyclotomic_poly(ma)]
        cb = [Fraction(0)] * max(len(ca), len(phi))
        for i, c in enumerate(ca):
            cb[i] += c
        for i, c in enumerate(phi):
            cb[i] += c
    else:
        mb = draw(st.sampled_from([m for m in REFEREE_ORDERS if m % ma == 0]))
        cb = [Fraction(0)] * ((len(ca) - 1) * (mb // ma) + 1)
        for i, c in enumerate(ca):
            cb[i * (mb // ma)] = c
    return (ma, ca), (mb, cb)


@given(pair=referee_pairs())
@settings(max_examples=150, deadline=None)
def test_arithmetic_matches_sympy_referee(pair):
    (ma, ca), (mb, cb) = pair
    a, b = CycloRational(ma, ca), CycloRational(mb, cb)
    bigm = ma * mb // sympy.igcd(ma, mb)
    pa, pb = referee_poly(ma, ca, bigm), referee_poly(mb, cb, bigm)
    phi = sympy.Poly(sympy.cyclotomic_poly(bigm, X), X, domain="QQ")
    for got, want in ((a * b, (pa * pb).rem(phi)), (a + b, pa + pb)):
        assert got.order == bigm
        assert ours_as_poly(got) == want
    equal = (pa - pb).is_zero
    assert (a == b) is equal
    assert (b == a) is equal
    if equal and ma == mb:
        assert a.coeffs == b.coeffs


# ------------------------------------- times_root against the plain product

@st.composite
def rotations(draw):
    """(order, coefficients, m, e).  m is a multiple of the order, or, when
    some m <= 24 is not, possibly such an m (the fallback).  e = k*m + r
    with k in -2..3, so e is negative, zero or >= m in turn."""
    n = draw(st.sampled_from(REFEREE_ORDERS))
    cs = draw(st.lists(fractions, min_size=1, max_size=8))
    others = [m for m in range(1, 25) if m % n]
    if others and draw(st.booleans()):
        m = draw(st.sampled_from(others))
    else:
        m = n * draw(st.integers(1, 4))
    e = m * draw(st.integers(-2, 3)) + draw(st.integers(0, m - 1))
    return n, cs, m, e


@given(case=rotations())
@example(case=(1, [Fraction(3, 2)], 4, 0))
@example(case=(2, [Fraction(1), Fraction(5)], 6, -12))
@example(case=(4, [Fraction(1), Fraction(2, 3)], 4, 8))
@example(case=(3, [Fraction(0), Fraction(1)], 4, 5))
@settings(max_examples=200, deadline=None)
def test_times_root_matches_product_with_root(case):
    n, cs, m, e = case
    x = CycloRational(n, cs)
    got = x.times_root(m, e)
    want = x * CycloRational.root(m, e)
    assert (got.order, got.num, got.den) == (want.order, want.num, want.den)


# ------------------------------------------------ Phi_m at further orders

def test_cyclotomic_polynomial_matches_sympy_at_larger_orders():
    """Orders with squared prime factors and with three distinct primes,
    which the m <= 24 test barely reaches."""
    for m in (30, 36, 60, 64, 81, 100, 105, 120, 210):
        theirs = sympy.Poly(sympy.cyclotomic_poly(m, X), X).all_coeffs()
        assert cyclotomic_poly(m) == tuple(int(c) for c in reversed(theirs))


# ------------------------- product_sums' signed rationals at phi(n) = 1

def product_sums_convolved(groups, m):
    """product_sums with every key's triples convolved along the power
    table, whatever the key's order: the general path, kept as the referee
    of the phi(n) = 1 branch."""
    out = {}
    for key, triples in groups.items():
        n = m
        for c1, c2, _ in triples:
            if n % c1.order or n % c2.order:
                n = math.lcm(n, c1.order, c2.order)
        rows = cyclo._power_table(n)
        step = n // m
        num = [0] * len(rows[0])
        den = triples[0][0].den * triples[0][1].den
        for c1, c2, e in triples:
            a = c1.num if c1.order == n or c1.order == 1 else c1._lift(n)
            b = c2.num if c2.order == n or c2.order == 1 else c2._lift(n)
            d = c1.den * c2.den
            if d != den:
                g = math.lcm(den, d)
                if g != den:
                    num = [x * (g // den) for x in num]
                    den = g
                a = [x * (g // d) for x in a]
            cyclo._convolve(a, b, e * step, rows, num)
        if any(num):
            out[key] = cyclo._make(n, tuple(num), den)
    return out


def exact(sums):
    return {k: (c.order, c.num, c.den) for k, c in sums.items()}


@st.composite
def sign_groups(draw):
    """(m, {key: [(c1, c2, e)]}, cancelled keys): m in {1, 2}, operands
    rationals at order 1 or 2 over denominators 1..3, several triples per
    key, and some keys' triples followed by their negations, so that their
    sums cancel."""
    m = draw(st.sampled_from((1, 2)))
    operands = st.builds(lambda order, k, d: CycloRational(order, [Fraction(k, d)]),
                         st.sampled_from((1, 2)), st.integers(-4, 4).filter(bool),
                         st.integers(1, 3))
    groups, cancelled = {}, set()
    for key in range(draw(st.integers(1, 4))):
        triples = draw(st.lists(st.tuples(operands, operands, st.integers(-3, 5)),
                                min_size=1, max_size=5))
        if draw(st.booleans()):
            triples += [(-c1, c2, e) for c1, c2, e in triples]
            cancelled.add(key)
        groups[key] = triples
    return m, groups, cancelled


HALF_AT_2 = CycloRational(2, [Fraction(1, 2)])


@given(case=sign_groups())
@example(case=(2, {"cancels": [(HALF_AT_2, CycloRational.one(), 0),
                               (CycloRational.from_rational(1, 3),
                                CycloRational.from_rational(3, 2), 1)],
                   "kept": [(HALF_AT_2, CycloRational(2, [-1]), 3),
                            (HALF_AT_2, CycloRational.from_rational(2, 3), 4)]},
                   {"cancels"}))
@settings(max_examples=200, deadline=None)
def test_product_sums_signed_rationals_match_the_convolution(case):
    """At key orders 1 and 2 each triple is a signed rational: the sums
    equal the convolution's in (order, num, den), keys that cancel are
    dropped alike, and _convolve is never called."""
    m, groups, cancelled = case
    want = exact(product_sums_convolved(groups, m))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cyclo, "_convolve", None)
        got = exact(cyclo.product_sums(groups, m))
    assert got == want
    assert not cancelled & got.keys()


def test_product_sums_takes_the_convolution_at_order_four(monkeypatch):
    """An order-4 operand at m = 2 lifts its key to order 4, where phi is
    2: that key's lift and triples go through _convolve, the order-2 key
    beside it does not."""
    calls = []
    real = cyclo._convolve

    def counted(a, b, e, rows, out):
        calls.append(len(rows))
        real(a, b, e, rows, out)
    groups = {"four": [(CycloRational.root(4, 1), CycloRational.from_rational(3, 2), 1),
                       (HALF_AT_2, CycloRational.one(), 1)],
              "two": [(HALF_AT_2, CycloRational.from_rational(2, 3), 1)]}
    want = exact(product_sums_convolved(groups, 2))
    monkeypatch.setattr(cyclo, "_convolve", counted)
    got = exact(cyclo.product_sums(groups, 2))
    assert got == want
    assert got["four"][0] == 4 and got["two"] == (2, (-1,), 3)
    assert calls and all(n == 4 for n in calls)


# ------------------------------------------------ the scalar boundary

def test_only_the_scalar_boundary_imports_fractions():
    """Below the scalar boundary a rational is integer numerators over one
    denominator; Fraction is taken and shown only where the public API
    does, in cyclo (constructor, from_rational, coeffs, coercion) and in
    epsalgebra.SCALARS.  Every module of the package is parsed, and any
    other one that imports from `fractions` fails the test."""
    importers = set()
    for path in sorted(pathlib.Path(colorinv.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if any(n == "fractions" or n.startswith("fractions.") for n in names):
                importers.add(path.name)
    assert importers == {"cyclo.py", "epsalgebra.py"}
