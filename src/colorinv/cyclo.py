"""Exact arithmetic in cyclotomic fields Q(zeta_m).

An element is a rational polynomial in zeta_m reduced modulo the m-th
cyclotomic polynomial Phi_m.  Working modulo Phi_m (rather than x^m - 1)
makes the representation canonical, so equality and zero tests are exact:
relations like 1 + zeta_3 + zeta_3^2 = 0 hold on the nose.  Phi_m is the
Moebius product of the x^d - 1.  There is no division: every sign of the
color calculus is a power of zeta_m (the exponent-matrix checks of groups
imply the bicharacter axioms), applied by times_root.

The layout is that of FLINT's fmpq_poly: integer numerators over one
denominator.  `num` is an int tuple of length deg Phi_m = phi(m) and `den`
a positive int, normalized so that gcd(den, *num) = 1; zero is num all 0
over den 1.  Phi_m is monic, so x^k mod Phi_m has integer coefficients: a
per-order table of those rows, the module's one cache, reduces products
and lifts without leaving the integers.  Sums, products, lifts and
equality build no Fraction; only the constructor, `from_rational` of a
non-int, `coeffs` and the coercion of a Fraction do.  With
epsalgebra.SCALARS they are the package's only Fraction: below them a
rational is read as `num` over `den`.  textform.format_cyclo prints.

Elements of different orders are compared and combined by lifting both to
the lcm order via zeta_m = zeta_M^(M/m).  A result keeps that lcm as its
`order` even when its value lies in a smaller field (zeta_4 * zeta_4 has
order 4), and an order-1 operand, a plain rational, leaves the other
operand's order alone; an int operand scales the numerators in one step,
as its rational would.  Printed output carries the order (`--format
structured` writes it), so the rule is part of the output format.

Signs of the color calculus are powers of one root zeta_m, applied by
`times_root(m, e)`, a shift along the power table that returns exactly
what self * root(m, e) returns, order included.  One convolution,
_convolve, is the only loop over power-table rows: it serves both
products, __mul__ and product_sums, the shift folded in, and, with one
factor 1 (_shift), the reductions of the constructor and of lifts and
the shifts of times_root; a rational's shift is one row, scaled.
product_sums, the coefficient part of every eps product, sums
c1 * c2 * zeta_m^e over the pairs of each word in one int list over a
common denominator and makes one element per word.  A word of order
n <= 2 has phi(n) = 1, so each of its products is a signed rational,
the sign (-1)^(e n/m) when n is 2: its sum is one int over the common
denominator, with no power table and no convolution.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

def _mobius(n):
    mu = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if n > 1 else mu

def cyclotomic_poly(m):
    """Coefficients of Phi_m, low degree first, as a tuple of ints: the
    product of (x^d - 1)^mu(m/d) over d | m, the mu = +1 factors multiplied
    in first and the mu = -1 factors then divided out exactly."""
    if m < 1:
        raise ValueError("order must be positive")
    factors = [(d, _mobius(m // d)) for d in range(1, m + 1) if m % d == 0]
    p = [1]
    for d, mu in factors:
        if mu == 1:
            # p * (x^d - 1): new_i = p_(i-d) - p_i
            p = [(p[i - d] if i >= d else 0) - (p[i] if i < len(p) else 0)
                 for i in range(len(p) + d)]
    for d, mu in factors:
        if mu == -1:
            # exact division by x^d - 1, in place: q_i = q_(i-d) - p_i
            for i in range(len(p) - d):
                p[i] = (p[i - d] if i >= d else 0) - p[i]
            del p[-d:]
    return tuple(p)

_TABLES = {}

def _power_table(m):
    """Row k is x^k mod Phi_m as an int tuple of length deg Phi_m, for
    0 <= k < m.  Phi_m divides x^m - 1, so x^k reduces like x^(k mod m);
    Phi_m is monic, so every entry is an integer."""
    table = _TABLES.get(m)
    if table is None:
        phi = cyclotomic_poly(m)
        deg = len(phi) - 1
        row = (1,) + (0,) * (deg - 1)
        table = [row]
        for _ in range(1, m):
            top = row[-1]
            row = (0,) + row[:-1]
            if top:
                row = tuple(x - top * p for x, p in zip(row, phi))
            table.append(row)
        table = _TABLES[m] = tuple(table)
    return table

def _make(order, num, den):
    """The element num/den of Q(zeta_order), brought to lowest terms:
    gcd(den, *num) = 1 with den > 0, so zero comes out as num all 0 over 1."""
    g = math.gcd(den, *num)
    if g != 1:
        num = tuple(x // g for x in num)
        den //= g
    z = object.__new__(CycloRational)
    z.order = order
    z.num = num
    z.den = den
    return z

def _convolve(a, b, e, rows, out):
    """out += a * b * zeta_m^e for int sequences a, b read as polynomials in
    zeta_m (length 1: a rational), rows the power table of order m: term i
    of a times term j of b is added along row (i + j + e) mod m."""
    m = len(rows)
    for i, x in enumerate(a, e):
        if x:
            for j, y in enumerate(b, i):
                if y:
                    y *= x
                    for k, z in enumerate(rows[j % m]):
                        if z:
                            out[k] += y * z

def _shift(a, e, m):
    """a * zeta_m^e as an int tuple of length deg Phi_m, for an int
    sequence a of any length read as a polynomial in zeta_m: _convolve
    of 1 and a, which reduces a modulo Phi_m as it shifts it (1 first, so
    the outer loop runs once)."""
    rows = _TABLES.get(m) or _power_table(m)
    out = [0] * len(rows[0])
    _convolve((1,), a, e, rows, out)
    return tuple(out)

def product_sums(groups, m):
    """{key: the sum of c1 * c2 * zeta_m^e over the key's (c1, c2, e)
    triples}, keys whose sum is zero left out.  Each sum equals in value
    and in `order` the sum of (c1 * c2).times_root(m, e): its order is the
    lcm of m and of every operand's order."""
    out = {}
    for key, triples in groups.items():
        n = m
        for c1, c2, _ in triples:
            if n % c1.order or n % c2.order:
                n = math.lcm(n, c1.order, c2.order)
        step = n // m
        den = triples[0][0].den * triples[0][1].den
        if n <= 2:  # phi(n) = 1: each product is a signed rational
            q = 0
            for c1, c2, e in triples:
                x = c1.num[0] * c2.num[0]
                d = c1.den * c2.den
                if d != den:
                    g = math.lcm(den, d)
                    if g != den:
                        q *= g // den
                        den = g
                    x *= g // d
                q = q - x if n == 2 and e * step % 2 else q + x
            if q:
                out[key] = _make(n, (q,), den)
            continue
        rows = _TABLES.get(n) or _power_table(n)
        num = [0] * len(rows[0])
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
            _convolve(a, b, e * step, rows, num)
        if any(num):
            out[key] = _make(n, tuple(num), den)
    return out

class CycloRational:
    """An element of Q(zeta_m) in canonical reduced form: integer
    numerators over one positive denominator, in lowest terms.  Immutable."""

    __slots__ = ("order", "num", "den")

    def __init__(self, order, coeffs):
        coeffs = [Fraction(x) for x in coeffs]
        den = math.lcm(*(x.denominator for x in coeffs))
        z = _make(order, _shift([x.numerator * (den // x.denominator) for x in coeffs],
                                0, order), den)
        self.order, self.num, self.den = order, z.num, z.den

    @property
    def coeffs(self):
        """The coefficients of 1, zeta, ..., zeta^(deg Phi_m - 1)."""
        return tuple(Fraction(x, self.den) for x in self.num)

    @classmethod
    def from_rational(cls, q, den=1):
        """q / den, q an int or a Fraction and den a positive int."""
        if q.__class__ is not int:
            q = Fraction(q)
            q, den = q.numerator, q.denominator * den
        return _make(1, (q,), den)

    @classmethod
    def rational_at(cls, m, q, den):
        """The int q over den at order m, equal in value and in `order` to
        from_rational(q, den).times_root(m, 0), made in one step."""
        return _make(m, (q,) + (_TABLES.get(m) or _power_table(m))[0][1:], den)

    @classmethod
    def zero(cls):
        return cls.from_rational(0)

    @classmethod
    def one(cls):
        return cls.from_rational(1)

    @classmethod
    def root(cls, m, e=1):
        """zeta_m^e."""
        return _make(m, _power_table(m)[e % m], 1)

    def _lift(self, bigm):
        """Numerators of this element viewed in Q(zeta_bigm), over the same
        denominator."""
        m = self.order
        if bigm == m:
            return self.num
        if bigm % m != 0:
            raise ValueError("cannot lift order %d into order %d" % (m, bigm))
        step = bigm // m
        spread = [0] * ((len(self.num) - 1) * step + 1)
        spread[::step] = self.num
        return _shift(spread, 0, bigm)

    def _pair(self, other):
        """(order, numerators of self, numerators of other) at the lcm
        order, or None when other is not a scalar."""
        if other.__class__ is not CycloRational:
            other = _coerce(other)
            if other is None:
                return None
        m1, m2 = self.order, other.order
        if m1 == m2:
            return m1, self.num, other.num, other
        m = m1 * m2 // math.gcd(m1, m2)
        return m, self._lift(m), other._lift(m), other

    def __add__(self, other):
        p = self._pair(other)
        if p is None:
            return NotImplemented
        m, a, b, other = p
        da, db = self.den, other.den
        if da == db:
            return _make(m, tuple(map(operator.add, a, b)), da)
        g = math.gcd(da, db)
        fa, fb = db // g, da // g
        return _make(m, tuple(x * fa + y * fb for x, y in zip(a, b)), da * fa)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.order, tuple(-x for x in self.num), self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if other.__class__ is int:
            return _make(self.order, tuple(v * other for v in self.num), self.den)
        if other.__class__ is not CycloRational:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        # an order-1 operand is a rational: it scales the other one
        x, q = (other, self) if self.order == 1 else (self, other)
        if q.order == 1:
            k = q.num[0]
            return _make(x.order, tuple(v * k for v in x.num), x.den * q.den)
        m, a, b, _ = self._pair(other)
        if len(a) == 1:  # phi(m) = 1: m is 2
            return _make(m, (a[0] * b[0],), self.den * other.den)
        out = [0] * len(a)
        _convolve(a, b, 0, _TABLES.get(m) or _power_table(m), out)
        return _make(m, tuple(out), self.den * other.den)

    __rmul__ = scale = __mul__

    def times_root(self, m, e):
        """self * zeta_m^e, equal in value and in `order` to
        self * CycloRational.root(m, e): a rational times one row of the
        power table, otherwise, lifted to m (to the lcm if its order does
        not divide m), numerator k shifted to row (k + e) mod m.  A unit,
        like a lift, keeps the content, so the result is in lowest terms."""
        n = self.order
        if n == m and not e % m:
            return self
        z = object.__new__(CycloRational)
        z.den = self.den
        if n == 1:
            # one row, scaled: most shifts in verify are of rationals, and
            # through _shift they cost verify-all wall_s 2 % (BENCH_24.json)
            k = self.num[0]
            row = (_TABLES.get(m) or _power_table(m))[e % m]
            z.order, z.num = m, (row if k == 1 else tuple(k * y for y in row))
            return z
        big = m if n == m else math.lcm(n, m)
        z.order = big
        z.num = _shift(self.num if n == big else self._lift(big), e * (big // m), big)
        return z

    def is_zero(self):
        return not any(self.num)

    def __bool__(self):
        return any(self.num)

    def __eq__(self, other):
        p = self._pair(other)
        if p is None:
            return NotImplemented
        _, a, b, other = p
        da, db = self.den, other.den
        if da == db:
            return a == b
        if self.order == other.order:
            return False  # lowest terms are unique at one order
        # across orders, compare cross-multiplied: the verdict then does not
        # rest on a lift keeping its numerators in lowest terms
        return all(x * db == y * da for x, y in zip(a, b))

    # equal values can live at different stored orders, so no consistent
    # cheap hash exists; elements are used as dict values, never keys
    __hash__ = None

    def __str__(self):
        from . import textform
        return textform.format_cyclo(self)

    def __repr__(self):
        return "CycloRational(%d, %r)" % (self.order, [str(x) for x in self.coeffs])

def _coerce(x):
    if isinstance(x, CycloRational):
        return x
    if isinstance(x, (int, Fraction)):
        return CycloRational.from_rational(x)
    return None

def as_cyclo(x):
    c = _coerce(x)
    if c is None:
        raise TypeError("cannot interpret %r as a cyclotomic rational" % (x,))
    return c
