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
per-order table of those rows reduces products and lifts without leaving
the integers.  Sums, products, lifts and equality build no Fraction; only
the constructor, `coeffs`, `lift` and `as_fraction` do.

Elements of different orders are compared and combined by lifting both to
the lcm order via zeta_m = zeta_M^(M/m).  A result keeps that lcm as its
`order` even when its value lies in a smaller field (zeta_4 * zeta_4 has
order 4), and an order-1 operand, a plain rational, leaves the other
operand's order alone.  Printed output carries the order (`--format
structured` writes it), so the rule is part of the output format.

Signs of the color calculus are powers of one root zeta_m, so they are
applied with `times_root(m, e)` rather than a product: it is a table
shift, numerator k moving to row (k + e) mod m of the power table, with no
convolution.  It keeps the order rule above, returning exactly what
self * root(m, e) returns: an order-1 or lower-order operand is lifted to
m, e = 0 mod m at order m returns self, and an order that does not divide
m falls back to the product.
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

_PHI_CACHE = {}

def cyclotomic_poly(m):
    """Coefficients of Phi_m, low degree first, as a tuple of ints: the
    product of (x^d - 1)^mu(m/d) over d | m, the mu = +1 factors multiplied
    in first and the mu = -1 factors then divided out exactly."""
    if m in _PHI_CACHE:
        return _PHI_CACHE[m]
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
    _PHI_CACHE[m] = tuple(p)
    return _PHI_CACHE[m]

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

def _reduce(ints, m):
    """An int coefficient list of any length, reduced modulo Phi_m."""
    table = _power_table(m)
    deg = len(table[0])
    out = list(ints[:deg]) + [0] * (deg - len(ints))
    for k in range(deg, len(ints)):
        c = ints[k]
        if c:
            for j, x in enumerate(table[k % m]):
                if x:
                    out[j] += c * x
    return out

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

class CycloRational:
    """An element of Q(zeta_m) in canonical reduced form: integer
    numerators over one positive denominator, in lowest terms.  Immutable."""

    __slots__ = ("order", "num", "den")

    def __init__(self, order, coeffs):
        coeffs = [Fraction(x) for x in coeffs]
        den = math.lcm(*(x.denominator for x in coeffs))
        ints = [x.numerator * (den // x.denominator) for x in coeffs]
        num = _reduce(ints, order)
        g = math.gcd(den, *num)
        self.order = order
        self.num = tuple(x // g for x in num)
        self.den = den // g

    @property
    def coeffs(self):
        """The coefficients of 1, zeta, ..., zeta^(deg Phi_m - 1)."""
        return tuple(Fraction(x, self.den) for x in self.num)

    @classmethod
    def from_rational(cls, q):
        q = Fraction(q)
        return _make(1, (q.numerator,), q.denominator)

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
        return tuple(_reduce(spread, bigm))

    def lift(self, bigm):
        """Coefficient tuple of this element viewed in Q(zeta_bigm)."""
        return tuple(Fraction(x, self.den) for x in self._lift(bigm))

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
        p = self._pair(other)
        if p is None:
            return NotImplemented
        m, a, b, other = p
        da, db = self.den, other.den
        g = math.gcd(da, db)
        fa, fb = db // g, da // g
        return _make(m, tuple(x * fa - y * fb for x, y in zip(a, b)), da * fa)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if other.__class__ is not CycloRational:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        m1, m2 = self.order, other.order
        den = self.den * other.den
        # an order-1 operand is a rational: it scales the other one
        if m2 == 1:
            k = other.num[0]
            return _make(m1, tuple(x * k for x in self.num), den)
        if m1 == 1:
            k = self.num[0]
            return _make(m2, tuple(x * k for x in other.num), den)
        m, a, b, _ = self._pair(other)
        if len(a) == 1:
            return _make(m, (a[0] * b[0],), den)
        out = [0] * (2 * len(a) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    if y:
                        out[j] += x * y
        return _make(m, tuple(_reduce(out, m)), den)

    __rmul__ = __mul__

    def times_root(self, m, e):
        """self * zeta_m^e, equal in value and in `order` to
        self * CycloRational.root(m, e), by a shift along the power table
        (see the module docstring).  Multiplying by a unit, like lifting,
        keeps the content of the numerators, so the result is already in
        lowest terms."""
        n = self.order
        if m % n:
            return self * CycloRational.root(m, e)
        e %= m
        if n == m and not e:
            return self
        rows = _TABLES.get(m) or _power_table(m)
        if n == 1:
            k = self.num[0]
            a = rows[e] if k == 1 else tuple(k * y for y in rows[e])
        else:
            a = self.num if n == m else self._lift(m)
            if e:
                out = [0] * len(a)
                for k, x in enumerate(a, e):
                    if x:
                        for j, y in enumerate(rows[k % m]):
                            if y:
                                out[j] += x * y
                a = tuple(out)
        z = object.__new__(CycloRational)
        z.order = m
        z.num = a
        z.den = self.den
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

    def is_rational(self):
        return not any(self.num[1:])

    def as_fraction(self):
        if not self.is_rational():
            raise ValueError("%s is not rational" % self)
        return Fraction(self.num[0], self.den)

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
