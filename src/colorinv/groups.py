"""Finite abelian groups and skew-symmetric bicharacters.

A group G = Z_d1 x ... x Z_dk is given by its factor list; elements are
int tuples reduced mod the factors.  A bicharacter is encoded by an
exponent matrix B over Z_m, m = lcm(d_j) = exponent of G:

    eps(g, h) = zeta_m ** (g^T B h).

Skew-symmetry eps(g,h) eps(h,g) = 1 means B + B^T = 0 mod m, and
well-definedness on each factor needs d_i B_ij = d_j B_ij = 0 mod m.
These matrix checks imply the bicharacter axioms (validate_bicharacter),
and for such eps, eps(g,g) = +-1, which splits G into even and odd parts.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .cyclo import CycloRational

class FiniteAbelianGroup:
    def __init__(self, factors):
        factors = tuple(int(d) for d in factors)
        if not factors or any(d < 1 for d in factors):
            raise ValueError("factors must be a nonempty list of positive ints")
        self.factors = factors
        self.exponent = math.lcm(*factors)
        self.order = math.prod(factors)

    @property
    def rank(self):
        return len(self.factors)

    def element(self, seq):
        seq = tuple(int(x) for x in seq)
        if len(seq) != len(self.factors):
            raise ValueError("element %r has wrong rank for factors %r" % (seq, self.factors))
        return tuple(x % d for x, d in zip(seq, self.factors))

    @property
    def identity(self):
        return (0,) * len(self.factors)

    def add(self, g, h):
        return tuple((a + b) % d for a, b, d in zip(g, h, self.factors))

    def neg(self, g):
        return tuple((-a) % d for a, d in zip(g, self.factors))

    def sub(self, g, h):
        return tuple((a - b) % d for a, b, d in zip(g, h, self.factors))

    def sum(self, gs):
        out = self.identity
        for g in gs:
            out = self.add(out, g)
        return out

    def elements(self):
        return [tuple(t) for t in itertools.product(*(range(d) for d in self.factors))]

    def __eq__(self, other):
        return isinstance(other, FiniteAbelianGroup) and self.factors == other.factors

    def __repr__(self):
        return "FiniteAbelianGroup(%r)" % (self.factors,)

class Bicharacter:
    """Exponent-matrix bicharacter on a finite abelian group.  Treated as
    immutable once built: it caches its roots of unity, eps exponents and
    eps table."""

    def __init__(self, group, expmat):
        if isinstance(group, (list, tuple)):
            group = FiniteAbelianGroup(group)
        self.group = group
        m = group.exponent
        mat = tuple(tuple(int(x) % m for x in row) for row in expmat)
        k = group.rank
        if len(mat) != k or any(len(row) != k for row in mat):
            raise ValueError("exponent matrix must be %d x %d" % (k, k))
        self.expmat = mat
        self.m = m
        self._positions = None
        self._roots = {}
        self._exponents = {}
        self._eps_table = None

    def eps_exponent(self, g, h):
        """g^T B h mod m.  Degrees are taken as raw int tuples; no reduction
        of the inputs is needed because everything lives mod m.  Each
        result is kept, keyed by (g, h) as given."""
        key = g, h
        e = self._exponents.get(key)
        if e is None:
            B = self.expmat
            total = 0
            for i, gi in enumerate(g):
                if gi:
                    row = B[i]
                    total += gi * sum(row[j] * h[j] for j in range(len(h)))
            e = self._exponents[key] = total % self.m
        return e

    def eps(self, g, h):
        return self.root(self.eps_exponent(g, h))

    def root(self, exponent):
        """zeta_m^exponent; one shared CycloRational per residue mod m,
        built when first asked for."""
        e = exponent % self.m
        r = self._roots.get(e)
        if r is None:
            r = self._roots[e] = CycloRational.root(self.m, e)
        return r

    def eps_table(self):
        """eps exponents over positions in the fixed order of G:
        table[a][b] = eps_exponent(g_a, g_b).  Row a is filled when first
        read, so a large group costs only the rows its degrees reach."""
        if self._eps_table is None:
            self._eps_table = _EpsRows(self)
        return self._eps_table

    def parity_bit(self, g):
        """0 for even, 1 for odd; raises if eps(g,g) is not +-1."""
        e = self.eps_exponent(g, g)
        if e == 0:
            return 0
        if 2 * e % self.m == 0:
            return 1
        raise ValueError("eps(g,g) is not a sign at g=%r; bicharacter invalid" % (g,))

    def even_elements(self):
        return [g for g in self.group.elements() if self.parity_bit(g) == 0]

    def odd_elements(self):
        return [g for g in self.group.elements() if self.parity_bit(g) == 1]

    def element_order(self):
        """The fixed enumeration of G: even elements first, identity first,
        lexicographic within each parity."""
        return sorted(self.group.elements(), key=lambda g: (self.parity_bit(g), g))

    def position(self, g):
        if self._positions is None:
            self._positions = {h: i for i, h in enumerate(self.element_order())}
        return self._positions[g]

    def __eq__(self, other):
        return (isinstance(other, Bicharacter)
                and self.group == other.group and self.expmat == other.expmat)

    def __repr__(self):
        return "Bicharacter(%r, %r)" % (self.group.factors, self.expmat)

class _EpsRows(dict):
    """The rows of Bicharacter.eps_table, keyed by position."""

    def __init__(self, chi):
        super().__init__()
        self.chi = chi
        self.elements = chi.element_order()

    def __missing__(self, a):
        g = self.elements[a]
        row = self[a] = [self.chi.eps_exponent(g, h) for h in self.elements]
        return row

@dataclass
class ValidationReport:
    failures: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.failures

    def add(self, msg):
        self.failures.append(msg)

    def __str__(self):
        if self.ok:
            return "valid"
        return "\n".join(self.failures)

def validate_bicharacter(chi):
    """Check the exponent-matrix constraints

      d_i B_ij = d_j B_ij = 0 and B_ij + B_ji = 0 (mod m)

    and return a ValidationReport listing every failure.  They imply the
    bicharacter axioms, so no pointwise pass is needed: g^T B h is
    biadditive over the integers and, by the factor conditions, well
    defined on G, so eps(f+g, h) = eps(f,h) eps(g,h) and likewise in h;
    eps(g,h) eps(h,g) = zeta_m^(g^T (B + B^T) h) = 1; and 2 g^T B g =
    g^T (B + B^T) g = 0 mod m gives eps(g,g) = +-1.
    """
    rep = ValidationReport()
    G = chi.group
    m = chi.m
    B = chi.expmat
    k = G.rank
    for i in range(k):
        for j in range(k):
            if (B[i][j] + B[j][i]) % m != 0:
                rep.add("skew-symmetry fails at entry (%d,%d): B_ij + B_ji = %d mod %d"
                        % (i + 1, j + 1, (B[i][j] + B[j][i]) % m, m))
            if (G.factors[i] * B[i][j]) % m != 0:
                rep.add("entry (%d,%d) not defined mod factor d_%d = %d"
                        % (i + 1, j + 1, i + 1, G.factors[i]))
            if (G.factors[j] * B[i][j]) % m != 0:
                rep.add("entry (%d,%d) not defined mod factor d_%d = %d"
                        % (i + 1, j + 1, j + 1, G.factors[j]))
    return rep
