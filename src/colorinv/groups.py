"""Finite abelian groups and skew-symmetric bicharacters.

A group G = Z_d1 x ... x Z_dk is given by its factor list; elements are
int tuples reduced mod the factors.  A bicharacter is encoded by an
exponent matrix B over Z_m, m = lcm(d_j) = exponent of G:

    eps(g, h) = zeta_m ** (g^T B h).

Skew-symmetry eps(g,h) eps(h,g) = 1 means B + B^T = 0 mod m, and
well-definedness on each factor needs d_i B_ij = d_j B_ij = 0 mod m.
These matrix checks imply the bicharacter axioms (validate_bicharacter),
and for such eps, eps(g,g) = +-1, which splits G into even and odd parts.

Outside this module a G-degree is one int: its position in the
bicharacter's fixed order of G (element_order), where the identity is 0
and even elements come first.  Bicharacter converts between the two forms
(position, element_order) and serves per-position tables, so the rest of
the package adds, negates and pairs degrees by lookup: eps exponents
(eps_table) and sums (sum_table), each row filled through the tuple
formulas when first read, so a large group costs only the rows its
degrees reach, and negation and parity (neg_table, parity_table), made
with the order.
"""

from __future__ import annotations

import itertools
import math

from .cyclo import CycloRational

class FiniteAbelianGroup:
    def __init__(self, factors):
        factors = tuple(int(d) for d in factors)
        if not factors or any(d < 1 for d in factors):
            raise ValueError("factors must be a nonempty list of positive ints")
        self.factors = factors
        self.exponent = math.lcm(*factors)
        self.order = math.prod(factors)

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

    def elements(self):
        return [tuple(t) for t in itertools.product(*(range(d) for d in self.factors))]

    def __eq__(self, other):
        return isinstance(other, FiniteAbelianGroup) and self.factors == other.factors

    def __repr__(self):
        return "FiniteAbelianGroup(%r)" % (self.factors,)

class Bicharacter:
    """Exponent-matrix bicharacter on a finite abelian group, with the
    fixed order of G and the tables over positions: eps_table[a][b] =
    eps_exponent(g_a, g_b), sum_table[a][b] the position of g_a + g_b,
    parity_table[a] the parity bit of g_a and neg_table[a] the position of
    -g_a.  Treated as immutable once built: it also caches its roots of
    unity."""

    def __init__(self, group, expmat):
        if isinstance(group, (list, tuple)):
            group = FiniteAbelianGroup(group)
        self.group = group
        m = group.exponent
        mat = tuple(tuple(int(x) % m for x in row) for row in expmat)
        k = len(group.factors)
        if len(mat) != k or any(len(row) != k for row in mat):
            raise ValueError("exponent matrix must be %d x %d" % (k, k))
        self.expmat = mat
        self.m = m
        self._roots = {}
        # eps(g,g) = +-1 once validate_bicharacter passes; odd when -1
        bits = {g: int(self.eps_exponent(g, g) != 0) for g in group.elements()}
        self._order = tuple(sorted(bits, key=lambda g: (bits[g], g)))
        pos = self._positions = {g: a for a, g in enumerate(self._order)}
        self.eps_table = _Rows(self._order, self.eps_exponent)
        self.sum_table = _Rows(self._order, lambda g, h: pos[group.add(g, h)])
        self.parity_table = [bits[g] for g in self._order]
        self.neg_table = [pos[group.neg(g)] for g in self._order]

    def eps_exponent(self, g, h):
        """g^T B h mod m over int tuples.  No reduction of the inputs is
        needed because everything lives mod m."""
        B = self.expmat
        total = 0
        for i, gi in enumerate(g):
            if gi:
                row = B[i]
                total += gi * sum(row[j] * h[j] for j in range(len(h)))
        return total % self.m

    def eps(self, a, b):
        """eps of the degrees at positions a and b."""
        return self.root(self.eps_table[a][b])

    def root(self, exponent):
        """zeta_m^exponent; one shared CycloRational per residue mod m,
        built when first asked for."""
        e = exponent % self.m
        r = self._roots.get(e)
        if r is None:
            r = self._roots[e] = CycloRational.root(self.m, e)
        return r

    def parity_bit(self, a):
        """0 when the degree at position a is even, 1 when it is odd."""
        return self.parity_table[a]

    def element_order(self):
        """The fixed enumeration of G, position -> int tuple: even elements
        first, identity first, lexicographic within each parity."""
        return self._order

    def position(self, g):
        """The position of an int tuple, reduced mod the factors."""
        return self._positions[self.group.element(g)]

    def degree_sum(self, positions):
        """The position of the sum of the degrees at the given positions."""
        d = 0
        for a in positions:
            d = self.sum_table[d][a]
        return d

    def __eq__(self, other):
        return (isinstance(other, Bicharacter)
                and self.group == other.group and self.expmat == other.expmat)

    def __repr__(self):
        return "Bicharacter(%r, %r)" % (self.group.factors, self.expmat)

class _Rows(dict):
    """A |G| x |G| table over positions, keyed by row: row a lists
    f(g_a, g_b) over the positions b, filled when first read."""

    def __init__(self, elements, f):
        super().__init__()
        self.elements = elements
        self.f = f

    def __missing__(self, a):
        g, f = self.elements[a], self.f
        row = self[a] = [f(g, h) for h in self.elements]
        return row

def validate_bicharacter(chi):
    """Check the exponent-matrix constraints

      d_i B_ij = d_j B_ij = 0 and B_ij + B_ji = 0 (mod m)

    and return the list of failure messages, empty when the bicharacter
    is valid.  They imply the bicharacter axioms, so no pointwise pass is
    needed: g^T B h is biadditive over the integers and, by the factor
    conditions, well defined on G, so eps(f+g, h) = eps(f,h) eps(g,h) and
    likewise in h; eps(g,h) eps(h,g) = zeta_m^(g^T (B + B^T) h) = 1; and
    2 g^T B g = g^T (B + B^T) g = 0 mod m gives eps(g,g) = +-1.
    """
    failures = []
    G = chi.group
    m = chi.m
    B = chi.expmat
    k = len(G.factors)
    for i in range(k):
        for j in range(k):
            if (B[i][j] + B[j][i]) % m != 0:
                failures.append(
                    "skew-symmetry fails at entry (%d,%d): B_ij + B_ji = %d mod %d"
                    % (i + 1, j + 1, (B[i][j] + B[j][i]) % m, m))
            if (G.factors[i] * B[i][j]) % m != 0:
                failures.append("entry (%d,%d) not defined mod factor d_%d = %d"
                                % (i + 1, j + 1, i + 1, G.factors[i]))
            if (G.factors[j] * B[i][j]) % m != 0:
                failures.append("entry (%d,%d) not defined mod factor d_%d = %d"
                                % (i + 1, j + 1, j + 1, G.factors[j]))
    return failures
