"""The eps-symmetric algebra on the dual of a mixed tensor space.

W = U_{b_1}^{t_1} (+) ... (+) U_{b_s}^{t_s} is a direct sum of mixed tensor
powers of a graded space U.  The coordinate functions on W are the
variables T(i)[l_1..l_b]^[u_1..u_t], one per basis word of summand i, with
G-degree sum(g_l) - sum(g_u).  S(W*) is the quotient of the tensor algebra
by  v ox w - eps(|v|, |w|) w ox v,  so monomials have the canonical sorted
form produced by sym_normalize, and a monomial containing a repeated odd
variable is zero.

Variables are ordered by (G-degree, summand, index tuples), a G-degree
being its position in the fixed order of G; any total order compatible
with the degree blocks yields an equivalent basis.

Each MixedShape numbers its variables 0..n-1 in that order (its
Numbering), the one table of W's variables: it works out each basis
word's degree once.  Inside colorinv a variable is its id, and comparing
ids is comparing sort keys: SymPolynomial.terms maps sorted id tuples to
coefficients, and sym_normalize, the product, enumerate_sym_basis,
from_word and the point builders of sampling and traces read each id's
degree, parity and SymVariable record off the Numbering.  A SymVariable
is met only at the text boundary: var_id is the one validating
conversion from it, used by parse_sym, and format_sym names an id at
print time.  S(W*) and Lambda_eps share their normal form, basis and
term arithmetic, all from epsalgebra: sym_normalize is eps_sort, the one
eps insertion sort, and returns its swap exponent, which from_word applies
by times_root; enumerate_sym_basis filters sorted_words; SymPolynomial
sums, scales and compares through Terms.  SymPolynomial's product is
epsalgebra.eps_product with sym_normalize as the normal form, the same
product as Lambda_eps's.  build_phi multiplies sorted monomials by a
merge of its own instead (pictures._mul_counts), which gives what
sym_normalize gives for their concatenation; the product stays on the
full sort, so the two paths referee each other.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

from .cyclo import CycloRational, as_cyclo
from .epsalgebra import SCALARS, Terms, eps_product, eps_sort, sorted_words
from . import permutations as perms
from .tensors import PRIMAL, DUAL, gamma_exponent

class SymVariable(NamedTuple):
    """Coordinate function on summand i: lower indices are the primal slots,
    upper indices the dual slots of the underlying basis word."""
    summand: int
    lower: tuple
    upper: tuple

    def word(self):
        return self.lower + self.upper

class Numbering(NamedTuple):
    """The one table of W's variables, numbered 0..n-1 in canonical order.

    variables: id -> SymVariable, and ids: SymVariable -> id;
    codes: per summand, a list from the mixed-radix code of a variable's
        index word (lower + upper, digits index - 1, base dim, first index
        most significant; its place in index_words(i)) to its id;
    parity: id -> parity bit of its G-degree;
    degree: id -> its G-degree, sum(g_l) - sum(g_u)."""
    variables: tuple
    ids: dict
    codes: tuple
    parity: list
    degree: list

class MixedShape:
    """The space W: a graded space plus the list of (b_i, t_i) pairs.
    Treated as immutable once built: it keeps the numbering of its
    variables."""

    def __init__(self, space, pairs):
        self.space = space
        self.pairs = tuple((int(b), int(t)) for b, t in pairs)
        if any(b < 0 or t < 0 for b, t in self.pairs):
            raise ValueError("summand shapes must be nonnegative")
        self._numbering = None

    @property
    def s(self):
        return len(self.pairs)

    @property
    def chi(self):
        return self.space.chi

    def check_variable(self, v):
        if not 1 <= v.summand <= self.s:
            raise ValueError("summand index %d out of range" % v.summand)
        b, t = self.pairs[v.summand - 1]
        if len(v.lower) != b or len(v.upper) != t:
            raise ValueError("variable %r does not fit summand shape (%d,%d)"
                             % (v, b, t))
        if not all(1 <= i <= self.space.dim for i in v.word()):
            raise ValueError("variable index out of range in %r" % (v,))

    def var_id(self, v):
        """The id of a SymVariable.  ids holds exactly the shape's
        variables, so only a miss calls check_variable, for its message."""
        try:
            return self.numbering().ids[v]
        except KeyError:
            self.check_variable(v)
            raise

    def variance(self, i):
        """Slot variances of summand i: b_i primal, then t_i dual."""
        b, t = self.pairs[i - 1]
        return (PRIMAL,) * b + (DUAL,) * t

    def check_parts(self, parts, alg=None):
        """Refuse tensors unless one per summand, each in its summand's
        variance, over this space and one algebra (alg, else the first's)."""
        if len(parts) != self.s:
            raise ValueError("need one tensor per summand")
        for i, u in enumerate(parts, start=1):
            alg = u.alg if alg is None else alg
            if u.variance != self.variance(i):
                raise ValueError("summand %d tensor has wrong variance" % i)
            if not ((u.space is self.space or u.space == self.space)
                    and (u.alg is alg or u.alg == alg)):
                raise ValueError("summand %d tensor over wrong space or algebra" % i)

    def index_words(self, i):
        """The basis words of summand i, lower then upper indices, in
        lexicographic order."""
        return itertools.product(range(1, self.space.dim + 1),
                                 repeat=sum(self.pairs[i - 1]))

    def numbering(self):
        """The Numbering of the variables, built on first use: each basis
        word's degree is summed once from the slot table, and the words
        are sorted by (degree position, summand, word)."""
        if self._numbering is None:
            chi, table = self.chi, self.space.slot_table
            rows = []
            for i, (b, _) in enumerate(self.pairs, start=1):
                var = self.variance(i)
                for code, w in enumerate(self.index_words(i)):
                    d = chi.degree_sum(table[v][x - 1] for v, x in zip(var, w))
                    rows.append((d, i, code, SymVariable(i, w[:b], w[b:])))
            rows.sort()
            codes = [[None] * self.space.dim ** (b + t) for b, t in self.pairs]
            for k, (_, i, code, _) in enumerate(rows):
                codes[i - 1][code] = k
            vs = tuple(row[3] for row in rows)
            self._numbering = Numbering(
                vs, {v: k for k, v in enumerate(vs)}, tuple(codes),
                [chi.parity_table[row[0]] for row in rows], [row[0] for row in rows])
        return self._numbering

    def __eq__(self, other):
        return (isinstance(other, MixedShape) and self.space == other.space
                and self.pairs == other.pairs)

    def __repr__(self):
        return "MixedShape(%r)" % (list(self.pairs),)

def sym_normalize(shape, seq):
    """Sort a sequence of variable ids into canonical order collecting eps
    swap factors: eps_sort's (exponent, sorted id tuple), the factor being
    zeta_m^exponent, or None when a repeated odd variable makes it zero."""
    num = shape.numbering()
    return eps_sort(seq, num.degree, num.parity, shape.chi.eps_table)

class SymPolynomial(Terms):
    """Element of S(W*): {sorted id tuple: CycloRational}.  Immutable."""

    __slots__ = ("shape", "terms")
    _scalars = SCALARS

    def __init__(self, shape, terms):
        self.shape = shape
        self.terms = {m: c for m, c in terms.items() if c}

    def _like(self, terms):
        poly = object.__new__(SymPolynomial)
        poly.shape = self.shape
        poly.terms = terms
        return poly

    def _same(self, other):
        return self.shape is other.shape or self.shape == other.shape

    @classmethod
    def zero(cls, shape):
        return cls(shape, {})

    @classmethod
    def from_word(cls, shape, seq, coeff=1):
        """Image of an arbitrary sequence of variable ids in S(W*)."""
        n = len(shape.numbering().variables)
        for k in seq:
            if not isinstance(k, int):
                raise ValueError("variable id %r is not an int" % (k,))
            if not 0 <= k < n:
                raise ValueError("variable id %r out of range 0..%d" % (k, n - 1))
        res = sym_normalize(shape, seq)
        if res is None:
            return cls.zero(shape)
        e, mono = res
        c = as_cyclo(coeff).times_root(shape.chi.m, e)
        return cls(shape, {mono: c} if c else {})

    def __mul__(self, other):
        if not isinstance(other, SymPolynomial):
            return NotImplemented
        self._check(other)
        return self._like(eps_product([(self.terms, other.terms)], sym_normalize,
                                      self.shape, self.shape.chi.m))

    def g_degree(self):
        """Common G-degree of the monomials, or None if inhomogeneous;
        zero counts as homogeneous of degree identity."""
        chi, degree = self.shape.chi, self.shape.numbering().degree
        return self._single_degree(chi.degree_sum(degree[k] for k in m)
                                   for m in self.terms)

    def __str__(self):
        from . import textform
        return textform.format_sym(self)

    def __repr__(self):
        return "SymPolynomial(%s)" % (str(self),)

def enumerate_sym_basis(shape, r, multidegree=None):
    """Sorted monomials of total degree r (optionally of a fixed summand
    multidegree) as id tuples: nondecreasing, odd ids strictly increasing,
    in lexicographic order."""
    num = shape.numbering()
    out = []
    for word in sorted_words(range(len(num.variables)), num.parity, r):
        if len(word) != r:
            continue
        if multidegree is not None:
            counts = [0] * shape.s
            for k in word:
                counts[num.variables[k].summand - 1] += 1
            if tuple(counts) != tuple(multidegree):
                continue
        out.append(word)
    return out

def sym_dimension(shape, r):
    """dim S^r(W*) from the generating function
    prod_even 1/(1-q) * prod_odd (1+q) over the variables, counted in ints:
    the series has integer coefficients."""
    coeffs = [1] + [0] * r
    for odd in shape.numbering().parity:
        if odd:
            # multiply by (1 + q)
            for k in range(r, 0, -1):
                coeffs[k] += coeffs[k - 1]
        else:
            # multiply by 1/(1-q): running partial sums
            for k in range(1, r + 1):
                coeffs[k] += coeffs[k - 1]
    return coeffs[r]

def symmetrize(shape, seq):
    """Image under the symmetrization e(r): the average over S_r of the
    signed place permutation action on a word of variable ids, pushed down
    to S(W*)."""
    r = len(seq)
    chi = shape.chi
    degree = shape.numbering().degree
    degs = tuple(degree[k] for k in seq)
    out = SymPolynomial.zero(shape)
    for sigma in perms.all_perms(r):
        e = gamma_exponent(chi, degs, sigma)
        word = perms.act_tuple(sigma, tuple(seq))
        out = out + SymPolynomial.from_word(shape, word, chi.root(e))
    return out.scale(CycloRational.from_rational(1, math.factorial(r)))
