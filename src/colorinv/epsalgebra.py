"""Truncated eps-Grassmann algebras, and the sparse term core, eps-sort and
word enumerator that S(W*) shares with them.

Lambda_eps has generators x_1, x_2, ... with G-degrees fixed at construction
(positions in the bicharacter's fixed order of G, as everywhere outside
groups) and relations  x_a x_b = eps(|x_a|, |x_b|) x_b x_a  for a != b, and
x_a^2 = 0 when x_a is odd.  A basis is given by normal-ordered words: index
sequences that are nondecreasing, strictly increasing at odd generators.
Words longer than the truncation bound D are set to zero, which makes the
algebra finite dimensional and every strictly generator-supported element
nilpotent.

S(W*) is the quotient by the same relation, so both algebras have one
normal form and one basis over integer ids: eps_sort is the insertion sort
that reaches the normal form, reading each swap's eps exponent off the
bicharacter's eps_table, and sorted_words lists the basis words.

Terms holds the arithmetic of sparse sums {key: nonzero coefficient} for
EpsElement here and for SymPolynomial, GradedTensor and GradedOperator:
sums, negation, scaling, equality, the check that both operands live in
one place, and the one G-degree of a sum.  Representation is canonical,
so equality is dict comparison.  Sums filter out the zeros they make;
negation, hop and scaling by a nonzero scalar cannot make one, so they
build their result unfiltered.

A sign is its exponent e of zeta_m, unreduced as eps_sort leaves it, and
a coefficient takes it by a rotation, never as a product with a root.
normal_order keeps each algebra's memo of normal forms, keyed by the word:
the sort and its exponent depend only on the generator degrees, and
products meet the same few words again and again.  eps_product is the one
product of EpsElements and of SymPolynomials, and of their sums of
products: it groups the pairs of words of a list of (left, right) term
dicts by normal word, and cyclo.product_sums turns each word's (c1, c2,
exponent) triples into one coefficient in integer arithmetic.  (build_phi
multiplies integer counts per exponent instead, merging sorted monomials
in pictures._mul_counts.)  eps_sums makes one EpsElement
per key of {key: [pairs]}, for callers whose entries are sums.  hop and
the place permutation action rotate by times_root, and word degrees,
summed through the bicharacter's sum_table, are memoized too.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import itemgetter

from .cyclo import CycloRational, as_cyclo, product_sums

SCALARS = (int, Fraction, CycloRational)

class Terms:
    """A sparse sum {key: nonzero coefficient}, coefficients CycloRationals
    or EpsElements.  Subclasses hold `terms` and their place (algebra,
    space, shape, variance) and supply two hooks: _like(terms) builds an
    element at self's place from a dict known to hold no zero, without
    filtering, and _same(other) tells whether other lives at that place.
    Scalars of the types in _scalars enter + and -, and those in
    _eq_scalars enter ==, as multiples of the empty key ()."""

    __slots__ = ()
    _scalars = _eq_scalars = ()

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def terms_sorted(self):
        """The (key, coefficient) pairs in increasing key order.  Keys are
        unique, so the sort compares keys only, never coefficients."""
        return sorted(self.terms.items(), key=itemgetter(0))

    def _check(self, other):
        if not self._same(other):
            raise ValueError("%s operands live in different places"
                             % type(self).__name__)

    def _operand(self, other, scalars):
        """A scalar other as an element beside self, or None."""
        if isinstance(other, scalars):
            c = as_cyclo(other)
            return self._like({(): c} if c else {})
        return None

    def __add__(self, other):
        if type(other) is not type(self):
            other = self._operand(other, self._scalars)
            if other is None:
                return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            s = out.get(w)
            out[w] = c if s is None else s + c
        return self._like({w: c for w, c in out.items() if c})

    __radd__ = __add__

    def __neg__(self):
        return self._like({w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    @staticmethod
    def _single_degree(degrees):
        """The one G-degree among degrees: the identity when there is none,
        None when they are not all the same."""
        degrees = set(degrees)
        if len(degrees) > 1:
            return None
        return degrees.pop() if degrees else 0

    def scale(self, c):
        """Multiple by a central scalar."""
        c = as_cyclo(c)
        if not c:
            return self._like({})
        return self._like({w: x.scale(c) for w, x in self.terms.items()})

    def __eq__(self, other):
        if type(other) is not type(self):
            other = self._operand(other, self._eq_scalars)
            if other is None:
                return NotImplemented
        return self._same(other) and self.terms == other.terms

    __hash__ = None

def eps_sort(word, degree, parity, table):
    """Sort a word of integer ids into nondecreasing order by insertion,
    collecting the eps swap factor: each time id y hops left past a larger
    id x the word picks up eps(|x|, |y|) = zeta_m^table[degree[x]][degree[y]],
    table the bicharacter's eps_table and degree[id] the id's G-degree.
    Returns (exponent, sorted tuple), the exponent not reduced mod m, or
    None when an id with parity[id] set repeats and the word is zero."""
    items = list(word)
    exp = 0
    for i in range(1, len(items)):
        x = items[i]
        dx = degree[x]
        j = i
        while j > 0 and items[j - 1] > x:
            exp += table[degree[items[j - 1]]][dx]
            items[j] = items[j - 1]
            j -= 1
        items[j] = x
    for a, b in zip(items, items[1:]):
        if a == b and parity[a]:
            return None
    return exp, tuple(items)

def sorted_words(ids, parity, max_len):
    """The normal-ordered words over the increasing ids with at most
    max_len letters: nondecreasing, strictly increasing at ids with
    parity[id] set.  Depth first off a stack of (word, next index), each
    word before its extensions and siblings in increasing order, so the
    list is in lexicographic order."""
    ids = tuple(ids)
    out = []
    stack = [((), 0)]
    while stack:
        word, start = stack.pop()
        out.append(word)
        if len(word) < max_len:
            for k in range(len(ids) - 1, start - 1, -1):
                i = ids[k]
                stack.append((word + (i,), k + parity[i]))
    return out

class EpsAlgebra:
    """Generator degree table plus truncation bound; the element factory."""

    def __init__(self, chi, gen_degrees, truncation=4):
        self.chi = chi
        if truncation < 0:
            raise ValueError("truncation must be nonnegative")
        self.truncation = truncation
        # G-degree and parity by generator index, entry 0 unused: what
        # eps_sort, sorted_words and word_degree read
        self._degrees = (0,) + tuple(gen_degrees)
        self._parity = tuple(chi.parity_table[d] for d in self._degrees)
        # by length bound: {degree: normal-ordered words of that degree}
        self._words = {}
        # (eps exponent, sorted word) or None, by word
        self._normal = {}
        # G-degree by word
        self._word_degrees = {}

    @property
    def ngens(self):
        return len(self._degrees) - 1

    def degree(self, i):
        """G-degree of generator x_i (1-based)."""
        return self._degrees[i]

    def word_degree(self, word):
        d = self._word_degrees.get(word)
        if d is None:
            degs = self._degrees
            d = self._word_degrees[word] = self.chi.degree_sum(degs[i] for i in word)
        return d

    def zero(self):
        return EpsElement(self, {})

    def one(self):
        return EpsElement(self, {(): CycloRational.one()})

    def scalar(self, c):
        c = as_cyclo(c)
        return EpsElement(self, {(): c} if c else {})

    def gen(self, i):
        if not 1 <= i <= self.ngens:
            raise ValueError("generator index %d out of range 1..%d" % (i, self.ngens))
        if self.truncation < 1:
            return self.zero()
        return EpsElement(self, {(i,): CycloRational.one()})

    def monomial(self, word, coeff=1):
        res = normal_order(self, word)
        if res is None:
            return self.zero()
        e, w = res
        if len(w) > self.truncation:
            return self.zero()
        c = as_cyclo(coeff).times_root(self.chi.m, e)
        return EpsElement(self, {w: c} if c else {})

    def __eq__(self, other):
        return (isinstance(other, EpsAlgebra) and self.chi == other.chi
                and self._degrees == other._degrees
                and self.truncation == other.truncation)

def normal_order(alg, word):
    """Sort a generator index sequence into normal order, collecting the
    eps swap factor.  Returns eps_sort's (exponent, sorted word), or None
    when the word contains a repeated odd generator and is therefore zero.

    Each time index a hops left past index b the word picks up the factor
    eps(|x_b|, |x_a|) from rewriting x_b x_a.  The result is kept in the
    algebra's memo, keyed by the word.
    """
    memo, word = alg._normal, tuple(word)
    if word not in memo:
        memo[word] = eps_sort(word, alg._degrees, alg._parity, alg.chi.eps_table)
    return memo[word]

def eps_product(pairs, normalize, ctx, m, bound=math.inf):
    """The sum of left * right over a list of (left, right) {word:
    coefficient} dicts: each pair of words no longer than bound together
    is put in normal form by normalize(ctx, word), normal_order or
    sym_normalize, and product_sums makes each normal word's coefficient
    from its (c1, c2, swap exponent) triples.  A word's `order` is the lcm
    of m and of every operand order that meets there, the order of the
    sum of the single products whenever every operand order divides m."""
    groups = {}
    for left, right in pairs:
        for w1, c1 in left.items():
            room = bound - len(w1)
            for w2, c2 in right.items():
                if len(w2) <= room:
                    res = normalize(ctx, w1 + w2)
                    if res is not None:
                        groups.setdefault(res[1], []).append((c1, c2, res[0]))
    return product_sums(groups, m) if groups else {}

def eps_sums(alg, sums):
    """{key: the EpsElement eps_product of the key's pairs of term
    dicts}, keys whose sum is zero left out."""
    m, bound = alg.chi.m, alg.truncation
    out = {}
    for key, pairs in sums.items():
        terms = eps_product(pairs, normal_order, alg, m, bound)
        if terms:
            elem = out[key] = object.__new__(EpsElement)
            elem.alg, elem.terms = alg, terms
    return out

class EpsElement(Terms):
    """Element of a truncated eps-Grassmann algebra: {word: CycloRational}.
    Treated as immutable."""

    __slots__ = ("alg", "terms")
    _scalars = _eq_scalars = SCALARS

    def __init__(self, alg, terms):
        self.alg = alg
        self.terms = {w: c for w, c in terms.items() if c}

    def _like(self, terms):
        elem = object.__new__(EpsElement)
        elem.alg = self.alg
        elem.terms = terms
        return elem

    def _same(self, other):
        return self.alg is other.alg or self.alg == other.alg

    def times_root(self, e):
        """self * zeta_m^e, m the bicharacter's root order: one rotation
        per coefficient."""
        m = self.alg.chi.m
        return self._like({w: c.times_root(m, e) for w, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, EpsElement):
            return NotImplemented
        self._check(other)
        alg = self.alg
        return self._like(eps_product([(self.terms, other.terms)], normal_order, alg,
                                      alg.chi.m, alg.truncation))

    def g_degree(self):
        """Common G-degree of all words, or None when inhomogeneous.
        The zero element is homogeneous of every degree; returns the
        identity for it."""
        return self._single_degree(map(self.alg.word_degree, self.terms))

    def is_homogeneous_of(self, d):
        return all(self.alg.word_degree(w) == d for w in self.terms)

    def constant_part(self):
        return self.terms.get((), CycloRational.zero())

    def proper_part(self):
        """The component supported on nonempty words."""
        return EpsElement(self.alg, {w: c for w, c in self.terms.items() if w})

    def __str__(self):
        from . import textform
        return textform.format_eps(self)

    def __repr__(self):
        return "EpsElement(%s)" % (str(self),)

def add_term(terms, w, c):
    """terms[w] += c, w dropped when the sum is zero, as EpsElement sums do."""
    s = terms.get(w)
    s = c if s is None else s + c
    if s:
        terms[w] = s
    else:
        terms.pop(w, None)

def hop(elem, d, invert=False, shift=0):
    """Move an element of Lambda_eps past a basis factor of G-degree d:
    each word w picks up eps(|w|, d) (or its inverse), and zeta_m^shift
    besides, in one rotation of its coefficient."""
    alg = elem.alg
    m = alg.chi.m
    table = alg.chi.eps_table
    out = {}
    for w, c in elem.terms.items():
        e = table[alg.word_degree(w)][d]
        out[w] = c.times_root(m, shift - e if invert else shift + e)
    return elem._like(out)

def filtration_member(elem, N):
    """True when every word uses only generators x_1 .. x_N."""
    return all(all(i <= N for i in w) for w in elem.terms)

def filtration_level(elem):
    """Smallest N with elem in Lambda_eps(N); 0 for scalars."""
    return max((max(w) for w in elem.terms if w), default=0)

def words_of_degree(alg, d, max_len=None):
    """All normal-ordered basis words of the given G-degree with length up
    to max_len (default: the truncation bound), in lexicographic order.
    The empty word is included when d is the identity.  A d that is not a
    position of G raises ValueError.  The algebra sorts the words of each
    length bound by degree once; callers get a fresh list."""
    if d not in range(alg.chi.group.order):
        raise ValueError("degree %r is not a position in 0..%d"
                         % (d, alg.chi.group.order - 1))
    if max_len is None:
        max_len = alg.truncation
    max_len = min(max_len, alg.truncation)
    by_degree = alg._words.get(max_len)
    if by_degree is None:
        by_degree = alg._words[max_len] = {}
        for w in sorted_words(range(1, alg.ngens + 1), alg._parity, max_len):
            by_degree.setdefault(alg.word_degree(w), []).append(w)
    return list(by_degree.get(d, ()))
