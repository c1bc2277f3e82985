"""Truncated eps-Grassmann algebras.

Lambda_eps has generators x_1, x_2, ... with G-degrees fixed at construction
and relations  x_a x_b = eps(|x_a|, |x_b|) x_b x_a  for a != b, and
x_a^2 = 0 when x_a is odd.  A basis is given by normal-ordered words: index
sequences that are nondecreasing, strictly increasing at odd generators.
Words longer than the truncation bound D are set to zero, which makes the
algebra finite dimensional and every strictly generator-supported element
nilpotent.

Elements store {word: CycloRational} with zero coefficients dropped, so
representation is canonical and equality is dict comparison.  Sums and
products filter out the zeros they make; negation, hop and scaling by a
nonzero scalar cannot make one, so they build their result unfiltered.

Each algebra keeps a memo of normal forms, keyed by the word: the sort and
its eps sign depend only on the generator degrees, and products meet the
same few words again and again.  The memo holds the sign as an exponent e
of zeta_m, not as a CycloRational, so a product rotates each pair of
coefficients once, (c1 * c2).times_root(m, e), instead of multiplying by a
root.  Signs elsewhere (hop, the place permutation action) travel the same
way, and word degrees are memoized per algebra too.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclo import CycloRational, as_cyclo

class EpsAlgebra:
    """Generator degree table plus truncation bound; the element factory."""

    def __init__(self, chi, gen_degrees, truncation=4):
        self.chi = chi
        self.gen_degrees = tuple(chi.group.element(g) for g in gen_degrees)
        if truncation < 0:
            raise ValueError("truncation must be nonnegative")
        self.truncation = truncation
        # parity of each generator; also validates eps(g,g) = +-1
        self.gen_parity = tuple(chi.parity_bit(g) for g in self.gen_degrees)
        # words_of_degree results by (degree, length bound)
        self._words = {}
        # (eps exponent, sorted word) or None, by word
        self._normal = {}
        # G-degree by word
        self._word_degrees = {}

    @property
    def ngens(self):
        return len(self.gen_degrees)

    def degree(self, i):
        """G-degree of generator x_i (1-based)."""
        return self.gen_degrees[i - 1]

    def word_degree(self, word):
        d = self._word_degrees.get(word)
        if d is None:
            d = self._word_degrees[word] = self.chi.group.sum(
                self.degree(i) for i in word)
        return d

    def with_generators(self, extra_degrees, truncation=None):
        t = self.truncation if truncation is None else truncation
        return EpsAlgebra(self.chi, self.gen_degrees + tuple(extra_degrees), t)

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
        c, w = res
        if len(w) > self.truncation:
            return self.zero()
        c = c * as_cyclo(coeff)
        return EpsElement(self, {w: c} if c else {})

    def __eq__(self, other):
        return (isinstance(other, EpsAlgebra) and self.chi == other.chi
                and self.gen_degrees == other.gen_degrees
                and self.truncation == other.truncation)

def normal_order(alg, word):
    """Sort a generator index sequence into normal order, collecting the
    eps swap factor.  Returns (coefficient, sorted word), or None when the
    word contains a repeated odd generator and is therefore zero.

    Insertion sort; each time index a hops left past index b the word picks
    up the factor eps(|x_b|, |x_a|) from rewriting x_b x_a.  The sort is
    kept in the algebra's memo, with the factor as an exponent.
    """
    res = _normal_form(alg, tuple(word))
    if res is None:
        return None
    e, w = res
    return alg.chi.root(e), w

def _normal_form(alg, word):
    """(eps exponent, sorted word) or None, through the algebra's memo."""
    try:
        return alg._normal[word]
    except KeyError:
        res = alg._normal[word] = _sort_word(alg, word)
        return res

def _sort_word(alg, word):
    chi = alg.chi
    items = list(word)
    exp = 0
    for i in range(1, len(items)):
        j = i
        while j > 0 and items[j - 1] > items[j]:
            exp += chi.eps_exponent(alg.degree(items[j - 1]), alg.degree(items[j]))
            items[j - 1], items[j] = items[j], items[j - 1]
            j -= 1
    for a, b in zip(items, items[1:]):
        if a == b and alg.gen_parity[a - 1]:
            return None
    return exp % chi.m, tuple(items)

class EpsElement:
    """Element of a truncated eps-Grassmann algebra.  Treated as immutable."""

    __slots__ = ("alg", "terms")

    def __init__(self, alg, terms):
        self.alg = alg
        self.terms = {w: c for w, c in terms.items() if c}

    @classmethod
    def _nonzero(cls, alg, terms):
        """Build from a term dict known to hold no zero coefficient."""
        elem = object.__new__(cls)
        elem.alg = alg
        elem.terms = terms
        return elem

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def _check(self, other):
        if self.alg is not other.alg and self.alg != other.alg:
            raise ValueError("elements from different eps-Grassmann algebras")

    def __add__(self, other):
        if isinstance(other, (int, Fraction, CycloRational)):
            other = self.alg.scalar(other)
        if not isinstance(other, EpsElement):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            s = out.get(w)
            out[w] = c if s is None else s + c
        return EpsElement(self.alg, out)

    __radd__ = __add__

    def __neg__(self):
        return EpsElement._nonzero(self.alg, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, EpsElement) else -as_cyclo(other))

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c):
        c = as_cyclo(c)
        if not c:
            return self.alg.zero()
        return EpsElement._nonzero(self.alg, {w: c * x for w, x in self.terms.items()})

    def times_root(self, e):
        """self * zeta_m^e, m the bicharacter's root order: one rotation
        per coefficient."""
        m = self.alg.chi.m
        return EpsElement._nonzero(
            self.alg, {w: c.times_root(m, e) for w, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CycloRational)):
            return self.scale(other)
        if not isinstance(other, EpsElement):
            return NotImplemented
        self._check(other)
        alg = self.alg
        m = alg.chi.m
        out = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                if len(w1) + len(w2) > alg.truncation:
                    continue
                res = _normal_form(alg, w1 + w2)
                if res is None:
                    continue
                e, w = res
                c = (c1 * c2).times_root(m, e)
                prev = out.get(w)
                out[w] = c if prev is None else prev + c
        return EpsElement(alg, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, CycloRational)):
            return self.scale(other)
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, CycloRational)):
            other = self.alg.scalar(other)
        if not isinstance(other, EpsElement):
            return NotImplemented
        return ((self.alg is other.alg or self.alg == other.alg)
                and self.terms == other.terms)

    __hash__ = None

    def g_degree(self):
        """Common G-degree of all words, or None when inhomogeneous.
        The zero element is homogeneous of every degree; returns the
        identity for it."""
        alg = self.alg
        degs = {alg.word_degree(w) for w in self.terms}
        if not degs:
            return alg.chi.group.identity
        if len(degs) > 1:
            return None
        return degs.pop()

    def is_homogeneous_of(self, d):
        d = self.alg.chi.group.element(d)
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
    chi = alg.chi
    m = chi.m
    out = {}
    for w, c in elem.terms.items():
        e = chi.eps_exponent(alg.word_degree(w), d)
        out[w] = c.times_root(m, shift - e if invert else shift + e)
    return EpsElement._nonzero(alg, out)

def filtration_member(elem, N):
    """True when every word uses only generators x_1 .. x_N."""
    return all(all(i <= N for i in w) for w in elem.terms)

def filtration_level(elem):
    """Smallest N with elem in Lambda_eps(N); 0 for scalars."""
    return max((max(w) for w in elem.terms if w), default=0)

def words_of_degree(alg, d, max_len=None):
    """All normal-ordered basis words of the given G-degree with length up
    to max_len (default: the truncation bound).  The empty word is included
    when d is the identity.  The algebra keeps each result; callers get a
    fresh list."""
    if max_len is None:
        max_len = alg.truncation
    max_len = min(max_len, alg.truncation)
    d = alg.chi.group.element(d)
    words = alg._words.get((d, max_len))
    if words is None:
        words = alg._words[d, max_len] = tuple(_enumerate_words(alg, d, max_len))
    return list(words)

def _enumerate_words(alg, d, max_len):
    grp = alg.chi.group
    out = []

    def extend(word, deg, start):
        if deg == d:
            out.append(tuple(word))
        if len(word) == max_len:
            return
        for i in range(start, alg.ngens + 1):
            if word and word[-1] == i and alg.gen_parity[i - 1]:
                continue
            word.append(i)
            extend(word, grp.add(deg, alg.degree(i)), i)
            word.pop()

    extend([], grp.identity, 1)
    return out
