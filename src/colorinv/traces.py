"""Restitution of eps-symmetric polynomials and the trace calculus on
End(U) = U ox U*.

A W0Point is a degree-0 point of W: per summand a tensor in variance
(primal^b, dual^t) whose coefficient at each basis word is homogeneous of
the opposite G-degree, so every term has total degree identity.  On such
points restitution F^r is well defined on S(W*): a monomial V_1...V_r
pairs each variable with the matching basis word of the point and takes
the ordered product of the matched coefficients.  No extra sign appears;
because the coefficients carry the negated variable degrees, reordering
them tracks exactly the eps-symmetric relations of the monomials, which
is what makes the value independent of the representative word.
restitute walks the monomials in sorted order, so that each reuses the
products of the prefix it shares with the one before, and sums the
values c * F(monomial) in one epsalgebra.eps_sums call.

Elements of U ox U* act as operators by e_a ox e_c* . lam : e_b ->
delta_cb e_a eps(|lam|, g_b) lam, which fixes the composition and trace
rules below; tr(id) = m - n and tr(AB) = tr(BA) for degree preserving
arguments.
"""

from __future__ import annotations

from . import permutations as perms
from .epsalgebra import EpsAlgebra, eps_sums, hop
from .pictures import build_phi
from .sympoly import SymPolynomial
from .tensors import PRIMAL, DUAL, GradedTensor, GradedOperator

class W0Point:
    """A degree-0 point of W = (+)_i U_{b_i}^{t_i}."""

    def __init__(self, shape, alg, parts):
        self.shape = shape
        self.alg = alg
        self.parts = tuple(parts)
        shape.check_parts(self.parts, alg)
        neg = shape.chi.neg_table
        for i, u in enumerate(self.parts, start=1):
            for idx, lam in u.terms.items():
                d = neg[u.word_degree(idx)]
                if not lam.is_homogeneous_of(d):
                    raise ValueError(
                        "summand %d term %r has coefficient of degree != %r; "
                        "point is not degree 0"
                        % (i, idx, shape.chi.element_order()[d]))

    def part(self, i):
        return self.parts[i - 1]

def restitute_word(shape, word, point):
    """Evaluate an arbitrary sequence of variable ids (an element of
    T^r(W*)) at a point: the ordered product of the point coefficients at
    the variables' basis words, zero if any variable misses the point's
    support."""
    alg = point.alg
    vs = shape.numbering().variables
    acc = None
    for k in word:
        v = vs[k]
        lam = point.part(v.summand).terms.get(v.word())
        if lam is None:
            return alg.zero()
        # point coefficients are normal words: alg.one() * lam is a rotation
        acc = lam.times_root(0) if acc is None else acc * lam
        if not acc:
            return alg.zero()
    return alg.one() if acc is None else acc

def restitute(poly, point):
    """F^r on S(W*) at a degree-0 point, monomials evaluated on their
    canonical sorted representatives.  The input must be homogeneous: F^r
    is defined degree by degree, so a mix of total degrees is rejected,
    and a constant c restitutes to c * 1 at c's own order."""
    if poly.shape is not point.shape and poly.shape != point.shape:
        raise ValueError("polynomial and point live over different shapes")
    degrees = sorted({len(mono) for mono in poly.terms})
    if len(degrees) > 1:
        raise ValueError("restitution needs a homogeneous polynomial; "
                         "found total degrees %s" % degrees)
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

def transposition_sign_check(shape, word, i, point):
    """The adjacent-swap identity behind well-definedness on W_0:
    F(.. V_i ox V_{i+1} ..) = eps(|V_i|, |V_{i+1}|) F(.. V_{i+1} ox V_i ..).
    Returns True when it holds at this word and point.

    The general identity carries a second factor eps(|v|, |V_i| - |V_{i+1}|)
    depending on the degree of the point; on W_0 that degree is the identity
    and the factor is 1, so it is omitted here."""
    if not 1 <= i < len(word):
        raise ValueError("swap position out of range")
    chi = shape.chi
    swapped = list(word)
    swapped[i - 1], swapped[i] = swapped[i], swapped[i - 1]
    lhs = restitute_word(shape, tuple(word), point)
    degree = shape.numbering().degree
    e = chi.eps_table[degree[word[i - 1]]][degree[word[i]]]
    rhs = restitute_word(shape, tuple(swapped), point).times_root(e)
    return lhs == rhs

def staircase_point(shape, r):
    """The generic point used by the injectivity probe: one fresh
    eps-Grassmann generator per basis word of W, of the opposite degree, at
    strictly increasing filtration levels.  Returns (point, word index map).

    Distinct degree <= r monomials evaluate on it to distinct normal
    ordered words with unit coefficients, so a nonzero polynomial always
    leaves a nonzero certificate."""
    chi = shape.chi
    num = shape.numbering()
    words = [(i, w, k) for i in range(1, shape.s + 1)
             for w, k in zip(shape.index_words(i), num.codes[i - 1])]
    alg = EpsAlgebra(chi, [chi.neg_table[num.degree[k]] for _, _, k in words],
                     truncation=max(r, 1))
    index = {}
    parts_terms = [dict() for _ in shape.pairs]
    for j, (i, w, _) in enumerate(words, start=1):
        index[(i, w)] = j
        parts_terms[i - 1][w] = alg.gen(j)
    parts = [GradedTensor(shape.space, alg, shape.variance(i), terms)
             for i, terms in enumerate(parts_terms, start=1)]
    return W0Point(shape, alg, parts), index

def injectivity_probe(poly, r=None):
    """Restitute at the staircase point; for a polynomial of total degree
    <= r the result is zero exactly when the polynomial is zero, so a
    nonzero value certifies injectivity of restitution on its span.

    Mixed total degrees are fine here: each homogeneous component is
    restituted on its own, and the staircase values of different degrees
    are normal words of different lengths, so they cannot cancel."""
    if r is None:
        r = max((len(m) for m in poly.terms), default=0)
    point, _ = staircase_point(poly.shape, max(r, 1))
    total = point.alg.zero()
    for d in sorted({len(m) for m in poly.terms}):
        comp = SymPolynomial(poly.shape,
                             {m: c for m, c in poly.terms.items() if len(m) == d})
        total = total + restitute(comp, point)
    return total

# ---------------------------------------------------------------- End(U)

def u11_variance():
    return (PRIMAL, DUAL)

def identity_end(space, alg):
    terms = {(a, a): alg.one() for a in range(1, space.dim + 1)}
    return GradedTensor(space, alg, u11_variance(), terms)

def end_compose(x, y):
    """Composition in U ox U*: (e_a ox e_c* . lam)(e_b ox e_d* . mu) =
    delta_cb e_a ox e_d* . (eps(|lam|, g_b - g_d) lam mu), per word of
    lam."""
    if x.variance != u11_variance() or y.variance != u11_variance():
        raise ValueError("end_compose needs (primal, dual) words")
    if x.space != y.space or x.alg != y.alg:
        raise ValueError("operators over different spaces")
    add, neg = x.space.chi.sum_table, x.space.chi.neg_table
    sums = {}
    for (a, c), lam in x.terms.items():
        for (b, d), mu in y.terms.items():
            if c == b:
                shift = add[x.space.degree(b)][neg[x.space.degree(d)]]
                sums.setdefault((a, d), []).append((hop(lam, shift).terms, mu.terms))
    return x._like(eps_sums(x.alg, sums))

def end_trace(x):
    """tr(e_a ox e_c* . lam) = delta_ac eps(g_a, g_a) lam."""
    if x.variance != u11_variance():
        raise ValueError("end_trace needs a (primal, dual) word")
    table = x.space.chi.eps_table
    total = x.alg.zero()
    for (a, c), lam in x.terms.items():
        if a == c:
            total = total + lam.times_root(
                table[x.space.degree(a)][x.space.degree(a)])
    return total

def operator_to_end(T):
    """GradedOperator -> U ox U* word: entry T_ab = eps(|lam|, g_b) lam."""
    space = T.space
    out = {(a, b): hop(e, space.degree(b), invert=True)
           for (a, b), e in T.terms.items()}
    return GradedTensor(space, T.alg, u11_variance(), out)

def end_to_operator(x):
    if x.variance != u11_variance():
        raise ValueError("expected a (primal, dual) word")
    space = x.space
    return GradedOperator(space, x.alg,
                          {(a, b): hop(lam, space.degree(b))
                           for (a, b), lam in x.terms.items()})

def trace_monomial(ops, cyclist, assign=None):
    """Product over cycles of tr(A_{f(i_1)} ... A_{f(i_r)}), the operators
    composed in cycle order.  assign maps positions 1..N to operator
    indices (default: position j uses operator j)."""
    if not ops:
        raise ValueError("need at least one operator")
    alg = ops[0].alg
    positions = sorted(x for cyc in cyclist for x in cyc)
    n = len(positions)
    if positions != list(range(1, n + 1)):
        raise ValueError("cycles must partition 1..N")
    if assign is None:
        assign = list(range(1, n + 1))
    if len(assign) != n:
        raise ValueError("assignment has %d entries, but N=%d positions each "
                         "need an operator index in 1..%d"
                         % (len(assign), n, len(ops)))
    for pos, a in enumerate(assign, start=1):
        if not 1 <= a <= len(ops):
            raise ValueError("assignment entry %d at position %d of N=%d is "
                             "outside 1..%d" % (a, pos, n, len(ops)))
    total = alg.one()
    for cyc in sorted(cyclist, key=min):
        chain = ops[assign[cyc[0] - 1] - 1]
        for pos in cyc[1:]:
            chain = end_compose(chain, ops[assign[pos - 1] - 1])
        total = total * end_trace(chain)
    return total

def position_assignment(pshape):
    """For matrix shapes: which summand each of the N positions holds."""
    if any(len(lo) != 1 or len(up) != 1 for _, lo, up in pshape.layout):
        raise ValueError("trace monomials need matrix shape summands (1,1)")
    return [i for i, _, _ in pshape.layout]

def trace_match(pshape, sigma, point, phi=None):
    """Compare restitution of phi_sigma at a degree-0 matrix point with the
    product of cycle traces of sigma^{-1}.  Returns (match, lhs, rhs)."""
    assign = position_assignment(pshape)
    if phi is None:
        phi = build_phi(pshape, sigma)
    lhs = restitute(phi.poly, point)
    cyclist = perms.cycles(perms.inverse(sigma))
    rhs = trace_monomial(list(point.parts), cyclist, assign)
    return lhs == rhs, lhs, rhs
