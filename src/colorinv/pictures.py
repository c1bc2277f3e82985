"""Picture invariants phi_sigma and their two evaluation paths.

For a mixed shape with multiplicities m_1..m_s, the blocked space is
(U_{b_1}^{t_1})^{ox m_1} ox ... ; its words list, per copy, b_i primal then
t_i dual slots.  mu is the permutation moving a blocked word into sorted
variance (all primal slots first, original order kept within each half).
PictureShape sums N and N' over its pairs and builds this layout on first
read: per copy in blocked order, its summand and its lower and upper
positions in the primal and the dual half of sorted variance.  mu, the
SigmaPlan and the blocked word all read it.

A picture invariant is a polynomial in S(W*) built so that its restitution
at u agrees with the functional evaluation

    T_sigma(u ox ... ox u) = ev(nu . tau . (sigma_hat . mu . blocked)),

the right side computed here by t_sigma_on_parts.  Theta contracts
adjacent final slots; contraction_pairs pulls those N pairs back through
the index moves of mu, sigma_hat, tau and nu to blocked positions, and
blocked_word builds the blocked tensor as a hash join on them, so only
terms that survive contraction are multiplied or moved.  The four moves
still act on the survivors through act_perm, each with its own sign.

The polynomial's monomial at index tuple I = (r_1..r_N) uses, for copy
(i,j), lower indices r at the copy's primal positions and upper indices
r o sigma^{-1} at its dual positions; the coefficient is the
rearrangement sign gamma(J, rho^{-1}) with rho = nu tau sigma_hat mu and J
the blocked degree tuple, times the dual-word normalization of the w-block
degrees.

build_phi does not sum over all of I at once.  Two copies are linked
when they read the same entry of I: a copy's upper positions, read
through sigma^{-1}, land on another copy's lower positions.  Each
connected component K of this relation is closed under sigma, so it is
balanced and its monomials have G-degree 0; the components' polynomials
therefore commute without an eps sign, and phi_sigma is their product
(on shape (1,1) the components are the cycles of sigma, and the factors
are Berele's traces of powers).  Each K is its own PictureShape, with the
multiplicities of its copies and sigma restricted and relabelled, kept on
the shape (PictureShape.part) so that its plans serve every sigma.
_phi_counts, the one kernel, counts each component's index tuples in
{1..dim}^|K| per (monomial, exponent of zeta_m); build_phi multiplies
these exponent counts, smallest first, and at the end makes each
coefficient count * zeta_m^e once per distinct (exponent, count).

Everything in a summand that depends on sigma alone is worked out once per
(PictureShape, sigma) into a SigmaPlan, kept on the PictureShape.  Its one
walk along the entries of I that copies share gives sigma's components
and, on a component, sigma's symmetries: the relabellings of copies within
their summands that fix sigma (on shape (1,1), the rotations of a cycle,
under which a trace is unchanged).  The plan of a sigma with several
components stops there; a component's goes on to mu, rho and the
coefficient form.  A symmetry sends the summand at I to an equal summand
at the relabelled tuple, so the kernel works out one tuple per orbit and
counts it by the orbit's size.  The cost is sum_K dim^|K| set lookups
plus, per component K, about dim^|K| / g_K normalizations and exponents
(g_K symmetries with the identity), then the merges; the whole shape at
once would take dim^N of each.  A shape with no copies has no components,
and its picture is 1.  Because of these caches, PictureShape, MixedShape
and Bicharacter are treated as immutable once built.

The dual-word normalization multiplying the rearrangement sign is the
strict reversed product  prod_{c < c'} eps(h_{c'}, h_c)  over the w-block
degrees.  On the support of T_sigma the blocks sum to the identity, so for
sign-valued eps this agrees with the diagonal-included triangular product
prod_{c <= c'} eps(h_c, h_{c'}) (an even number of blocks is odd, and
inverting a sign is harmless); for eps taking higher roots of unity only
the reversed strict form keeps the two evaluation paths equal, which is
how the evaluation oracle fixes it.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from operator import itemgetter

from . import permutations as perms
from .epsalgebra import add_term
from .sympoly import MixedShape, SymPolynomial, sym_normalize
from .tensors import (PRIMAL, DUAL, GradedTensor, act_perm, contract_pairs,
                      tensor_product)

tau = perms.tau_perm
nu = perms.nu_perm
sigma_hat = perms.hat_perm

class PictureShape:
    """A mixed shape with copy multiplicities m_i over its pairs (b_i, t_i).
    N = sum m_i b_i primal slots, N' = sum m_i t_i dual slots and k = sum m_i
    copies are summed over the pairs; layout, built on first read: per copy
    in blocked order, (summand i, lower positions, upper positions), 1-based."""

    def __init__(self, shape, multiplicities):
        if not isinstance(shape, MixedShape):
            raise TypeError("expected a MixedShape")
        self.shape = shape
        self.mults = tuple(int(m) for m in multiplicities)
        if len(self.mults) != shape.s or any(m < 0 for m in self.mults):
            raise ValueError("multiplicities must list one nonnegative int per summand")
        self.N = sum(m * b for m, (b, _) in zip(self.mults, shape.pairs))
        self.Nprime = sum(m * t for m, (_, t) in zip(self.mults, shape.pairs))
        self.k = sum(self.mults)
        self._plans = {}
        self._parts = {}

    @functools.cached_property
    def layout(self):
        layout, lo, up = [], 0, 0
        for i, (m, (b, t)) in enumerate(zip(self.mults, self.shape.pairs), start=1):
            for _ in range(m):
                layout.append((i, tuple(range(lo + 1, lo + b + 1)),
                               tuple(range(up + 1, up + t + 1))))
                lo, up = lo + b, up + t
        return tuple(layout)

    def require_balanced(self):
        if self.N != self.Nprime:
            raise ValueError("shape is unbalanced: N=%d primal vs N'=%d dual slots"
                             % (self.N, self.Nprime))

    def __repr__(self):
        return "PictureShape(pairs=%r, mults=%r)" % (list(self.shape.pairs),
                                                     list(self.mults))

    def part(self, mults):
        """The PictureShape of the same MixedShape with multiplicities
        mults, built on first use and kept here, so that a component's plans
        serve every sigma that has it; this shape itself, not kept, for its
        own."""
        mults = tuple(mults)
        if mults == self.mults:
            return self
        sub = self._parts.get(mults)
        if sub is None:
            sub = self._parts[mults] = PictureShape(self.shape, mults)
        return sub

    def plan(self, sigma):
        """The SigmaPlan of phi_sigma, built on first use and kept on this
        shape, keyed by the sigma tuple."""
        sigma = tuple(sigma)
        plan = self._plans.get(sigma)
        if plan is None:
            plan = self._plans[sigma] = SigmaPlan(self, sigma)
        return plan

def mu(pshape):
    """Blocked-to-sorted rearrangement in S_{N+N'}."""
    N = pshape.N
    p = []
    for _, lo, up in pshape.layout:
        p.extend(lo)
        p.extend(N + q for q in up)
    return tuple(p)

def p_eps_exponent(chi, degs):
    """Exponent of the printed triangular product, diagonal included:
    sum over c <= c' of the eps exponent at (h_c, h_c')."""
    table = chi.eps_table
    total = 0
    k = len(degs)
    for c in range(k):
        for cp in range(c, k):
            total += table[degs[c]][degs[cp]]
    return total % chi.m

def dual_word_exponent(chi, degs):
    """Exponent of the dual-word normalization: the strict reversed product
    prod_{c < c'} eps(h_{c'}, h_c) over the block degrees.  Chosen so that
    restituting the invariant reproduces the direct evaluation path."""
    table = chi.eps_table
    total = 0
    k = len(degs)
    for c in range(k):
        for cp in range(c + 1, k):
            total += table[degs[cp]][degs[c]]
    return total % chi.m

class SigmaPlan:
    """Everything the summand of phi_sigma at an index tuple I needs of
    sigma and the shape, worked out once.

    copies: per copy of pshape.layout, the summand i and the 0-based
        positions in I of its lower indices and of its upper indices (the
        latter already read through sigma^{-1});
    components: sigma's connected components on the copies, as
        (multiplicities, sub-sigma) pairs in the order of their first
        copies (no plan refers to a shape: see PictureShape.part);
    symmetries: the position maps on I (P with P[p] the image of
        position p) of the copy permutations pi other than the identity
        that keep every copy in its summand and fix sigma; empty unless
        sigma links all the copies, as on a component.  Both come from
        one walk (see _walk_links).  The plan of a sigma with several
        components stops there: it has no degrees, terms, table or m;
    degrees: the G-degree of each basis vector, indexed from 0;
    terms: the coefficient exponent as a bilinear form in the degrees of
        I, a tuple of (a, b, c) meaning c * eps(deg I_a, deg I_b), sorted
        by the position pair (a, b), one term per pair.

    terms comes from two lists of pairs.  Each blocked slot reads the
    degree of one entry of I, negated on dual slots: that is the tuple
    J = mu^{-1} . (sorted degrees) of the rearrangement sign, and each
    inversion (x, y) of rho = nu tau sigma_hat mu adds eps(J_x, J_y).  The
    dual-word normalization adds eps(h_c', h_c) for each pair of copies
    c < c', h_c being the signed sum of copy c's degrees.  Since eps is a
    bicharacter, both expand into eps of single index degrees, and the
    pairs landing on the same two positions of I are merged.
    """

    __slots__ = ("copies", "degrees", "terms", "table", "m", "components",
                 "symmetries")

    def __init__(self, pshape, sigma):
        pshape.require_balanced()
        N = pshape.N
        perms.require_perm(sigma, N)
        inv = perms.inverse(sigma)
        self.copies = tuple((i, tuple(p - 1 for p in lo),
                             tuple(inv[q - 1] - 1 for q in up))
                            for i, lo, up in pshape.layout)
        self.components, self.symmetries = _walk_links(pshape, sigma, self.copies)
        if len(self.components) > 1:
            return
        chi = pshape.shape.chi
        mu_p = mu(pshape)
        # Blocked slot -> (position in I, sign of its degree in J).
        sources = tuple([(r, 1) for r in range(N)]
                        + [(inv[y] - 1, -1) for y in range(N)])
        slots = perms.act_tuple(perms.inverse(mu_p), sources)
        rho = perms.compose(nu(N), perms.compose(tau(N), perms.compose(
            sigma_hat(sigma), mu_p)))
        pairs = [(slots[x - 1], slots[y - 1]) for x, y in perms.inversions(rho)]
        signed = [[(p, 1) for p in lo] + [(p, -1) for p in up]
                  for _, lo, up in self.copies]
        for c in range(len(signed)):
            for cp in range(c + 1, len(signed)):
                pairs.extend((x, y) for x in signed[cp] for y in signed[c])
        counts = {}
        for (a, sa), (b, sb) in pairs:
            counts[a, b] = counts.get((a, b), 0) + sa * sb
        self.m = chi.m
        self.terms = tuple(sorted((a, b, c % self.m) for (a, b), c in counts.items()
                                  if c % self.m))
        self.degrees = pshape.shape.space.degrees
        self.table = chi.eps_table

def _walk_links(pshape, sigma, copies):
    """sigma's components and symmetries, from one walk along the entries
    of I that copies share.  Each entry of I has a lower and an upper
    reader, a (copy, slot).  A walk from a copy reaches the readers of the
    entries of each copy reached, and records per copy its summand and the
    (visit number, slot) of both readers of each entry.  The copies reached
    from each copy not yet reached form a component, given as the
    multiplicities of its sub-shape (its copies in blocked order) and its
    sub-sigma (sigma with the component's lower and upper positions
    relabelled 1.. in order).  When the walk from copy 0 reaches every
    copy, sigma is its own component, and the walks from copy 0 and copy t
    record one pattern exactly when pi, sending the n-th copy of one to
    the n-th of the other, fixes sigma; the symmetry is pi's map P of the
    positions of I, moving each copy's lower and upper positions, in
    order, onto those of its image."""
    readers = [[None, None] for _, lo, _ in copies for _ in lo]
    for c, (_, lo, up) in enumerate(copies):
        for half, places in enumerate((lo, up)):
            for slot, p in enumerate(places):
                readers[p][half] = c, slot

    def walk(start):
        order, visit, pattern = [start], {start: 0}, []
        for c in order:
            i, lo, up = copies[c]
            reads = []
            for p in lo + up:
                for d, slot in readers[p]:
                    if d not in visit:
                        visit[d] = len(order)
                        order.append(d)
                    reads.append((visit[d], slot))
            pattern.append((i, reads))
        return order, pattern

    walks, reached = [], set()
    for start in range(len(copies)):
        if start not in reached:
            walks.append(walk(start))
            reached.update(walks[-1][0])
    if len(walks) == 1:
        (order, pattern), = walks
        maps = []
        for t in range(1, len(copies)):
            image, other = walk(t)
            if other == pattern:
                pi = dict(zip(order, image))
                maps.append(tuple(copies[pi[c]][1][slot] for (c, slot), _ in readers))
        return ((pshape.mults, sigma),), tuple(maps)
    layout = pshape.layout
    parts = []
    for order, _ in walks:
        members = sorted(order)
        mults = [0] * pshape.shape.s
        for c in members:
            mults[layout[c][0] - 1] += 1
        upper = [q for c in members for q in layout[c][2]]
        rank = {q: r for r, q in enumerate(upper, start=1)}
        parts.append((tuple(mults),
                      tuple(rank[sigma[p - 1]] for c in members for p in layout[c][1])))
    return tuple(parts), ()

def coefficient_exponent(plan, I):
    """Exponent of the coefficient at index tuple I: the rearrangement sign
    gamma(J, rho^{-1}) over the blocked degree tuple J, plus the dual-word
    normalization of the w-block degrees, read off sigma's SigmaPlan.  The
    eps table row of deg I_a is read once per run of terms with equal a,
    so once per position on the plan's sorted terms; any order of the
    terms gives the same sum."""
    degrees = plan.degrees
    d = [degrees[r - 1] for r in I]
    table = plan.table
    total, last = 0, None
    for a, b, c in plan.terms:
        if a != last:
            last, row = a, table[d[a]]
        total += c * row[d[b]]
    return total % plan.m

@dataclass
class PictureInvariant:
    sigma: tuple
    poly: SymPolynomial

def _phi_counts(pshape, sigma):
    """phi_sigma in the kernel's own form, {(id tuple, exponent mod m):
    count}: the index tuples I in {1..dim}^N counted per normalized
    monomial at I and per swap plus coefficient exponent, so that phi_sigma
    is the sum of count * zeta_m^exponent * monomial.  The monomial's copy
    (i, j) reads its lower indices off I at its primal positions and its
    upper indices off I o sigma^{-1} at its dual positions.  Only the
    least tuple of each orbit of the plan's symmetries is worked out, and
    it counts for the orbit's size: the tuples are walked in
    lexicographic order, the first one met of an orbit is its least, and
    its other images wait in a pending set until the walk reaches them.
    This needs nothing of the symmetries but their forming a group with
    the identity (on shape (2,2) a Klein four-group, which no necklace
    order serves).  The set never holds more than dim^N tuples, which the
    picture command keeps under config.MAX_TUPLES."""
    shape = pshape.shape
    dim = shape.space.dim
    codes = shape.numbering().codes
    plan = pshape.plan(sigma)
    # Per copy: its summand's code table and the positions in I of its
    # index word.
    copies = [(codes[i - 1], lo + up) for i, lo, up in plan.copies]
    # I o P for each symmetry P: with I itself, its orbit, since the
    # symmetries and the identity form a group.
    images = [itemgetter(*P) for P in plan.symmetries]
    m = shape.chi.m
    counts = {}
    # The images of the orbits met so far, not yet reached in the walk.
    pending = set()
    for I in itertools.product(range(1, dim + 1), repeat=pshape.N):
        if I in pending:
            pending.remove(I)
            continue
        others = {image(I) for image in images}
        others.discard(I)
        pending |= others
        word = []
        for table, places in copies:
            code = 0
            for p in places:
                code = code * dim + I[p] - 1
            word.append(table[code])
        res = sym_normalize(shape, word)
        if res is None:
            continue
        swap, mono = res
        key = mono, (swap + coefficient_exponent(plan, I)) % m
        counts[key] = counts.get(key, 0) + len(others) + 1
    return counts

def _mul_counts(shape, left, right):
    """The product of two counts dicts of _phi_counts.  Each pair of sorted
    monomials w1, w2 is merged as sym_normalize would sort w1 + w2: each
    right id y passes the left ids x > y, adding table[degree[x]][degree[y]]
    to the exponent, and an odd id in both halves drops the pair."""
    num = shape.numbering()
    degree, parity, table = num.degree, num.parity, shape.chi.eps_table
    m = shape.chi.m
    out = {}
    for (w1, e1), n1 in left.items():
        n = len(w1)
        for (w2, e2), n2 in right.items():
            word, e, i = [], e1 + e2, 0
            for y in w2:
                while i < n and w1[i] <= y:
                    word.append(w1[i])
                    i += 1
                if parity[y] and i and w1[i - 1] == y:
                    break
                if i < n:
                    row = degree[y]
                    for x in w1[i:]:
                        e += table[degree[x]][row]
                word.append(y)
            else:
                word.extend(w1[i:])
                key = tuple(word), e % m
                out[key] = out.get(key, 0) + n1 * n2
    return out

def build_phi(pshape, sigma):
    """The picture invariant phi_sigma as an element of S(W*): the product
    of the pictures of sigma's components, each counted over its own index
    tuples by _phi_counts and multiplied as counts by _mul_counts, smallest
    first (exact, as components of G-degree 0 commute without a sign).  Per
    call, each coefficient count * zeta_m^e is made once per distinct
    (exponent, count), and each component counted once per (sub-shape,
    sub-sigma).  A monomial's first coefficient, a positive count times a
    root of unity, is never zero and is written directly; add_term sums in
    the coefficients at its other exponents and drops the monomials that
    cancel, so the terms are not filtered again."""
    shape = pshape.shape
    chi = shape.chi
    sigma = tuple(sigma)
    built = {}
    parts = []
    for key in pshape.plan(sigma).components:
        part = built.get(key)
        if part is None:
            mults, sub_sigma = key
            part = built[key] = _phi_counts(pshape.part(mults), sub_sigma)
        parts.append(part)
    parts.sort(key=len)
    counts = parts[0] if parts else {((), 0): 1}
    for part in parts[1:]:
        counts = _mul_counts(shape, counts, part)
    roots = [chi.root(e) for e in range(chi.m)]
    made, terms = {}, {}
    for (mono, e), count in counts.items():
        c = made.get((e, count))
        if c is None:
            c = made[e, count] = roots[e] * count
        if mono in terms:
            add_term(terms, mono, c)
        else:
            terms[mono] = c
    return PictureInvariant(sigma, SymPolynomial.zero(shape)._like(terms))

def theta_eval(sigma, t):
    """Theta(sigma) on a tensor in sorted variance (primal^N, dual^N):
    apply the extended sigma to the primal half, interleave, swap each
    pair, contract."""
    two_n = len(t.variance)
    if two_n % 2:
        raise ValueError("theta needs an even number of slots")
    N = two_n // 2
    if t.variance != (PRIMAL,) * N + (DUAL,) * N:
        raise ValueError("theta needs variance (primal^N, dual^N)")
    perms.require_perm(sigma, N)
    s = act_perm(sigma_hat(sigma), t)
    s = act_perm(tau(N), s)
    s = act_perm(nu(N), s)
    return contract_pairs(s)

def contraction_pairs(pshape, sigma):
    """The N pairs (a, b), a < b, of 0-based blocked positions that
    Theta(sigma) contracts: labels 0..2N-1 moved as act_perm moves slots
    by mu, sigma_hat, tau and nu, read off final slots 2i, 2i+1."""
    N = pshape.N
    perms.require_perm(sigma, N)
    labels = tuple(range(2 * N))
    for p in (mu(pshape), sigma_hat(sigma), tau(N), nu(N)):
        labels = perms.act_tuple(p, labels)
    return tuple(tuple(sorted(labels[2 * i:2 * i + 2])) for i in range(N))

def _split(t, places):
    """t as one tensor per tuple of index entries at the given positions."""
    groups = {}
    for w, c in t.terms.items():
        groups.setdefault(tuple(w[p] for p in places), {})[w] = c
    return {k: GradedTensor(t.space, t.alg, t.variance, g)
            for k, g in groups.items()}

def blocked_word(pshape, parts, pairs=()):
    """u_1^{ox m_1} ox ... ox u_s^{ox m_s} for per-summand tensors u_i,
    only the terms whose index words agree at each pair (a, b), a < b, of
    0-based positions.  Built copy by copy as a hash join: pairs inside
    the new copy filter it, pairs linking it to the product so far group
    both sides by the linked entries, and tensor_product runs once per
    matching group.  With no pairs it is the full product."""
    pshape.shape.check_parts(parts)
    out, lo = None, 0
    for i, _, _ in pshape.layout:
        u = parts[i - 1]
        hi = lo + len(u.variance)
        inner = [(a - lo, b - lo) for a, b in pairs if lo <= a and b < hi]
        link = [(a, b - lo) for a, b in pairs if a < lo <= b < hi]
        u = GradedTensor(u.space, u.alg, u.variance,
                         {w: c for w, c in u.terms.items()
                          if all(w[a] == w[b] for a, b in inner)})
        if out is None:
            out = u
        else:
            right = _split(u, [b for _, b in link])
            joined = {}
            for key, left in _split(out, [a for a, _ in link]).items():
                if key in right:
                    joined.update(tensor_product(left, right[key]).terms)
            out = GradedTensor(u.space, u.alg, out.variance + u.variance, joined)
        lo = hi
    if out is None:
        alg = parts[0].alg if parts else None
        return GradedTensor.basis(pshape.shape.space, alg, (), ())
    return out

def t_sigma_on_parts(pshape, sigma, parts):
    """The functional path: block the per-summand tensors, rearrange into
    sorted variance by the signed mu action, evaluate Theta(sigma), on the
    blocked terms that survive contraction only."""
    pshape.require_balanced()
    blocked = blocked_word(pshape, parts, contraction_pairs(pshape, sigma))
    return theta_eval(sigma, act_perm(mu(pshape), blocked))
