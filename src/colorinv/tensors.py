"""Graded tensor words over Lambda_eps and the signed permutation calculus.

A GradedTensor is a sum of terms (basis word, coefficient), the coefficient
an EpsElement written to the right of the word.  Slots are primal (basis
e_i of degree g_i) or dual (e_i* of degree -g_i).  The S_k action is

    sigma . v = gamma(v, sigma^{-1}) (v_{sigma^{-1}(1)} ox ... ox v_{sigma^{-1}(k)})

with gamma(v, sigma) the product of eps(|v_i|, |v_j|) over inversions of
sigma.  Moving a coefficient past a basis factor of degree d costs
eps(|word|, d) per word of the coefficient (the hop rule); tensor products
and operator applications below keep all coefficients collected on the
right through that rule.

Every such sign is a power of zeta_m, so here, as everywhere in colorinv,
it is carried as an exponent (gamma_exponent, eps exponents summed along a
word) and applied once per coefficient by a rotation, times_root, never as
a product with a root of unity.  psi_derivation folds its prefix sign into
the hop of each entry the same way.  A rotation of a nonzero coefficient
is nonzero, and a permutation moves distinct words to distinct words, so
act_perm and eta_action build their results term by term, with no merge
and no zero filter.

A G-degree is its position in the bicharacter's fixed order of G, and
degrees are added, negated and paired through the bicharacter's tables
(groups).  Each GradedSpace keeps its basis degrees and their negatives as
one pair indexed by variance bit (slot_table), so a slot's degree is one
lookup.  The degree an emitted coefficient hops past is the degree of the
slots to its right: psi_derivation takes it as the word's degree less the
degrees up to the slot; apply_operator, acting on the whole tensor one
slot at a time from the right, sums the degrees of the slots right of
the slot, which already hold their new indices.

Operators T act by T(e_b) = sum_a e_a T_ab.  On dual slots T acts through
composition with T^{-1}, which in coordinates reads
T . e_c* = sum_a e_a* unhop(S_ca, g_a) with S = T^{-1}.

Operators are sparse like tensors: GradedOperator.terms maps an index pair
(a, b), 1-based, to the nonzero entry T_ab and holds nothing else, so a
matrix unit is one term.  Both classes take sums, negation, scaling and
equality from epsalgebra.Terms, and an operator's G-degree is the Terms
degree of the ones its entries ask for.  An operator never changes after
construction, so that degree and its entries grouped by column
(GradedOperator.columns) are computed on first use and kept.  compose,
color_bracket, psi_derivation, apply_operator and tensor_product collect
the (left, right) pairs of each output entry and multiply them in one
epsalgebra.eps_sums call; the bracket's sign eps(|x|, |y|) is a rotation
of the left entries of its y x pairs, as the signs above are.
"""

from __future__ import annotations

import math

from .cyclo import CycloRational
from .epsalgebra import EpsElement, Terms, add_term, eps_sums, hop, words_of_degree
from . import permutations as perms
from .linalg import inverse_int

PRIMAL, DUAL = 0, 1

_UNSET = object()

class GradedSpace:
    """A finite dimensional G-graded space given by the basis degree list.

    Basis degrees must appear in the fixed order of G (even degrees first,
    identity first), so the even part occupies the first m slots.
    """

    def __init__(self, chi, degrees):
        self.chi = chi
        self.degrees = tuple(degrees)
        if list(self.degrees) != sorted(self.degrees):
            raise ValueError("basis degrees must be listed in the fixed order of G")
        # slot degrees by variance bit: slot_table[PRIMAL][i - 1] is g_i,
        # slot_table[DUAL][i - 1] is -g_i
        self.slot_table = (self.degrees, tuple(chi.neg_table[d] for d in self.degrees))

    @property
    def dim(self):
        return len(self.degrees)

    def degree(self, i):
        """G-degree of e_i (1-based)."""
        return self.degrees[i - 1]

    def check_index(self, *indices):
        for i in indices:
            if not 1 <= i <= self.dim:
                raise ValueError("basis index %r out of range 1..%d" % (i, self.dim))

    def __eq__(self, other):
        return (isinstance(other, GradedSpace) and self.chi == other.chi
                and self.degrees == other.degrees)

    def __repr__(self):
        return "GradedSpace(%r)" % (list(self.degrees),)

def gamma_exponent(chi, degrees, sigma):
    """Exponent of gamma(degrees, sigma): sum of eps exponents over the
    inversions of sigma."""
    table = chi.eps_table
    total = 0
    for i, j in perms.inversions(sigma):
        total += table[degrees[i - 1]][degrees[j - 1]]
    return total % chi.m

class GradedTensor(Terms):
    """Element of a mixed tensor power of a graded space, coefficients in
    Lambda_eps on the right.  Treated as immutable."""

    __slots__ = ("space", "alg", "variance", "terms")

    def __init__(self, space, alg, variance, terms):
        self.space = space
        self.alg = alg
        self.variance = tuple(variance)
        self.terms = {w: c for w, c in terms.items() if c}

    @classmethod
    def zero(cls, space, alg, variance):
        return cls(space, alg, variance, {})

    @classmethod
    def basis(cls, space, alg, variance, indices, coeff=1):
        indices = tuple(indices)
        variance = tuple(variance)
        if len(indices) != len(variance):
            raise ValueError("index word and variance have different lengths")
        space.check_index(*indices)
        c = coeff if isinstance(coeff, EpsElement) else alg.scalar(coeff)
        return cls(space, alg, variance, {indices: c})

    def slot_degrees(self, indices):
        table = self.space.slot_table
        return tuple(table[v][i - 1] for v, i in zip(self.variance, indices))

    def word_degree(self, indices):
        return self.space.chi.degree_sum(self.slot_degrees(indices))

    def _like(self, terms):
        t = object.__new__(GradedTensor)
        t.space, t.alg, t.variance, t.terms = self.space, self.alg, self.variance, terms
        return t

    def _same(self, other):
        return ((self.space is other.space or self.space == other.space)
                and (self.alg is other.alg or self.alg == other.alg)
                and self.variance == other.variance)

    def __repr__(self):
        return "GradedTensor(variance=%r, %d terms)" % (self.variance, len(self.terms))

def act_perm(sigma, t):
    """The signed place permutation action: slot i moves to slot sigma(i)
    and the term picks up gamma(slot degrees, sigma).  Evaluating gamma at
    the original degrees over the inversions of sigma itself is what makes
    the action a genuine S_k action: inverted-then-restored pairs cancel
    by skewness of eps.  sigma moves distinct words to distinct words and a
    rotation of a nonzero coefficient is nonzero, so the result is built
    term by term with no merge and no zero filter.  A sigma that is not a
    permutation of 1..k raises ValueError."""
    k = len(t.variance)
    if len(sigma) != k:
        raise ValueError("permutation size %d does not match tensor width %d"
                         % (len(sigma), k))
    chi = t.space.chi
    rows = [t.space.slot_table[v] for v in t.variance]
    # new slot j holds old slot sigma^-1(j)
    src = [i - 1 for i in perms.inverse(sigma)]
    out = {}
    for idx, c in t.terms.items():
        g = gamma_exponent(chi, [row[i - 1] for row, i in zip(rows, idx)], sigma)
        out[tuple(map(idx.__getitem__, src))] = c.times_root(g)
    moved = t._like(out)
    moved.variance = tuple(map(t.variance.__getitem__, src))
    return moved

def tensor_product(a, b):
    """Concatenate tensor words; a's coefficient hops past b's basis word."""
    if a.space != b.space or a.alg != b.alg:
        raise ValueError("tensor factors live over different spaces")
    sums = {}
    for ib, cb in b.terms.items():
        d = b.word_degree(ib)
        for ia, ca in a.terms.items():
            sums[ia + ib] = [(hop(ca, d).terms, cb.terms)]
    return GradedTensor(a.space, a.alg, a.variance + b.variance, eps_sums(a.alg, sums))

def contract_pairs(t):
    """Full contraction of a word in alternating (dual, primal) variance:
    each adjacent pair e_a* ox e_b contributes delta_ab.  Returns the
    EpsElement sum of surviving coefficients."""
    k2 = len(t.variance)
    if k2 % 2 or any(v != (DUAL if i % 2 == 0 else PRIMAL)
                     for i, v in enumerate(t.variance)):
        raise ValueError("contraction needs alternating dual/primal variance")
    total = t.alg.zero()
    for idx, c in t.terms.items():
        if all(idx[2 * i] == idx[2 * i + 1] for i in range(k2 // 2)):
            total = total + c
    return total

def ev_pair(t):
    """Evaluation of a (dual^k, primal^k) word: shuffle the two halves
    together with the signed action of the fixed interleaving, then contract
    adjacent pairs."""
    k2 = len(t.variance)
    if k2 % 2:
        raise ValueError("ev needs an even number of slots")
    k = k2 // 2
    if t.variance != (DUAL,) * k + (PRIMAL,) * k:
        raise ValueError("ev needs variance (dual^k, primal^k)")
    return contract_pairs(act_perm(perms.tau_perm(k), t))

class GradedOperator(Terms):
    """Square matrix of EpsElement entries acting on a graded space by
    T(e_b) = sum_a e_a T_ab.  Stored sparsely: `terms` maps 1-based index
    pairs (a, b) to the nonzero entries T_ab only, the layout GradedTensor
    and EpsElement use, so matrix units and block-diagonal operators cost
    what they hold.  Treated as immutable; the G-degree is computed on the
    first g_degree() call and kept on the instance."""

    __slots__ = ("space", "alg", "terms", "_degree", "_columns")

    def __init__(self, space, alg, terms):
        self.space = space
        self.alg = alg
        self.terms = {ab: x for ab, x in terms.items() if x}
        self._degree = self._columns = _UNSET

    @classmethod
    def zero(cls, space, alg):
        return cls(space, alg, {})

    @classmethod
    def identity(cls, space, alg):
        one = alg.one()
        return cls(space, alg, {(a, a): one for a in range(1, space.dim + 1)})

    @classmethod
    def matrix_unit(cls, space, alg, a, b, coeff=1):
        space.check_index(a, b)
        c = coeff if isinstance(coeff, EpsElement) else alg.scalar(coeff)
        return cls(space, alg, {(a, b): c})

    def entry(self, a, b):
        self.space.check_index(a, b)
        x = self.terms.get((a, b))
        return self.alg.zero() if x is None else x

    def columns(self):
        """{b: [(a, T_ab), ...]} over the nonzero entries, rows ascending;
        built on the first call and kept."""
        if self._columns is _UNSET:
            self._columns = {}
            for (a, b), x in self.terms_sorted():
                self._columns.setdefault(b, []).append((a, x))
        return self._columns

    def _like(self, terms):
        op = object.__new__(GradedOperator)
        op.space, op.alg, op.terms = self.space, self.alg, terms
        op._degree = op._columns = _UNSET
        return op

    def _same(self, other):
        return ((self.space is other.space or self.space == other.space)
                and (self.alg is other.alg or self.alg == other.alg))

    def compose(self, other):
        """Matrix product in operator order: (self other)(v) = self(other(v)).
        Each entry S_bc of other meets column b of self."""
        self._check(other)
        cols = self.columns()
        sums = {}
        for (b, c), y in other.terms.items():
            for a, x in cols.get(b, ()):
                sums.setdefault((a, c), []).append((x.terms, y.terms))
        return self._like(eps_sums(self.alg, sums))

    def g_degree(self):
        """The G-degree alpha with T(U_h) <= U_{alpha+h}, or None when the
        operator is not homogeneous.  Entry (a,b) must be homogeneous of
        Lambda_eps-degree alpha + g_b - g_a.  The zero operator has the
        identity degree."""
        if self._degree is _UNSET:
            space = self.space
            add, neg = space.chi.sum_table, space.chi.neg_table
            alphas = []
            for (a, b), e in self.terms.items():
                d = e.g_degree()
                alphas.append(None if d is None
                              else add[add[d][space.degree(a)]][neg[space.degree(b)]])
            self._degree = self._single_degree(alphas)
        return self._degree

def dual_action_columns(opinv):
    """Columns of the induced action on dual slots: with S = T^{-1}, e_c*
    goes to sum_a e_a* unhop(S_ca, g_a).  Returned as {c: [(a, entry),
    ...]}, the (new index, old index) orientation of
    GradedOperator.columns, so primal and dual slots read alike."""
    space = opinv.space
    out = {}
    for (c, a), s in sorted(opinv.terms.items()):
        out.setdefault(c, []).append((a, hop(s, space.degree(a), invert=True)))
    return out

def apply_operator(t, op, opinv=None):
    """Apply an operator to every slot of a tensor.  Dual slots transform
    through composition with the inverse, so opinv is required when the
    tensor has a dual slot.  The whole tensor is acted on one slot at a
    time from the right: at slot j each term's entry hops past the degree
    of the slots right of j, which already hold their new indices, and
    multiplies the term's coefficient, the same product as the chain over
    all slots by associativity.  Each pass sums its products per new
    word."""
    if not op._same(t):
        raise ValueError("operator and tensor live over different spaces")
    if opinv is not None and not opinv._same(t):
        raise ValueError("inverse operator and tensor live over different spaces")
    cols = [op.columns(), None]
    if DUAL in t.variance:
        if opinv is None:
            raise ValueError("dual slots need the inverse operator")
        cols[DUAL] = dual_action_columns(opinv)
    degree_sum, terms = t.space.chi.degree_sum, t.terms
    for j in range(len(t.variance) - 1, -1, -1):
        col = cols[t.variance[j]]
        sums = {}
        for idx, lam in terms.items():
            d = degree_sum(t.slot_degrees(idx)[j + 1:])
            for a, c in col.get(idx[j], ()):
                sums.setdefault(idx[:j] + (a,) + idx[j + 1:], []).append(
                    (hop(c, d).terms, lam.terms))
        terms = eps_sums(t.alg, sums)
    return t._like(terms)

def psi_derivation(x, t):
    """Twisted derivation action of a homogeneous operator on a primal
    tensor word: slot i picks up eps(|x|, |v_j|) for every slot j < i,
    read by biadditivity as one eps(|x|, sum of the degrees before slot i),
    and only at the slots x acts on, where the entry hops past the degrees
    after slot i.  The products are summed per new word."""
    if not x._same(t):
        raise ValueError("operator and tensor live over different spaces")
    if any(v != PRIMAL for v in t.variance):
        raise ValueError("the derivation action is defined on primal words")
    alpha = x.g_degree()
    if alpha is None:
        raise ValueError("operator is not homogeneous")
    chi, degrees = t.space.chi, t.space.degrees
    eps, add, neg = chi.eps_table[alpha], chi.sum_table, chi.neg_table
    cols = x.columns()
    sums = {}
    for idx, lam in t.terms.items():
        if cols.keys().isdisjoint(idx):
            continue
        degs = [degrees[r - 1] for r in idx]
        total = 0
        for d in degs:
            total = add[total][d]
        before = 0  # the degree of the slots before slot i
        for i, r in enumerate(idx):
            prefix = eps[before]
            before = add[before][degs[i]]
            col = cols.get(r)
            if col is not None:
                after = add[total][neg[before]]
                for a, entry in col:
                    sums.setdefault(idx[:i] + (a,) + idx[i + 1:], []).append(
                        (hop(entry, after, shift=prefix).terms, lam.terms))
    return t._like(eps_sums(t.alg, sums))

def eta_action(g, t):
    """The grouplike action: multiply each basis word by
    prod_i eps(g, |v_i|)."""
    if any(v != PRIMAL for v in t.variance):
        raise ValueError("the grouplike action is defined on primal words")
    eps, degrees = t.space.chi.eps_table[g], t.space.degrees
    out = {}
    for idx, lam in t.terms.items():
        e = 0
        for i in idx:
            e += eps[degrees[i - 1]]
        out[idx] = lam.times_root(e)
    return t._like(out)

def color_bracket(x, y):
    """[x, y] = x y - eps(|x|, |y|) y x for homogeneous operators, in one
    epsalgebra.eps_sums call: the pairs of x y are those compose collects,
    and those of y x have each entry of y negated and rotated by
    zeta_m^eps_exponent(|x|, |y|).  A word's `order` is the lcm of m and of
    the operand orders that meet there (eps_product's rule), the order of
    x.compose(y) - y.compose(x).scale(eps(|x|, |y|)) whenever every operand
    order divides m."""
    x._check(y)
    a = x.g_degree()
    b = y.g_degree()
    if a is None or b is None:
        raise ValueError("color bracket needs homogeneous operators")
    chi = x.space.chi
    m, e = chi.m, chi.eps_table[a][b]
    xcols = x.columns()
    sums = {}
    for (k, c), v in y.terms.items():
        for i, u in xcols.get(k, ()):
            sums.setdefault((i, c), []).append((u.terms, v.terms))
    # the entries of -eps(|x|, |y|) y, each made when first met: turning
    # all of y's columns up front took the jacobi suite 20 % longer
    turned = {}
    ycols = y.columns()
    for (k, c), v in x.terms.items():
        for i, u in ycols.get(k, ()):
            t = turned.get((i, k))
            if t is None:
                t = turned[i, k] = {w: (-z).times_root(m, e) for w, z in u.terms.items()}
            sums.setdefault((i, c), []).append((t, v.terms))
    return x._like(eps_sums(x.alg, sums))

def invert_operator(T):
    """Inverse of T = D + N with D the constant (empty word) part and N
    strictly generator supported: D, whose entries must be rational, is
    read as integers over the lcm of their denominators and inverted
    exactly by linalg.inverse_int, and the rest comes from the finite
    Neumann series, which terminates because N is nilpotent under
    truncation."""
    space, alg, n = T.space, T.alg, T.space.dim
    consts = {ab: x.constant_part() for ab, x in T.terms.items()}
    if any(any(c.num[1:]) for c in consts.values()):
        raise ValueError("constant part of the operator is not rational")
    den = math.lcm(*(c.den for c in consts.values()))
    D = [[0] * n for _ in range(n)]
    for (a, b), c in consts.items():
        D[a - 1][b - 1] = c.num[0] * (den // c.den)
    inverse = inverse_int(D)
    if inverse is None:
        raise ValueError("constant part of the operator is singular")
    num, d = inverse  # (D / den)^-1 = den * num / d
    Dinv_op = GradedOperator(space, alg,
                             {(a, b): alg.scalar(CycloRational.from_rational(x * den, d))
                              for a, row in enumerate(num, start=1)
                              for b, x in enumerate(row, start=1)})
    N = GradedOperator(space, alg,
                       {ab: x.proper_part() for ab, x in T.terms.items()})
    M = (-N).compose(Dinv_op)
    series = GradedOperator.identity(space, alg)
    term = M
    steps = alg.truncation + 1
    count = 0
    while not term.is_zero():
        count += 1
        if count > steps:
            raise ValueError("Neumann series did not terminate; "
                             "generator part is not nilpotent")
        series = series + term
        term = term.compose(M)
    return Dinv_op.compose(series)

def random_gl_epsilon(space, alg, rng):
    """A random invertible degree preserving operator together with its
    exact inverse.  The constant part is a random integer matrix supported
    on the degree blocks, drawn again until linalg.inverse_int finds it
    invertible; the generator part puts random short words of degree
    g_b - g_a into admissible entries, each degree's pool of nonempty words
    listed once per call."""
    add, neg = space.chi.sum_table, space.chi.neg_table
    n = space.dim
    while True:
        drawn = {(a, b): rng.randint(-3, 3)
                 for a in range(1, n + 1) for b in range(1, n + 1)
                 if space.degree(a) == space.degree(b)}
        if inverse_int([[drawn.get((a, b), 0) for b in range(1, n + 1)]
                        for a in range(1, n + 1)]) is not None:
            break
    terms = {ab: alg.scalar(k) for ab, k in drawn.items() if k}
    maxlen = min(alg.truncation, 2)
    pools = {}
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            if rng.random() > 0.6:
                continue
            d = add[space.degree(b)][neg[space.degree(a)]]
            pool = pools.get(d)
            if pool is None:
                pool = pools[d] = [w for w in words_of_degree(alg, d, maxlen) if w]
            if not pool:
                continue
            w = pool[rng.randrange(len(pool))]
            coeff = rng.choice([-2, -1, 1, 2])
            add_term(terms, (a, b), alg.monomial(w, coeff))
    T = GradedOperator(space, alg, terms)
    return T, invert_operator(T)
