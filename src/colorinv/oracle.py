"""Independent verification suites.

Every suite here acts as a referee for one layer of the library: it
rebuilds the defining property from first principles (exhaustive
enumeration over small ranges, classical linear algebra over the
integers, seeded random sampling) and compares the outcome against the
fast code paths.  Nothing in this module reuses the formula it is
checking; the point is that a bug upstream shows up as a FAIL here
rather than as two consistent wrong answers.

Reports are deterministic given (config, seed): case names are sorted,
details carry counts and counterexamples but never timing or ids.  An
exhaustive case counts its work first, and over its limit passes as
"skipped: ..." (_skip) without doing it.
"""

from dataclasses import dataclass, field
import itertools
import math
import random

from . import permutations as perms
from .groups import validate_bicharacter
from .cyclo import CycloRational
from .epsalgebra import add_term
from .tensors import (GradedSpace, GradedTensor, GradedOperator, PRIMAL, DUAL,
                      gamma_exponent, act_perm, apply_operator, psi_derivation,
                      eta_action, color_bracket, random_gl_epsilon)
from .sympoly import (MixedShape, SymPolynomial, SymVariable,
                      enumerate_sym_basis, sym_dimension, sym_normalize,
                      symmetrize)
from .pictures import PictureShape, build_phi, t_sigma_on_parts
from .traces import (W0Point, restitute, restitute_word,
                     transposition_sign_check, injectivity_probe,
                     identity_end, end_compose, end_trace, trace_match)
from .sampling import (standard_test_algebra, random_w0_point,
                       random_sym_polynomial)
from .linalg import rank_int
from .config import MAX_N

# ------------------------------------------------------------- reports

@dataclass
class CaseResult:
    name: str
    ok: bool
    detail: str = ""

    def line(self):
        mark = "PASS" if self.ok else "FAIL"
        if self.detail:
            return "%s %s: %s" % (mark, self.name, self.detail)
        return "%s %s" % (mark, self.name)

@dataclass
class Report:
    suite: str
    config: str
    seed: int
    cases: list = field(default_factory=list)

    @property
    def ok(self):
        return all(c.ok for c in self.cases)

    def add(self, name, ok, detail=""):
        assert all(c.name != name for c in self.cases), "duplicate case name %r" % name
        self.cases.append(CaseResult(name, bool(ok), detail))

    def tally(self, name, items, ok, fail, check=bool):
        """Add one case over a stream of items, one per check, read in
        order; an item holds when check(item) is true.  ok and fail are
        the details of a clean and of a failed case, formatted with the
        counts %(total)d and %(bad)d and the first refused item %(first)r.
        An exception raised by the stream or by check fails this case
        alone, and names the error."""
        total = bad = 0
        first = None
        try:
            for item in items:
                total += 1
                if not check(item):
                    if not bad:
                        first = item
                    bad += 1
        except Exception as e:
            self.add(name, False, "exception: %s: %s" % (type(e).__name__, e))
            return
        self.add(name, bad == 0, (fail if bad else ok)
                 % {"total": total, "bad": bad, "first": first})

    def render(self):
        lines = ["suite: %s" % self.suite,
                 "config: %s" % self.config,
                 "seed: %d" % self.seed,
                 ""]
        for c in sorted(self.cases, key=lambda c: c.name):
            lines.append(c.line())
        nfail = sum(1 for c in self.cases if not c.ok)
        lines.append("")
        lines.append("result: %s (%d cases, %d failed)"
                     % ("PASS" if self.ok else "FAIL", len(self.cases), nfail))
        return "\n".join(lines) + "\n"

POINTS = 3  # sampled points per case of the sampling suites
# The most monomials in one block of the classical span side: its rows
# grow with the count (about 1.5 s at 8,436 monomials, dim 6 and r = 3).
MAX_SPAN_MONOMIALS = 10000
# The most checks of one case: centralizer-commute psi or eta checks (the
# builtins' largest is 1,458; 0.45 s at 46,656), bicharacter triples or
# pairs (729; 0.6 s at 46,656 triples) and a cocycle table's gamma values
# (1,944; the suite takes 0.2 s at 31,104), and the sampling suites' test
# algebra words (190; a suite took 0.3 to 0.9 s at 131,585).  And the most
# monomials of degree 3 that symalgebra lists (27,720 on a mixed shape of
# dim 3).
MAX_CHECKS = 50000
MAX_SYM_LISTING = 30000

def _sub_rng(seed, tag):
    # stable across runs and platforms: string seeding hashes via sha512
    return random.Random("%d/%s" % (seed, tag))

def _fmt_tuple(t):
    return ",".join(str(x) for x in t)

def _compositions(total, s):
    """Nonnegative integer s-tuples with the given sum, lexicographic."""
    if s == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, s - 1):
            yield (first,) + rest

def balanced_blocks(pairs, copies):
    """Multiplicity tuples over the (b, t) pairs with the given number of
    copies and as many lower as upper slots, in lexicographic order."""
    return [M for M in _compositions(copies, len(pairs))
            if not sum((b - t) * m for (b, t), m in zip(pairs, M))]

def balanced_multiplicities(shape, max_positions):
    """Multiplicity tuples whose picture shape is balanced with
    1 <= N <= max_positions, in lexicographic order.  Every copy holds at
    least one slot, so at most 2*max_positions copies can fit."""
    return sorted(M for k in range(1, 2 * max_positions + 1)
                  for M in balanced_blocks(shape.pairs, k)
                  if 1 <= PictureShape(shape, M).N <= max_positions)

# ------------------------------------------------- classical gl oracle

def _gl_derivation_on_variable(v, a, b):
    """The classical matrix unit E_ab acting on a coordinate function of a
    mixed tensor: substitute b for a in lower indices (with a minus sign)
    and a for b in upper indices.  Returns {variable: integer}."""
    out = {}
    lo, up = v.lower, v.upper
    for j, x in enumerate(lo):
        if x == a:
            w = SymVariable(v.summand, lo[:j] + (b,) + lo[j + 1:], up)
            out[w] = out.get(w, 0) - 1
    for c, y in enumerate(up):
        if y == b:
            w = SymVariable(v.summand, lo, up[:c] + (a,) + up[c + 1:])
            out[w] = out.get(w, 0) + 1
    return {w: c for w, c in out.items() if c}

def _gl_derivation_on_monomial(shape, a, b, mono):
    """Leibniz extension to a sorted monomial of variable ids; everything
    is even here so re-sorting carries no sign."""
    vs = shape.numbering().variables
    out = {}
    for pos in range(len(mono)):
        rest = mono[:pos] + mono[pos + 1:]
        for w, c in _gl_derivation_on_variable(vs[mono[pos]], a, b).items():
            key = tuple(sorted(rest + (shape.var_id(w),)))
            add_term(out, key, c)
    return out

def _invariant_block_dim(shape, M, r):
    """Dimension of the gl_n invariants inside the multidegree M block of
    S^r(W*), as the kernel of the stacked derivation action of all matrix
    units: one sparse row per (a, b, target monomial), one column per
    source monomial."""
    monos = enumerate_sym_basis(shape, r, multidegree=M)
    n = shape.space.dim
    rows = {}
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            for j, mono in enumerate(monos):
                for target, c in _gl_derivation_on_monomial(shape, a, b, mono).items():
                    rows.setdefault((a, b, target), {})[j] = c
    return len(monos) - rank_int(rows.values())

def classical_invariant_dim(shape, r):
    """Dimension over the rationals of the GL_n invariants in degree r of
    the symmetric algebra on the mixed tensor coordinates of a MixedShape,
    n = shape.space.dim, computed from scratch: the kernel of the
    derivation action of the matrix units E_ab on the degree r monomial
    basis.

    The matrix units keep each summand multidegree M, so the kernel is
    assembled block by block, over every M of total degree r: that only
    balanced blocks carry invariants (the scaling operators sum_a E_aa act
    on block M with eigenvalue sum_i (t_i - b_i) M_i) is computed here,
    not assumed.  The grading group must be trivial."""
    if shape.chi.group.order != 1:
        raise ValueError("classical invariant dimensions need the trivial "
                         "grading group")
    return sum(_invariant_block_dim(shape, M, r) for M in _compositions(r, shape.s))

def _phi_rank_block(pshape):
    """Rank over Q of the picture invariants of one block: one row per
    sigma keyed by monomial, each rational c.num[0] / c.den (the grading is
    trivial) scaled by the lcm of its row's dens, which keeps the rank."""
    rows = []
    for sigma in perms.all_perms(pshape.N):
        terms = build_phi(pshape, sigma).poly.terms
        scale = math.lcm(*(c.den for c in terms.values()))
        rows.append({mono: c.num[0] * (scale // c.den) for mono, c in terms.items()})
    return rank_int(rows)

def _block_monomials(shape, M):
    """The monomials of block M, counted without listing them (all even on
    the trivial grading)."""
    return math.prod(math.comb(shape.space.dim ** (b + t) + m - 1, m)
                     for (b, t), m in zip(shape.pairs, M))

def _skip(rpt, name, count, limit, detail):
    """Whether count, of what a case would build or check, is over limit;
    if so the case name passes as skipped, with detail % (count, limit)."""
    if count > limit:
        rpt.add(name, True, "skipped: " + detail % (count, limit))
    return count > limit

def span_check(shape, r, seed=0, max_n=MAX_N):
    """Compare the rank of the picture invariants of total degree r with
    the classically computed invariant dimension, block by balanced
    multidegree.  Needs the trivial grading group for the classical side;
    with a nontrivial group the report instead records a restricted-mode
    notice and certifies invariance of each phi on sampled points.  Either
    way a block of N above max_n is skipped before any phi is built, and on
    the trivial grading then a block over MAX_SPAN_MONOMIALS monomials,
    before any row is built."""
    label = "n=%d pairs=%s r=%d" % (shape.space.dim,
                                    ";".join("%d,%d" % p for p in shape.pairs), r)
    rpt = Report("span", label, seed)
    if shape.chi.group.order != 1:
        rpt.add("restricted-mode", True,
                "nontrivial grading group: no classical rank oracle at this "
                "scale, certifying invariance of each picture invariant instead")
        _span_restricted(shape, r, rpt, seed, max_n)
        return rpt
    over = "%d monomials in one block exceed the limit of %d"
    blocks = balanced_blocks(shape.pairs, r)
    if not blocks:
        name = "degree %d" % r
        size = max(_block_monomials(shape, M) for M in _compositions(r, shape.s))
        if not _skip(rpt, name, size, MAX_SPAN_MONOMIALS, over):
            dim = classical_invariant_dim(shape, r)
            rpt.add(name, dim == 0,
                    "no balanced multidegree; classical invariant dimension %d" % dim)
        return rpt
    for M in blocks:
        name = "multidegree %s" % _fmt_tuple(M)
        pshape = PictureShape(shape, M)
        if (_skip(rpt, name, pshape.N, max_n, "N=%d exceeds bounds.max_n=%d")
                or _skip(rpt, name, _block_monomials(shape, M), MAX_SPAN_MONOMIALS, over)):
            continue
        rk = _phi_rank_block(pshape)
        dim = _invariant_block_dim(shape, M, r)
        rpt.add(name, rk == dim,
                "picture span rank %d, classical invariant dimension %d" % (rk, dim))
    return rpt

def _span_restricted(shape, r, rpt, seed, max_n):
    alg = standard_test_algebra(shape.chi, truncation=3)
    rng = _sub_rng(seed, "span-restricted")

    def invariant(pshape):
        for sigma in perms.all_perms(pshape.N):
            phi = build_phi(pshape, sigma).poly
            for _ in range(POINTS):
                u, v = _transformed_pair(shape, alg, rng)
                yield restitute(phi, v) == restitute(phi, u)
    detail = "%(total)d transformed-point comparisons, %(bad)d failed"
    for M in balanced_blocks(shape.pairs, r):
        name = "invariance multidegree %s" % _fmt_tuple(M)
        pshape = PictureShape(shape, M)
        if not _skip(rpt, name, pshape.N, max_n, "N=%d exceeds bounds.max_n=%d"):
            rpt.tally(name, invariant(pshape), detail, detail)

# ----------------------------------------------------------- suites

def _suite_bicharacter(cfg, rpt, seed, **_):
    chi = cfg.chi
    grp = chi.group
    failures = validate_bicharacter(chi)
    rpt.add("exponent-matrix-axioms", not failures,
            failures[0] if failures else "valid")
    els = grp.elements()
    m = chi.m

    def biadditive(triple):
        g, h, k = triple
        gh, e = grp.add(g, h), chi.eps_exponent
        return e(gh, k) == (e(g, k) + e(h, k)) % m and e(k, gh) == (e(k, g) + e(k, h)) % m
    if not _skip(rpt, "biadditive", grp.order ** 3, MAX_CHECKS,
                 "%d triples exceed the limit of %d"):
        rpt.tally("biadditive", itertools.product(els, repeat=3),
                  "%(total)d triples checked", "failed at %(first)r", biadditive)
    if not _skip(rpt, "skew-inverse", grp.order ** 2, MAX_CHECKS,
                 "%d pairs exceed the limit of %d"):
        rpt.tally("skew-inverse",
                  ((chi.eps_exponent(g, h) + chi.eps_exponent(h, g)) % m == 0
                   for g, h in itertools.product(els, repeat=2)),
                  "eps(g,h)eps(h,g)=1 on all %(total)d pairs", "%(bad)d pairs violate")
    evens, odds = [], []
    sign_ok = True
    for g in els:
        e = chi.eps_exponent(g, g)
        if e == 0:
            evens.append(g)
        elif 2 * e % m == 0:
            odds.append(g)
        else:
            sign_ok = False
    rpt.add("parity-partition", sign_ok,
            "%d even, %d odd elements" % (len(evens), len(odds)))
    order = chi.element_order()
    expected = sorted(evens) + sorted(odds)
    rpt.add("element-order", list(order) == expected and order[0] == grp.identity,
            "evens before odds, lexicographic, identity first")
    degs = [order[d] for d in cfg.space.degrees]
    rpt.add("basis-degree-order",
            degs == sorted(degs, key=lambda g: (g in odds, g)),
            "space degrees follow the fixed enumeration")

def _suite_cocycle(cfg, rpt, seed, **_):
    chi = cfg.chi
    space = cfg.space
    order = chi.element_order()
    degs = sorted(set(space.degrees), key=order.__getitem__)
    m = chi.m
    for k in (2, 3, 4):
        name = "cocycle-identity k=%d" % k
        if _skip(rpt, name, len(degs) ** k * math.factorial(k), MAX_CHECKS,
                 "%d gamma values exceed the limit of %d"):
            continue
        sigmas = perms.all_perms(k)
        where = {sg: i for i, sg in enumerate(sigmas)}
        # positions of the k!^2 products tau o sigma, one row per sigma
        after = [[where[perms.compose(tu, sg)] for tu in sigmas] for sg in sigmas]
        tuples = list(itertools.product(degs, repeat=k))
        at = {v: i for i, v in enumerate(tuples)}
        # gamma exponents, one row per degree tuple, one entry per sigma
        table = [[gamma_exponent(chi, v, sg) for sg in sigmas] for v in tuples]
        total = len(tuples) * len(sigmas) ** 2
        first = None
        for v, gv in zip(tuples, table):
            for sg, row, base in zip(sigmas, after, gv):
                gmoved = table[at[perms.act_tuple(sg, v)]]
                for j, tu_sg in enumerate(row):
                    if gv[tu_sg] != (gmoved[j] + base) % m and first is None:
                        first = (tuple(order[d] for d in v), sg, sigmas[j])
        rpt.add(name, first is None,
                "%d (degrees, sigma, tau) checks" % total if first is None
                else "failed at %r" % (first,))
    alg = standard_test_algebra(chi, truncation=2)
    rng = _sub_rng(seed, "cocycle")

    def functorial():
        for _ in range(30):
            k = rng.choice([2, 3])
            variance = tuple(rng.choice([PRIMAL, DUAL]) for _ in range(k))
            idx = tuple(rng.randint(1, space.dim) for _ in range(k))
            t = GradedTensor.basis(space, alg, variance, idx)
            sk = perms.all_perms(k)
            p = sk[rng.randrange(len(sk))]
            q = sk[rng.randrange(len(sk))]
            yield act_perm(p, act_perm(q, t)) == act_perm(perms.compose(p, q), t)
    rpt.tally("action-functoriality", functorial(),
              "%(total)d sampled (p, q, tensor) triples", "%(bad)d triples failed")

def _jacobi_space(cfg):
    space = cfg.space
    if space.dim <= 3:
        return space
    return GradedSpace(cfg.chi, [space.degree(i) for i in range(1, 4)])

def _suite_jacobi(cfg, rpt, seed, **_):
    chi = cfg.chi
    space = _jacobi_space(cfg)
    alg = standard_test_algebra(chi, truncation=2)
    n = space.dim
    units = {}
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            units[(a, b)] = GradedOperator.matrix_unit(space, alg, a, b)
    keys = sorted(units)
    pair_brackets = {(x, y): color_bracket(units[x], units[y])
                     for x in keys for y in keys}
    degs = {x: units[x].g_degree() for x in keys}
    rpt.tally("bracket-antisymmetry",
              ((pair_brackets[x, y] + pair_brackets[y, x].scale(
                  chi.eps(degs[x], degs[y]))).is_zero() for x in keys for y in keys),
              "all %(total)d matrix unit pairs", "%(bad)d pairs failed")
    # J[u, v, w] = eps(w, u) [u, [v, w]], each nested term built once
    J = {(u, v, w): color_bracket(units[u], pair_brackets[v, w]).scale(
        chi.eps(degs[w], degs[u])) for u, v, w in itertools.product(keys, repeat=3)}

    def jacobi(triple):
        x, y, z = triple
        return (J[x, y, z] + J[y, z, x] + J[z, x, y]).is_zero()
    rpt.tally("color-jacobi", itertools.product(keys, repeat=3),
              "all %(total)d matrix unit triples", "failed at units %(first)r", jacobi)
    rng = _sub_rng(seed, "jacobi")
    add, neg = chi.sum_table, chi.neg_table

    def sampled_jacobi():
        for _ in range(6):
            ops = []
            for _ in range(3):
                a0 = rng.randint(1, n)
                b0 = rng.randint(1, n)
                g = add[space.degree(a0)][neg[space.degree(b0)]]
                T = GradedOperator(space, alg, {
                    (a, b): alg.scalar(rng.randint(-3, 3))
                    for a in range(1, n + 1) for b in range(1, n + 1)
                    if add[space.degree(a)][neg[space.degree(b)]] == g})
                ops.append((T, g))
            (x, gx), (y, gy), (z, gz) = ops
            s = color_bracket(x, color_bracket(y, z)).scale(chi.eps(gz, gx))
            s = s + color_bracket(y, color_bracket(z, x)).scale(chi.eps(gx, gy))
            s = s + color_bracket(z, color_bracket(x, y)).scale(chi.eps(gy, gz))
            yield s.is_zero()
    rpt.tally("jacobi-homogeneous-sampled", sampled_jacobi(),
              "%(total)d random homogeneous triples", "%(bad)d triples failed")

def _suite_centralizer(cfg, rpt, seed, **_):
    """sigma commutes with psi_x for every matrix unit x and with eta_g for
    every g in G, on every primal basis tensor of width k <= 3.

    The checks share inputs, never verdicts: each basis tensor t, each
    sigma.t, each psi_x(t) and each eta_g(t) is made once and reused by
    every check that needs it, and each side of each comparison still
    comes from act_perm, psi_derivation or eta_action, so those library
    functions are what is being checked.

    Each case counts its checks before anything is built, n^(k+2) k! for
    psi and |G| n^k k! for eta, and one over MAX_CHECKS passes as
    skipped; a width with both cases skipped builds nothing."""
    chi = cfg.chi
    space = cfg.space
    alg = standard_test_algebra(chi, truncation=2)
    n = space.dim
    over = "%d checks exceed the limit of %d"
    for k in (1, 2, 3):
        psi_name, eta_name = "psi-commutes k=%d" % k, "eta-commutes k=%d" % k
        psi = not _skip(rpt, psi_name, n ** (k + 2) * math.factorial(k),
                        MAX_CHECKS, over)
        eta = not _skip(rpt, eta_name, chi.group.order * n ** k * math.factorial(k),
                        MAX_CHECKS, over)
        if not (psi or eta):
            continue
        variance = (PRIMAL,) * k
        basis = [GradedTensor.basis(space, alg, variance, idx)
                 for idx in itertools.product(range(1, n + 1), repeat=k)]
        sigmas = perms.all_perms(k)
        moved = [[act_perm(sigma, t) for t in basis] for sigma in sigmas]

        def psi_commutes():
            for a, b in itertools.product(range(1, n + 1), repeat=2):
                x = GradedOperator.matrix_unit(space, alg, a, b)
                for j, t in enumerate(basis):
                    xt = psi_derivation(x, t)
                    for sigma, mt in zip(sigmas, moved):
                        yield act_perm(sigma, xt) == psi_derivation(x, mt[j])

        def eta_commutes():
            for g in range(chi.group.order):
                for j, t in enumerate(basis):
                    gt = eta_action(g, t)
                    for sigma, mt in zip(sigmas, moved):
                        yield act_perm(sigma, gt) == eta_action(g, mt[j])
        if psi:
            rpt.tally(psi_name, psi_commutes(),
                      "%(total)d (sigma, unit, basis tensor) checks",
                      "%(bad)d checks failed")
        if eta:
            rpt.tally(eta_name, eta_commutes(),
                      "%(total)d (sigma, group element, basis tensor) checks",
                      "%(bad)d checks failed")

def _random_word(shape, rng, rmin=2, rmax=4):
    """A random word of variable ids."""
    n = len(shape.numbering().variables)
    r = rng.randint(rmin, rmax)
    return tuple(rng.randrange(n) for _ in range(r))

def _random_homogeneous(shape, r, rng, terms=2):
    """A random polynomial supported on degree exactly r monomials."""
    basis = enumerate_sym_basis(shape, r)
    out = SymPolynomial.zero(shape)
    for _ in range(terms):
        mono = basis[rng.randrange(len(basis))]
        c = CycloRational.from_rational(rng.randint(-3, 3))
        if c:
            out = out + SymPolynomial(shape, {mono: c})
    return out

def _suite_symalgebra(cfg, rpt, seed, **_):
    shape = cfg.shape
    chi = shape.chi
    num = shape.numbering()
    # n variables have at most C(n+2, 3) monomials of degree 3, all when even
    if not _skip(rpt, "dimension-series", math.comb(len(num.variables) + 2, 3),
                 MAX_SYM_LISTING, "%d monomials of degree 3 exceed the limit of %d"):
        dims = [len(enumerate_sym_basis(shape, r)) for r in range(4)]
        rpt.add("dimension-series", dims == [sym_dimension(shape, r) for r in range(4)],
                "monomial counts r=0..3: %s match the generating function"
                % _fmt_tuple(dims))
    odd_vs = [k for k, odd in enumerate(num.parity) if odd]
    rpt.tally("odd-square-zero",
              (sym_normalize(shape, (k, k)) is None for k in odd_vs),
              "%(total)d odd variables", "%(total)d odd variables")
    rng = _sub_rng(seed, "symalgebra")
    # swap factors from g^T B h, not the eps table sym_normalize sorts with
    g = [chi.element_order()[d] for d in num.degree]

    def swap_relation():
        for _ in range(40):
            word = _random_word(shape, rng)
            i = rng.randint(1, len(word) - 1)
            swapped = list(word)
            swapped[i - 1], swapped[i] = swapped[i], swapped[i - 1]
            e = chi.eps_exponent(g[word[i - 1]], g[word[i]])
            nw = sym_normalize(shape, word)
            ns = sym_normalize(shape, tuple(swapped))
            if nw is None or ns is None:
                yield (nw is None) == (ns is None)
            else:
                yield nw[1] == ns[1] and (nw[0] - ns[0] - e) % chi.m == 0
    rpt.tally("normalize-swap-relation", swap_relation(),
              "%(total)d random adjacent swaps", "%(bad)d swaps failed")

    def projector():
        for _ in range(8):
            word = _random_word(shape, rng, 2, 3)
            p = symmetrize(shape, word)
            q = SymPolynomial.zero(shape)
            for mono, c in p.terms.items():
                q = q + symmetrize(shape, mono).scale(c)
            yield q == p
    rpt.tally("symmetrize-projector", projector(),
              "%(total)d random words, e(r) o e(r) = e(r)", "%(bad)d words failed")

def _sigma_cases(cfg, rpt, seed, max_n, tag, draw, differs, ok_detail):
    """One case per balanced multiplicity tuple M and sigma in S_N.  Each M
    draws POINTS samples x = draw(shape, alg, rng) from its own rng
    "<tag>/<M>", and the case of (M, sigma) counts the samples where
    differs(pshape, sigma, phi_sigma, x) holds.  An exception while
    drawing fails one case "M=<M>" in place of that M's cases."""
    shape = cfg.shape
    alg = standard_test_algebra(cfg.chi, truncation=3)
    for M in balanced_multiplicities(shape, max_n):
        pshape = PictureShape(shape, M)
        rng = _sub_rng(seed, "%s/%s" % (tag, _fmt_tuple(M)))
        try:
            xs = [draw(shape, alg, rng) for _ in range(POINTS)]
        except Exception as e:
            rpt.add("M=%s" % _fmt_tuple(M), False,
                    "exception: %s: %s" % (type(e).__name__, e))
            continue
        for sigma in perms.all_perms(pshape.N):
            phi = build_phi(pshape, sigma)
            rpt.tally("M=%s sigma=%s" % (_fmt_tuple(M), _fmt_tuple(sigma)),
                      (not differs(pshape, sigma, phi, x) for x in xs),
                      ok_detail, "%(bad)d of %(total)d points differ")

def _transformed_pair(shape, alg, rng):
    """A random point u and its image under a random T in GL(V, Lambda)."""
    u = random_w0_point(shape, alg, rng)
    T, Tinv = random_gl_epsilon(shape.space, alg, rng)
    return u, W0Point(shape, alg, [apply_operator(p, T, Tinv) for p in u.parts])

def _suite_path_equality(cfg, rpt, seed, max_n):
    _sigma_cases(cfg, rpt, seed, max_n, "path", random_w0_point,
                 lambda pshape, sigma, phi, u: restitute(phi.poly, u)
                 != t_sigma_on_parts(pshape, sigma, u.parts),
                 "%(total)d points")

def _suite_invariance(cfg, rpt, seed, max_n):
    _sigma_cases(cfg, rpt, seed, max_n, "invariance", _transformed_pair,
                 lambda pshape, sigma, phi, uv: restitute(phi.poly, uv[0])
                 != restitute(phi.poly, uv[1]),
                 "%(total)d transformed points")

def _suite_trace_match(cfg, rpt, seed, max_n):
    shape = cfg.shape
    chi = cfg.chi
    space = cfg.space
    alg = standard_test_algebra(chi, truncation=3)
    expect = sum(1 if chi.parity_bit(space.degree(a)) == 0 else -1
                 for a in range(1, space.dim + 1))
    got = end_trace(identity_end(space, alg))
    rpt.add("supertrace-identity", got == alg.scalar(expect),
            "tr(id) = %d" % expect)
    rng = _sub_rng(seed, "trace-cyclic")
    mshape = MixedShape(space, [(1, 1)])

    def cyclic():
        for _ in range(12):
            x = random_w0_point(mshape, alg, rng).part(1)
            y = random_w0_point(mshape, alg, rng).part(1)
            yield end_trace(end_compose(x, y)) == end_trace(end_compose(y, x))
    rpt.tally("trace-cyclicity", cyclic(),
              "%(total)d random degree-preserving pairs", "%(bad)d pairs failed")
    if any(p != (1, 1) for p in shape.pairs):
        rpt.add("matrix-shape", True,
                "skipped: trace monomials need every summand of arity (1,1); "
                "this shape has %s" % ";".join("%d,%d" % p for p in shape.pairs))
        return
    _sigma_cases(cfg, rpt, seed, max_n, "trace", random_w0_point,
                 lambda pshape, sigma, phi, u:
                 not trace_match(pshape, sigma, u, phi=phi)[0],
                 "%(total)d points")

def _suite_restitution(cfg, rpt, seed, **_):
    shape = cfg.shape
    chi = cfg.chi
    alg = standard_test_algebra(chi, truncation=3)
    rng = _sub_rng(seed, "restitution")

    def transpositions():
        for _ in range(50):
            word = _random_word(shape, rng)
            i = rng.randint(1, len(word) - 1)
            point = random_w0_point(shape, alg, rng)
            yield transposition_sign_check(shape, word, i, point)
    rpt.tally("transposition-relations", transpositions(),
              "%(total)d random (word, position, point) triples",
              "%(bad)d of %(total)d triples failed")

    def normal_forms():
        for _ in range(25):
            word = _random_word(shape, rng)
            point = random_w0_point(shape, alg, rng)
            res = sym_normalize(shape, word)
            if res is None:
                yield not restitute_word(shape, word, point)
            else:
                swap, mono = res
                yield restitute_word(shape, word, point) \
                    == restitute_word(shape, mono, point).times_root(swap)
    rpt.tally("normal-form-agreement", normal_forms(),
              "%(total)d random words against their sorted forms",
              "%(bad)d words failed")

    def products():
        for _ in range(12):
            p = _random_homogeneous(shape, rng.randint(1, 2), rng, terms=2)
            q = _random_homogeneous(shape, rng.randint(1, 2), rng, terms=2)
            point = random_w0_point(shape, alg, rng)
            yield restitute(p * q, point) == restitute(p, point) * restitute(q, point)
    rpt.tally("algebra-map", products(),
              "%(total)d random products F(pq) = F(p)F(q)", "%(bad)d products failed")
    nonzero = certified = 0
    attempts = 0
    while nonzero < 20 and attempts < 200:
        attempts += 1
        p = random_sym_polynomial(shape, rng.randint(1, 2), rng, terms=3)
        if p.is_zero():
            continue
        nonzero += 1
        if injectivity_probe(p):
            certified += 1
    zero_ok = not injectivity_probe(SymPolynomial.zero(shape))
    rpt.add("staircase-certificates", certified == nonzero and zero_ok,
            "%d nonzero polynomials certified nonzero, zero maps to zero"
            % nonzero if certified == nonzero
            else "%d of %d certificates missing" % (nonzero - certified, nonzero))
    degree_case = next(((a, b) for a, b in
                        itertools.product(range(1, cfg.space.dim + 1), repeat=2)
                        if cfg.space.degree(a) != cfg.space.degree(b)), None)
    if degree_case is None:
        rpt.add("degree-zero-required", True,
                "skipped: every tensor has degree 0 over the trivial group")
    else:
        a, b = degree_case
        mshape = MixedShape(cfg.space, [(1, 1)])
        part = GradedTensor.basis(cfg.space, alg, (PRIMAL, DUAL), (a, b))
        try:
            W0Point(mshape, alg, [part])
            rpt.add("degree-zero-required", False,
                    "a nonzero-degree part was accepted")
        except ValueError:
            rpt.add("degree-zero-required", True,
                    "nonzero-degree parts are rejected")

def _suite_span(cfg, rpt, seed, **_):
    shape = cfg.shape
    for r in (1, 2, 3):
        sub = span_check(shape, r, seed=seed, max_n=cfg.max_n)
        for c in sub.cases:
            rpt.add("r=%d %s" % (r, c.name), c.ok, c.detail)

_RUNNERS = {
    "bicharacter": _suite_bicharacter,
    "cocycle": _suite_cocycle,
    "jacobi": _suite_jacobi,
    "centralizer-commute": _suite_centralizer,
    "symalgebra": _suite_symalgebra,
    "path-equality": _suite_path_equality,
    "invariance": _suite_invariance,
    "trace-match": _suite_trace_match,
    "restitution": _suite_restitution,
    "span": _suite_span,
}
SUITES = tuple(_RUNNERS)
# The suites that draw points from standard_test_algebra: span only on a
# nontrivial group, as the trivial group's 6 test words are never too many.
SAMPLING = ("path-equality", "invariance", "trace-match", "restitution", "span")

def suite(name, cfg, seed=0, max_n=None):
    """Run one named verification suite against a configuration.  The
    report is deterministic given (config, seed).  An exception raised
    inside the suite is a fault of the library under test, not of the
    input: inside a tallied case it fails that case alone, while drawing
    one M's points (_sigma_cases) it fails that M alone, and anywhere
    else it becomes one FAIL case, after the cases that already ran.  A
    SAMPLING suite whose test algebra has more than MAX_CHECKS words to
    draw from passes as one skipped case, before any draw."""
    if name not in SUITES:
        raise ValueError("unknown suite %r (known: %s)" % (name, ", ".join(SUITES)))
    if max_n is None:
        max_n = min(3, cfg.max_n)
    rpt = Report(name, cfg.name, seed)
    # A sampling suite's first draw lists the normal words of length <= 2
    # over the test algebra's 2|G| generators: the empty word, each
    # generator, each pair and each even square.
    gens = 2 * cfg.chi.group.order
    words = 1 + gens + math.comb(gens, 2) + 2 * cfg.chi.parity_table.count(0)
    if name in SAMPLING and _skip(rpt, "test-algebra", words, MAX_CHECKS,
                                  "%d normal words of length <= 2 exceed the limit of %d"):
        return rpt
    try:
        _RUNNERS[name](cfg, rpt, seed, max_n=max_n)
    except Exception as e:
        rpt.add("exception", False, "%s: %s" % (type(e).__name__, e))
    return rpt
