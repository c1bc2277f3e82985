"""Graded tensors, signed place permutations, and matrix-unit operators."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from colorinv.cyclo import CycloRational
from colorinv.epsalgebra import hop
from colorinv.permutations import act_tuple, all_perms, compose, identity, inverse, inversions
from colorinv.sampling import random_eps_of_degree, standard_test_algebra
from colorinv.tensors import (
    DUAL,
    PRIMAL,
    GradedOperator,
    GradedSpace,
    GradedTensor,
    act_perm,
    apply_operator,
    color_bracket,
    contract_pairs,
    eta_action,
    ev_pair,
    gamma_exponent,
    invert_operator,
    psi_derivation,
    random_gl_epsilon,
    tensor_product,
)


def test_gamma_exponent_brute_force(cfgs):
    for cfg in cfgs.values():
        chi = cfg.chi
        order = chi.element_order()
        degs = cfg.space.degrees
        for sigma in all_perms(3):
            for triple in itertools.product(degs, repeat=3):
                expected = sum(chi.eps_exponent(order[triple[i - 1]], order[triple[j - 1]])
                               for i, j in inversions(sigma))
                assert chi.root(gamma_exponent(chi, triple, sigma)) == chi.root(expected)


def act_perm_textbook(sigma, t):
    """sigma . t term by term: each term alone picks up the product of
    eps(d_i, d_j) over the inversions i < j, sigma(i) > sigma(j), of its
    slot degrees d (g_a on a primal slot, -g_a on a dual one, as int
    tuples), and the entry of slot i moves to slot sigma(i)."""
    space = t.space
    chi = space.chi
    order = chi.element_order()
    k = len(sigma)

    def move(word):
        out = [None] * k
        for i in range(k):
            out[sigma[i] - 1] = word[i]
        return tuple(out)

    total = GradedTensor.zero(space, t.alg, move(t.variance))
    for idx, c in t.terms.items():
        degs = [order[space.degree(a)] if v == PRIMAL
                else chi.group.neg(order[space.degree(a)])
                for v, a in zip(t.variance, idx)]
        e = sum(chi.eps_exponent(degs[i], degs[j])
                for i in range(k) for j in range(i + 1, k) if sigma[i] > sigma[j])
        total = total + GradedTensor(space, t.alg, move(t.variance),
                                     {move(idx): c.scale(chi.root(e))})
    return total


def test_act_perm_matches_textbook_referee(cfgs, algebras):
    """Multi-term tensors of every variance up to width 3, every sigma, on
    every builtin.  Each sampled word comes with its reverse, which has the
    same slot degrees in another order, so a gamma taken from anything
    coarser than the ordered slot degrees goes wrong."""
    rng = random.Random("act-perm-referee")
    for name, cfg in cfgs.items():
        chi, alg, space = cfg.chi, algebras[name], cfg.space
        grp = chi.group
        order = chi.element_order()
        els = [chi.position(g) for g in grp.elements()]
        for i in range(1, space.dim + 1):
            assert space.slot_table[PRIMAL][i - 1] == space.degree(i)
            assert order[space.slot_table[DUAL][i - 1]] == grp.neg(order[space.degree(i)])
        for k in (1, 2, 3):
            words = list(itertools.product(range(1, space.dim + 1), repeat=k))
            for variance in itertools.product((PRIMAL, DUAL), repeat=k):
                terms = {}
                for w in rng.sample(words, min(3, len(words))):
                    for u in (w, w[::-1]):
                        d = rng.choice(els)
                        terms[u] = random_eps_of_degree(alg, d, rng) + rng.choice((1, -2))
                t = GradedTensor(space, alg, variance, terms)
                for sigma in all_perms(k):
                    got = act_perm(sigma, t)
                    want = act_perm_textbook(sigma, t)
                    assert got.variance == want.variance
                    assert got == want, (name, variance, sigma)


def act_perm_merged(sigma, t):
    """act_perm term by term through act_tuple and gamma_exponent, the
    moved terms merged into a dict and the zeros filtered out, as
    GradedTensor sums do."""
    chi = t.space.chi
    out = {}
    for idx, c in t.terms.items():
        nidx = act_tuple(sigma, idx)
        nc = c.times_root(gamma_exponent(chi, t.slot_degrees(idx), sigma))
        prev = out.get(nidx)
        out[nidx] = nc if prev is None else prev + nc
    return GradedTensor(t.space, t.alg, act_tuple(sigma, t.variance), out)


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_act_perm_matches_the_merged_referee(cfgs, data):
    """The direct build equals the merged one, each coefficient's order,
    numerators and denominator included, on tensors of width up to 4 in
    mixed variance whose coefficients hold several words."""
    cfg = cfgs[data.draw(st.sampled_from(sorted(cfgs)))]
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    space, alg = cfg.space, standard_test_algebra(cfg.chi, 3)
    variance = tuple(data.draw(st.lists(st.sampled_from((PRIMAL, DUAL)),
                                        min_size=1, max_size=4)))
    sigma = tuple(data.draw(st.permutations(range(1, len(variance) + 1))))
    terms = {}
    for _ in range(data.draw(st.integers(1, 6))):
        idx = tuple(rng.randint(1, space.dim) for _ in variance)
        lam = random_eps_of_degree(alg, rng.randrange(cfg.chi.group.order), rng, terms=3)
        terms[idx] = lam + rng.choice((0, 1, Fraction(-1, 2)))
    t = GradedTensor(space, alg, variance, terms)
    got, want = act_perm(sigma, t), act_perm_merged(sigma, t)
    assert got.variance == want.variance
    assert exact_coefficients(got) == exact_coefficients(want)


def test_act_perm_refuses_a_sigma_that_is_not_a_permutation(cfgs, algebras):
    """(1, 1) repeats an entry, (0, 1) holds a 0, which a check for a 0
    left in the inverse would miss, and (3, 1) leaves 1..2: each is
    refused, on the first call and on a second one."""
    cfg, alg = cfgs["super"], algebras["super"]
    t = GradedTensor.basis(cfg.space, alg, (PRIMAL, PRIMAL), (1, 2))
    for sigma in ((1, 1), (0, 1), (3, 1)):
        for _ in range(2):
            with pytest.raises(ValueError, match=r"^sigma must lie in S_2$"):
                act_perm(sigma, t)
    assert act_perm((2, 1), t).terms.keys() == {(2, 1)}


def test_act_perm_is_functorial(cfgs, algebras):
    for name in ("super", "z2z2"):
        cfg, alg = cfgs[name], algebras[name]
        dim = cfg.space.dim
        variance = (0, 1, 0)
        index_pool = list(itertools.product(range(1, dim + 1), repeat=3))
        indices = index_pool[:: max(1, len(index_pool) // 4)]
        for a in all_perms(3):
            for b in all_perms(3):
                for idx in indices:
                    t = GradedTensor.basis(cfg.space, alg, variance, idx)
                    lhs = act_perm(compose(a, b), t)
                    rhs = act_perm(a, act_perm(b, t))
                    assert lhs == rhs


def test_act_perm_identity_and_inverse(cfgs, algebras):
    cfg, alg = cfgs["z4"], algebras["z4"]
    rng = random.Random("actperm")
    for _ in range(10):
        idx = tuple(rng.randint(1, cfg.space.dim) for _ in range(3))
        t = GradedTensor.basis(cfg.space, alg, (0, 0, 1), idx)
        assert act_perm(identity(3), t) == t
        for s in all_perms(3):
            assert act_perm(inverse(s), act_perm(s, t)) == t


def test_tensor_product_associative(cfgs, algebras):
    cfg, alg = cfgs["super"], algebras["super"]
    rng = random.Random("tensassoc")
    els = [cfg.chi.position(g) for g in cfg.chi.group.elements()]
    for _ in range(8):
        parts = []
        for variance in ((0,), (1,), (0,)):
            idx = (rng.randint(1, cfg.space.dim),)
            coeff = random_eps_of_degree(alg, rng.choice(els), rng)
            parts.append(GradedTensor.basis(cfg.space, alg, variance, idx,
                                            coeff=coeff))
        a, b, c = parts
        assert tensor_product(tensor_product(a, b), c) == \
            tensor_product(a, tensor_product(b, c))


def test_ev_pair_is_the_dual_pairing(cfgs, algebras):
    for name in ("super", "z4"):
        cfg, alg = cfgs[name], algebras[name]
        for a in range(1, cfg.space.dim + 1):
            for b in range(1, cfg.space.dim + 1):
                val = ev_pair(GradedTensor.basis(cfg.space, alg, (1, 0), (a, b)))
                if a == b:
                    assert val == alg.one()
                else:
                    assert val.is_zero()


def test_contract_pairs_on_alternating_words(cfgs, algebras):
    cfg, alg = cfgs["super"], algebras["super"]
    for a, b, c, d in itertools.product(range(1, 3), repeat=4):
        t = GradedTensor.basis(cfg.space, alg, (1, 0, 1, 0), (a, b, c, d))
        val = contract_pairs(t)
        if a == b and c == d:
            assert val == alg.one()
        else:
            assert val.is_zero()


def test_operator_compose_identity_and_inverse(cfgs, algebras):
    for name in ("super", "z2z2"):
        cfg, alg = cfgs[name], algebras[name]
        ident = GradedOperator.identity(cfg.space, alg)
        rng = random.Random("ops/%s" % name)
        for _ in range(5):
            T, Tinv = random_gl_epsilon(cfg.space, alg, rng)
            assert T.compose(ident) == T
            assert ident.compose(T) == T
            assert T.compose(Tinv) == ident
            assert Tinv.compose(T) == ident
            assert invert_operator(T) == Tinv
            assert T.g_degree() == 0


def test_invert_operator_on_a_non_integer_constant_part(cfgs, algebras):
    """The GL draws have integer constant parts; here the columns of one
    are scaled by 1/2, -2/3, 3/4, ..., so the constant entries have
    several denominators, and the generator words of the draw stay.  The
    inverse composes to the identity on both sides."""
    scales = (Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4), Fraction(-5, 6))
    for name in ("super", "z2z2"):
        cfg, alg = cfgs[name], algebras[name]
        n = cfg.space.dim
        ident = GradedOperator.identity(cfg.space, alg)
        diag = GradedOperator(cfg.space, alg, {(a, a): alg.scalar(scales[a - 1])
                                               for a in range(1, n + 1)})
        rng = random.Random("ops-rational/%s" % name)
        for _ in range(3):
            T = random_gl_epsilon(cfg.space, alg, rng)[0].compose(diag)
            assert any(x.constant_part().den > 1 for x in T.terms.values())
            assert any(x.proper_part() for x in T.terms.values())
            Tinv = invert_operator(T)
            assert T.compose(Tinv) == ident
            assert Tinv.compose(T) == ident


def test_invert_operator_refuses_a_singular_or_irrational_constant_part(cfgs, algebras):
    cfg, alg = cfgs["super"], algebras["super"]
    word = GradedOperator.matrix_unit(cfg.space, alg, 1, 1, alg.gen(1) * alg.gen(2))
    singular = GradedOperator.matrix_unit(cfg.space, alg, 1, 1, Fraction(1, 2)) + word
    with pytest.raises(ValueError, match="constant part of the operator is singular"):
        invert_operator(singular)
    cfg, alg = cfgs["z4"], algebras["z4"]
    irrational = GradedOperator.identity(cfg.space, alg) + GradedOperator.matrix_unit(
        cfg.space, alg, 2, 2, CycloRational.root(4, 1))
    with pytest.raises(ValueError, match="constant part of the operator is not rational"):
        invert_operator(irrational)


def test_operator_compose_associative(cfgs, algebras):
    cfg, alg = cfgs["z4"], algebras["z4"]
    rng = random.Random("opassoc")
    ops = [random_gl_epsilon(cfg.space, alg, rng)[0] for _ in range(3)]
    a, b, c = ops
    assert a.compose(b).compose(c) == a.compose(b.compose(c))


def test_matrix_unit_color_commutator(cfgs, algebras):
    for name in ("super", "z4"):
        cfg, alg = cfgs[name], algebras[name]
        chi = cfg.chi
        dim = cfg.space.dim
        degs = cfg.space.degrees

        def unit(a, b):
            return GradedOperator.matrix_unit(cfg.space, alg, a, b)

        add, neg = chi.sum_table, chi.neg_table
        for a, b, c, d in itertools.product(range(1, dim + 1), repeat=4):
            lhs = color_bracket(unit(a, b), unit(c, d))
            dab = add[degs[a - 1]][neg[degs[b - 1]]]
            dcd = add[degs[c - 1]][neg[degs[d - 1]]]
            rhs = GradedOperator.zero(cfg.space, alg)
            if b == c:
                rhs = rhs + unit(a, d)
            if d == a:
                rhs = rhs - unit(c, b).scale(chi.eps(dab, dcd))
            assert lhs == rhs, (name, a, b, c, d)


def _random_homogeneous_operator(space, alg, rng, alpha):
    """Entries of degree alpha + g_b - g_a with up to three words each,
    about half of the admissible entries set."""
    add, neg = space.chi.sum_table, space.chi.neg_table
    terms = {}
    for a in range(1, space.dim + 1):
        for b in range(1, space.dim + 1):
            if rng.random() < 0.5:
                d = add[add[alpha][space.degree(b)]][neg[space.degree(a)]]
                terms[(a, b)] = random_eps_of_degree(alg, d, rng, max_len=2, terms=3)
    return GradedOperator(space, alg, terms)


def _with_orders(op):
    return {(ab, w): (c.order, c) for ab, x in op.terms.items() for w, c in x.terms.items()}


def test_color_bracket_matches_two_products(cfgs, z12z12):
    """The one-sum bracket equals x y - eps(|x|, |y|) y x made from compose,
    scale and subtraction, `order` included, on multi-word entries."""
    for cfg in list(cfgs.values()) + [z12z12]:
        alg = standard_test_algebra(cfg.chi)
        chi = cfg.chi
        rng = random.Random("bracket/%s" % cfg.name)
        for _ in range(6):
            a, b = rng.randrange(chi.group.order), rng.randrange(chi.group.order)
            x = _random_homogeneous_operator(cfg.space, alg, rng, a)
            y = _random_homogeneous_operator(cfg.space, alg, rng, b)
            got = color_bracket(x, y)
            want = x.compose(y) - y.compose(x).scale(chi.eps(a, b))
            assert got == want, cfg.name
            assert _with_orders(got) == _with_orders(want), cfg.name


def test_color_bracket_refuses_operators_over_two_places(cfgs, algebras):
    cfg, alg = cfgs["z2z2"], algebras["z2z2"]
    x = GradedOperator.matrix_unit(cfg.space, alg, 1, 2)
    for y in (GradedOperator.matrix_unit(cfg.space, standard_test_algebra(cfg.chi, 2), 2, 1),
              GradedOperator.matrix_unit(GradedSpace(cfg.chi, cfg.space.degrees[:-1]),
                                         alg, 2, 1)):
        for args in ((x, y), (y, x)):
            with pytest.raises(ValueError, match="^GradedOperator operands live in "
                                                 "different places$"):
                color_bracket(*args)


def test_eta_action_is_multiplicative(cfgs, algebras):
    cfg, alg = cfgs["z2z2"], algebras["z2z2"]
    chi = cfg.chi
    t = GradedTensor.basis(cfg.space, alg, (0, 0), (2, 3))
    for g in chi.group.elements():
        for h in chi.group.elements():
            assert eta_action(chi.position(g), eta_action(chi.position(h), t)) \
                == eta_action(chi.position(chi.group.add(g, h)), t)
    assert eta_action(0, t) == t


def test_psi_on_one_slot_is_operator_application(cfgs, algebras):
    cfg, alg = cfgs["super"], algebras["super"]
    for a in range(1, 3):
        for b in range(1, 3):
            x = GradedOperator.matrix_unit(cfg.space, alg, a, b)
            for i in range(1, 3):
                v = GradedTensor.basis(cfg.space, alg, (0,), (i,))
                assert psi_derivation(x, v) == apply_operator(v, x)


def test_psi_satisfies_twisted_leibniz(cfgs, algebras):
    cfg, alg = cfgs["super"], algebras["super"]
    chi = cfg.chi
    add, neg = chi.sum_table, chi.neg_table
    degs = cfg.space.degrees
    for a, b in itertools.product(range(1, 3), repeat=2):
        x = GradedOperator.matrix_unit(cfg.space, alg, a, b)
        xdeg = add[degs[a - 1]][neg[degs[b - 1]]]
        for i, j in itertools.product(range(1, 3), repeat=2):
            u = GradedTensor.basis(cfg.space, alg, (0,), (i,))
            v = GradedTensor.basis(cfg.space, alg, (0,), (j,))
            t = tensor_product(u, v)
            lhs = psi_derivation(x, t)
            rhs = tensor_product(psi_derivation(x, u), v) + \
                tensor_product(u, psi_derivation(x, v)).scale(
                    chi.eps(xdeg, degs[i - 1]))
            assert lhs == rhs, (a, b, i, j)


def test_psi_sums_over_terms_and_over_matrix_units(cfgs, algebras):
    """psi_x is linear in the tensor and in the operator, at width <= 3 on
    every builtin: on a tensor of many terms it is the sum of psi_x over
    the terms, and an operator with several entries per column gives the
    sum of psi over its matrix units.  Both sums land several products on
    one word, which a matrix unit on a basis tensor rarely does."""
    for name, cfg in cfgs.items():
        space, alg, chi = cfg.space, algebras[name], cfg.chi
        n = space.dim
        add, neg = chi.sum_table, chi.neg_table
        # the entries (a, b) of each degree, each with its own coefficient
        entries = {}
        for c, (a, b) in enumerate(itertools.product(range(1, n + 1), repeat=2)):
            g = add[space.degree(a)][neg[space.degree(b)]]
            entries.setdefault(g, []).append((a, b, c + 2))
        units = [GradedOperator.matrix_unit(space, alg, a, b, c)
                 for ops in entries.values() for a, b, c in ops]
        for k in (1, 2, 3):
            basis = [GradedTensor.basis(space, alg, (PRIMAL,) * k, idx, coeff=j + 1)
                     for j, idx in enumerate(itertools.product(range(1, n + 1),
                                                               repeat=k))]
            t = sum(basis[1:], basis[0])
            for x in units:
                assert psi_derivation(x, t) == sum(
                    (psi_derivation(x, u) for u in basis[1:]),
                    psi_derivation(x, basis[0])), (name, k)
            for ops in entries.values():
                x = GradedOperator(space, alg, {(a, b): alg.scalar(c) for a, b, c in ops})
                parts = [GradedOperator.matrix_unit(space, alg, a, b, c) for a, b, c in ops]
                for u in basis:
                    assert psi_derivation(x, u) == sum(
                        (psi_derivation(y, u) for y in parts[1:]),
                        psi_derivation(parts[0], u)), (name, k)


def test_pairing_invariant_under_gl(cfgs, algebras):
    for name in ("super", "z2z2"):
        cfg, alg = cfgs[name], algebras[name]
        rng = random.Random("pairing/%s" % name)
        for _ in range(5):
            T, Tinv = random_gl_epsilon(cfg.space, alg, rng)
            for a in range(1, cfg.space.dim + 1):
                for b in range(1, cfg.space.dim + 1):
                    t = GradedTensor.basis(cfg.space, alg, (1, 0), (a, b))
                    moved = apply_operator(t, T, Tinv)
                    assert ev_pair(moved) == ev_pair(t)


def all_slots_chain(t, op, opinv):
    """apply_operator as the chain over all slots at once: every choice of
    one (new index, emitted coefficient) per slot gives the product
    hop(c_1, s_2) * ... * hop(c_k, s_(k+1)) * lam, s_j the degree of the
    new slots j..k, multiplied left to right and summed per new word.  A
    dual slot e_c* emits unhop(S_ca, g_a) with S = opinv."""
    space, chi = t.space, t.space.chi
    out = GradedTensor.zero(space, t.alg, t.variance)
    for idx, lam in t.terms.items():
        options = []
        for v, i in zip(t.variance, idx):
            if v == PRIMAL:
                options.append([(a, x) for (a, b), x in op.terms.items() if b == i])
            else:
                options.append([(a, hop(s, space.degree(a), invert=True))
                                for (c, a), s in opinv.terms.items() if c == i])
        for combo in itertools.product(*options):
            nidx = tuple(a for a, _ in combo)
            degs = t.slot_degrees(nidx)
            coeff = t.alg.one()
            for j, (_, c) in enumerate(combo):
                coeff = coeff * hop(c, chi.degree_sum(degs[j + 1:]))
            out = out + GradedTensor(space, t.alg, t.variance, {nidx: coeff * lam})
    return out


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_apply_operator_matches_the_all_slots_chain(cfgs, data):
    """Slot by slot over the whole tensor equals the chain over all slots,
    each coefficient's order, numerators and denominator included, on
    mixed variances of width up to 4; opinv need not be the inverse for
    the formula to hold.  When every slot has one image whatever its
    index, terms that differ only in the last slot meet at its pass, and a
    negated twin cancels there."""
    cfg = cfgs[data.draw(st.sampled_from(("super", "z2z2", "z3z3", "z4")))]
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    space, alg = cfg.space, standard_test_algebra(cfg.chi, 3)
    variance = tuple(data.draw(st.lists(st.sampled_from((PRIMAL, DUAL)),
                                        min_size=1, max_size=4)))
    T, Tinv = random_gl_epsilon(space, alg, rng)
    opinv = Tinv if data.draw(st.booleans()) else random_gl_epsilon(space, alg, rng)[0]
    if data.draw(st.booleans()):
        # every column of T and every row of opinv alike: e_b and e_c* have
        # one image whatever b and c are
        n = range(1, space.dim + 1)
        T = GradedOperator(space, alg, {(a, b): x for (a, c), x in T.terms.items()
                                        if c == 1 for b in n})
        opinv = GradedOperator(space, alg, {(c, a): x for (r, a), x in opinv.terms.items()
                                            if r == 1 for c in n})
    t = GradedTensor.zero(space, alg, variance)
    for _ in range(data.draw(st.integers(1, 3))):
        idx = tuple(rng.randint(1, space.dim) for _ in variance)
        lam = random_eps_of_degree(alg, rng.randrange(cfg.chi.group.order), rng, 1)
        twin = idx[:-1] + (rng.randint(1, space.dim),)
        t = t + GradedTensor(space, alg, variance, {idx: lam})
        t = t + GradedTensor(space, alg, variance, {twin: data.draw(st.sampled_from(
            (lam, -lam, alg.zero())))})
    got, want = apply_operator(t, T, opinv), all_slots_chain(t, T, opinv)
    assert exact_coefficients(got) == exact_coefficients(want)


def exact_coefficients(t):
    """{(basis word, word): (order, num, den)} over the tensor's terms."""
    return {(idx, w): (c.order, c.num, c.den)
            for idx, x in t.terms.items() for w, c in x.terms.items()}


def test_apply_operator_refuses_an_inverse_over_another_space(cfgs, algebras):
    """Checked before any work, whether or not the tensor has a dual slot."""
    cfg, alg = cfgs["z2z2"], algebras["z2z2"]
    T = GradedOperator.identity(cfg.space, alg)
    other = GradedOperator.identity(GradedSpace(cfg.chi, cfg.space.degrees[:-1]), alg)
    for variance in ((PRIMAL,), (PRIMAL, DUAL)):
        t = GradedTensor.basis(cfg.space, alg, variance, (1,) * len(variance))
        with pytest.raises(ValueError, match="^inverse operator and tensor live "
                                             "over different spaces$"):
            apply_operator(t, T, other)


def test_psi_derivation_refuses_an_operator_over_another_space_or_algebra(cfgs, algebras):
    cfg, alg = cfgs["z2z2"], algebras["z2z2"]
    t = GradedTensor.basis(cfg.space, alg, (PRIMAL, PRIMAL), (1, 2))
    foreign = (GradedOperator.matrix_unit(GradedSpace(cfg.chi, cfg.space.degrees[:-1]),
                                          alg, 1, 1),
               GradedOperator.matrix_unit(cfg.space, standard_test_algebra(cfg.chi, 2), 1, 1))
    for x in foreign:
        with pytest.raises(ValueError, match="^operator and tensor live over "
                                             "different spaces$"):
            psi_derivation(x, t)


def test_basis_slot_degrees(cfgs, algebras):
    cfg, alg = cfgs["z4"], algebras["z4"]
    t = GradedTensor.basis(cfg.space, alg, (0, 1, 0), (1, 2, 3))
    assert t.slot_degrees((1, 2, 3)) == (
        cfg.space.degrees[0], cfg.space.degrees[1], cfg.space.degrees[2])


def test_degree_preservation_detection(cfgs, algebras):
    cfg, alg = cfgs["super"], algebras["super"]
    same = GradedOperator.matrix_unit(cfg.space, alg, 1, 1)
    crossing = GradedOperator.matrix_unit(cfg.space, alg, 1, 2)
    assert same.g_degree() == 0
    assert crossing.g_degree() != 0


def test_matrix_unit_rejects_out_of_range_indices(cfgs, algebras):
    cfg, alg = cfgs["z2z2"], algebras["z2z2"]
    dim = cfg.space.dim
    for a, b in ((0, 1), (1, 0), (dim + 1, 1), (1, dim + 1), (-1, -1)):
        with pytest.raises(ValueError, match="out of range"):
            GradedOperator.matrix_unit(cfg.space, alg, a, b)
        with pytest.raises(ValueError, match="out of range"):
            GradedOperator.identity(cfg.space, alg).entry(a, b)
    assert GradedOperator.matrix_unit(cfg.space, alg, dim, 1).entry(dim, 1) == alg.one()


# ---- a dense referee for the sparse operator layout: every product, sum
# and degree below is recomputed entry by entry over entry(a, b), with
# nothing but EpsElement arithmetic.

def _dense(op):
    n = op.space.dim
    return [[op.entry(a, b) for b in range(1, n + 1)] for a in range(1, n + 1)]


def _dense_product(x, y):
    n = x.space.dim
    out = []
    for a in range(n):
        row = []
        for c in range(n):
            acc = x.alg.zero()
            for b in range(n):
                acc = acc + x.entry(a + 1, b + 1) * y.entry(b + 1, c + 1)
            row.append(acc)
        out.append(row)
    return out


def _dense_degree(op):
    space = op.space
    add, neg = space.chi.sum_table, space.chi.neg_table
    found = set()
    for a, row in enumerate(_dense(op), start=1):
        for b, e in enumerate(row, start=1):
            if e.is_zero():
                continue
            words = {e.alg.word_degree(w) for w in e.terms}
            for d in words:
                found.add(add[d][add[space.degree(a)][neg[space.degree(b)]]])
    if not found:
        return 0
    return found.pop() if len(found) == 1 else None


def _random_unit_sum(space, alg, rng, homogeneous):
    """A sum of matrix units with word coefficients; homogeneous of one
    random degree, or with entries of unrelated random degrees."""
    chi = space.chi
    add, neg = chi.sum_table, chi.neg_table
    els = [chi.position(g) for g in chi.group.elements()]
    n = space.dim
    alpha = rng.choice(els)
    out = GradedOperator.zero(space, alg)
    for _ in range(rng.randint(1, 2 * n)):
        a, b = rng.randint(1, n), rng.randint(1, n)
        if homogeneous:
            d = add[alpha][add[space.degree(b)][neg[space.degree(a)]]]
        else:
            d = rng.choice(els)
        coeff = random_eps_of_degree(alg, d, rng, max_len=2)
        out = out + GradedOperator.matrix_unit(space, alg, a, b, coeff)
    return out


def test_sparse_operators_match_dense_referee(cfgs):
    for name, cfg in sorted(cfgs.items()):
        space = cfg.space
        alg = standard_test_algebra(cfg.chi, truncation=3)
        rng = random.Random("dense-referee/%s" % name)
        ops = [GradedOperator.zero(space, alg), GradedOperator.identity(space, alg)]
        for _ in range(4):
            ops.append(_random_unit_sum(space, alg, rng, homogeneous=True))
            ops.append(_random_unit_sum(space, alg, rng, homogeneous=False))
        for _ in range(2):
            ops.extend(random_gl_epsilon(space, alg, rng))
        if len(cfg.chi.group.elements()) > 1:
            assert any(op.g_degree() is None for op in ops)
        scalars = [CycloRational.zero(), CycloRational.from_rational(-3),
                   cfg.chi.root(1)]
        for x in ops:
            dx = _dense(x)
            assert x.g_degree() == _dense_degree(x)
            assert x.is_zero() == all(e.is_zero() for row in dx for e in row)
            assert all(e for e in x.terms.values())
            assert (x - x).is_zero()
            for c in scalars:
                assert _dense(x.scale(c)) == [[e.scale(c) for e in row] for row in dx]
            for y in ops:
                dy = _dense(y)
                assert _dense(x.compose(y)) == _dense_product(x, y), name
                assert _dense(x + y) == [[p + q for p, q in zip(r, s)]
                                         for r, s in zip(dx, dy)]
                assert _dense(x - y) == [[p - q for p, q in zip(r, s)]
                                         for r, s in zip(dx, dy)]
                assert (x == y) == (dx == dy)
        assert GradedOperator.zero(space, alg).g_degree() == 0
