"""Mixed symmetric algebras: normal forms, dimensions, sign commutativity."""

import itertools
import random

import pytest

from colorinv.cyclo import CycloRational
from colorinv.sampling import standard_test_algebra
from colorinv.sympoly import (
    MixedShape,
    SymPolynomial,
    SymVariable,
    enumerate_sym_basis,
    sym_dimension,
    sym_normalize,
    symmetrize,
)
from colorinv.tensors import GradedTensor

DIMENSION_SERIES = {
    "trivial": [1, 4, 10, 20],
    "super": [1, 4, 8, 12],
    "z4": [1, 9, 41, 129],
    "z2z2": [1, 9, 41, 129],
    "z3z3": [1, 9, 45, 165],
}


def id_pool(shape):
    """Every variable id of the shape, in order."""
    return list(range(len(shape.numbering().variables)))


def test_dimension_series_frozen(cfgs):
    for name, series in DIMENSION_SERIES.items():
        shape = cfgs[name].shape
        assert [sym_dimension(shape, r) for r in range(4)] == series


def test_mixed_shape_dimension_series(cfgs):
    shape = MixedShape(cfgs["super"].space, [(2, 1), (1, 2)])
    assert [sym_dimension(shape, r) for r in range(4)] == [1, 16, 128, 688]


def test_dimension_matches_enumeration(cfgs):
    for name, cfg in cfgs.items():
        for r in range(3):
            basis = enumerate_sym_basis(cfg.shape, r)
            assert len(basis) == sym_dimension(cfg.shape, r)
            assert len(set(basis)) == len(basis)
            assert all(isinstance(k, int) for word in basis for k in word)
            assert sorted(basis) == list(basis)


def test_normalize_is_idempotent_and_sorts(cfgs):
    for name in ("super", "z2z2"):
        shape = cfgs[name].shape
        rng = random.Random("norm/%s" % name)
        pool = id_pool(shape)
        for _ in range(40):
            seq = tuple(rng.choice(pool) for _ in range(rng.randint(0, 4)))
            res = sym_normalize(shape, seq)
            if res is None:
                continue
            _, word = res
            assert list(word) == sorted(word)
            e2, word2 = sym_normalize(shape, word)
            assert word2 == word
            assert shape.chi.root(e2) == CycloRational.one()


def test_normalize_swap_relation(cfgs):
    for name in ("super", "z4", "z3z3"):
        shape = cfgs[name].shape
        chi = shape.chi
        degree = shape.numbering().degree
        rng = random.Random("swap/%s" % name)
        pool = id_pool(shape)
        for _ in range(40):
            k = rng.randint(2, 4)
            seq = [rng.choice(pool) for _ in range(k)]
            i = rng.randrange(k - 1)
            swapped = list(seq)
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
            res1 = sym_normalize(shape, tuple(seq))
            res2 = sym_normalize(shape, tuple(swapped))
            factor = chi.eps(degree[seq[i]], degree[seq[i + 1]])
            if res1 is None:
                assert res2 is None
            else:
                e1, w1 = res1
                e2, w2 = res2
                assert w1 == w2
                assert chi.root(e1) == chi.root(e2) * factor


def test_odd_variable_squares_vanish(cfgs):
    shape = cfgs["super"].shape
    degree = shape.numbering().degree
    odd = shape.var_id(SymVariable(1, (1,), (2,)))
    assert shape.chi.parity_bit(degree[odd]) == 1
    p = SymPolynomial.from_word(shape, (odd,))
    assert (p * p).is_zero()
    even = shape.var_id(SymVariable(1, (1,), (1,)))
    q = SymPolynomial.from_word(shape, (even,))
    assert not (q * q).is_zero()


def test_monomials_sign_commute(cfgs):
    for name in ("super", "z2z2"):
        shape = cfgs[name].shape
        chi = shape.chi
        degree = shape.numbering().degree
        rng = random.Random("comm/%s" % name)
        pool = id_pool(shape)
        for _ in range(30):
            w1 = tuple(rng.choice(pool) for _ in range(rng.randint(1, 2)))
            w2 = tuple(rng.choice(pool) for _ in range(rng.randint(1, 2)))
            p1 = SymPolynomial.from_word(shape, w1)
            p2 = SymPolynomial.from_word(shape, w2)
            d1 = chi.degree_sum([degree[k] for k in w1])
            d2 = chi.degree_sum([degree[k] for k in w2])
            assert p1 * p2 == (p2 * p1).scale(chi.eps(d1, d2))


def test_symmetrize_is_a_projector(cfgs):
    for name in ("super", "z4"):
        shape = cfgs[name].shape
        rng = random.Random("proj/%s" % name)
        pool = id_pool(shape)
        for _ in range(8):
            seq = tuple(rng.choice(pool) for _ in range(rng.randint(1, 3)))
            once = symmetrize(shape, seq)
            twice = SymPolynomial(shape, {})
            for word, c in once.terms.items():
                twice = twice + symmetrize(shape, word).scale(c)
            assert twice == once


def test_polynomial_ring_operations(cfgs):
    shape = cfgs["trivial"].shape
    v11 = shape.var_id(SymVariable(1, (1,), (1,)))
    v12 = shape.var_id(SymVariable(1, (1,), (2,)))
    p = SymPolynomial.from_word(shape, (v11,))
    q = SymPolynomial.from_word(shape, (v12,), CycloRational.from_rational(2))
    assert p + q == q + p
    assert (p + q) * p == p * p + q * p
    assert p - p == SymPolynomial(shape, {})
    assert (p - p).is_zero()
    one = SymPolynomial.from_word(shape, ())
    assert one * p == p
    assert p.scale(CycloRational.zero()).is_zero()


def test_variable_checks(cfgs):
    shape = cfgs["super"].shape
    ok = SymVariable(1, (1,), (2,))
    shape.check_variable(ok)
    with pytest.raises((AssertionError, ValueError)):
        shape.check_variable(SymVariable(2, (1,), (1,)))
    with pytest.raises((AssertionError, ValueError)):
        shape.check_variable(SymVariable(1, (1, 1), (1,)))


def test_from_word_rejects_ids_outside_the_table(cfgs):
    """Ids run 0..n-1; -1 would otherwise wrap to the last variable."""
    shape = cfgs["super"].shape
    n = len(shape.numbering().variables)
    assert SymPolynomial.from_word(shape, (0, n - 1)).terms
    for bad in (-1, n):
        with pytest.raises(ValueError, match="out of range"):
            SymPolynomial.from_word(shape, (0, bad))


def test_from_word_rejects_entries_that_are_not_ids(cfgs):
    """A SymVariable, or any other non-int, where an id belongs is named."""
    shape = cfgs["super"].shape
    v = SymVariable(1, (1,), (1,))
    with pytest.raises(ValueError, match=r"variable id SymVariable\(.*\) is not an int"):
        SymPolynomial.from_word(shape, (0, v))
    with pytest.raises(ValueError, match="variable id '0' is not an int"):
        SymPolynomial.from_word(shape, ("0",))
    assert SymPolynomial.from_word(shape, (shape.var_id(v),)).terms


def test_enumerate_by_multidegree(cfgs):
    shape = MixedShape(cfgs["trivial"].space, [(1, 1), (1, 1)])
    vs = shape.numbering().variables
    full = enumerate_sym_basis(shape, 2)
    split = []
    for M in ((2, 0), (1, 1), (0, 2)):
        split.extend(enumerate_sym_basis(shape, 2, multidegree=M))
    assert sorted(full) == sorted(split)
    for word in enumerate_sym_basis(shape, 2, multidegree=(1, 1)):
        counts = [0, 0]
        for k in word:
            counts[vs[k].summand - 1] += 1
        assert counts == [1, 1]


def textbook_normalize(shape, word):
    """A word of SymVariables bubble-sorted into the written-out order
    (degree position, summand, lower, upper), one eps factor per swap of
    neighbours; None when an odd variable repeats."""
    chi, order = shape.chi, shape.chi.element_order()

    def degree(v):
        d = chi.group.identity
        for x in v.lower:
            d = chi.group.add(d, order[shape.space.degree(x)])
        for x in v.upper:
            d = chi.group.add(d, chi.group.neg(order[shape.space.degree(x)]))
        return order.index(d)

    def key(v):
        return degree(v), v.summand, v.lower, v.upper

    word = list(word)
    c = chi.root(0)
    for end in range(len(word) - 1, 0, -1):
        for j in range(end):
            if key(word[j]) > key(word[j + 1]):
                c = c * chi.eps(degree(word[j]), degree(word[j + 1]))
                word[j], word[j + 1] = word[j + 1], word[j]
    if any(a == b and chi.parity_bit(degree(a)) for a, b in zip(word, word[1:])):
        return None
    return c, tuple(word)


def test_variable_numbering(cfgs):
    """Ids are 0..n-1 in the order of Numbering.variables, and var_id maps
    each variable to its place; the code tables and the id lists agree
    with the variables; a word of ids normalizes like the word of its
    variables, re-sorted by a textbook insertion sort."""
    for cfg in cfgs.values():
        for shape in (cfg.shape, MixedShape(cfg.space, [(2, 1), (1, 2), (0, 0)])):
            num = shape.numbering()
            vs = list(num.variables)
            assert [num.ids[v] for v in vs] == list(range(len(vs)))
            assert [shape.var_id(v) for v in vs] == list(range(len(vs)))
            dim = shape.space.dim
            seen = []
            for i, (b, t) in enumerate(shape.pairs, start=1):
                table = num.codes[i - 1]
                words = list(itertools.product(range(1, dim + 1), repeat=b + t))
                assert len(table) == len(words)
                for code, word in enumerate(words):
                    assert num.variables[table[code]] == SymVariable(i, word[:b], word[b:])
                seen.extend(table)
            assert sorted(seen) == list(range(len(vs)))
            order, grp = shape.chi.element_order(), shape.chi.group
            for k, v in enumerate(vs):
                d = grp.identity
                for x in v.lower:
                    d = grp.add(d, order[shape.space.degree(x)])
                for x in v.upper:
                    d = grp.add(d, grp.neg(order[shape.space.degree(x)]))
                assert order[num.degree[k]] == d
                assert num.parity[k] == shape.chi.parity_bit(num.degree[k])
            rng = random.Random("ids/%s" % cfg.name)
            for _ in range(20):
                word = [rng.choice(vs) for _ in range(rng.randint(0, 4))]
                named = textbook_normalize(shape, word)
                numbered = sym_normalize(shape, [shape.var_id(v) for v in word])
                if named is None:
                    assert numbered is None
                else:
                    assert shape.chi.root(numbered[0]) == named[0]
                    assert tuple(num.variables[k] for k in numbered[1]) == named[1]


def table_shapes(cfgs):
    for cfg in cfgs.values():
        yield cfg, cfg.shape
    yield cfgs["super"], MixedShape(cfgs["super"].space, [(2, 1), (1, 2)])


def test_variable_table_degrees_and_order(cfgs):
    """The numbering is the one table of W's variables: each id's degree is
    the tensor word degree of its basis word on the summand's variance, and
    ids run in the written-out order (degree position, summand, lower,
    upper)."""
    for cfg, shape in table_shapes(cfgs):
        num = shape.numbering()
        alg = standard_test_algebra(cfg.chi, 2)
        expected = []
        for i, (b, t) in enumerate(shape.pairs, start=1):
            probe = GradedTensor.zero(shape.space, alg, shape.variance(i))
            for word in itertools.product(range(1, shape.space.dim + 1),
                                          repeat=b + t):
                v = SymVariable(i, word[:b], word[b:])
                d = probe.word_degree(word)
                assert num.degree[shape.var_id(v)] == d
                assert num.parity[shape.var_id(v)] == cfg.chi.parity_bit(d)
                expected.append((d, i, v.lower, v.upper, v))
        expected.sort()
        assert list(num.variables) == [row[-1] for row in expected]
        assert [shape.var_id(v) for v in num.variables] == list(range(len(expected)))


def test_sym_variable_hash_and_repr():
    """SymVariable hashes as its field tuple, so dict and set order is that
    of the field tuples, and keeps its keyword repr."""
    v = SymVariable(2, (1, 3), (2,))
    assert hash(v) == hash((v.summand, v.lower, v.upper))
    assert repr(v) == "SymVariable(summand=2, lower=(1, 3), upper=(2,))"
    assert v == SymVariable(2, (1, 3), (2,))
    assert v.word() == (1, 3, 2)
