"""Mixed symmetric algebras: normal forms, dimensions, sign commutativity."""

import itertools
import random

from colorinv.cyclo import CycloRational
from colorinv.sampling import random_sym_polynomial, standard_test_algebra
from colorinv.sympoly import (
    MixedShape,
    SymPolynomial,
    SymVariable,
    enumerate_sym_basis,
    mul_terms,
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


def word_key(shape):
    return lambda word: tuple(shape.var_key(v) for v in word)


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
            assert sorted(basis, key=word_key(cfg.shape)) == list(basis)


def test_normalize_is_idempotent_and_sorts(cfgs):
    for name in ("super", "z2z2"):
        shape = cfgs[name].shape
        rng = random.Random("norm/%s" % name)
        pool = shape.variables()
        for _ in range(40):
            seq = tuple(rng.choice(pool) for _ in range(rng.randint(0, 4)))
            res = sym_normalize(shape, seq)
            if res is None:
                continue
            c, word = res
            assert not c.is_zero()
            assert list(word) == sorted(word, key=shape.var_key)
            c2, word2 = sym_normalize(shape, word)
            assert word2 == word
            assert c2 == CycloRational.one()


def test_normalize_swap_relation(cfgs):
    for name in ("super", "z4", "z3z3"):
        shape = cfgs[name].shape
        chi = shape.chi
        rng = random.Random("swap/%s" % name)
        pool = shape.variables()
        for _ in range(40):
            k = rng.randint(2, 4)
            seq = [rng.choice(pool) for _ in range(k)]
            i = rng.randrange(k - 1)
            swapped = list(seq)
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
            res1 = sym_normalize(shape, tuple(seq))
            res2 = sym_normalize(shape, tuple(swapped))
            factor = chi.eps(shape.var_degree(seq[i]),
                             shape.var_degree(seq[i + 1]))
            if res1 is None:
                assert res2 is None
            else:
                c1, w1 = res1
                c2, w2 = res2
                assert w1 == w2
                assert c1 == c2 * factor


def test_odd_variable_squares_vanish(cfgs):
    shape = cfgs["super"].shape
    odd = SymVariable(1, (1,), (2,))
    assert shape.chi.parity_bit(shape.var_degree(odd)) == 1
    p = SymPolynomial.from_word(shape, (odd,))
    assert (p * p).is_zero()
    even = SymVariable(1, (1,), (1,))
    q = SymPolynomial.from_word(shape, (even,))
    assert not (q * q).is_zero()


def test_monomials_sign_commute(cfgs):
    for name in ("super", "z2z2"):
        shape = cfgs[name].shape
        chi = shape.chi
        rng = random.Random("comm/%s" % name)
        pool = shape.variables()
        for _ in range(30):
            w1 = tuple(rng.choice(pool) for _ in range(rng.randint(1, 2)))
            w2 = tuple(rng.choice(pool) for _ in range(rng.randint(1, 2)))
            p1 = SymPolynomial.from_word(shape, w1)
            p2 = SymPolynomial.from_word(shape, w2)
            d1 = chi.degree_sum([shape.var_degree(v) for v in w1])
            d2 = chi.degree_sum([shape.var_degree(v) for v in w2])
            assert p1 * p2 == (p2 * p1).scale(chi.eps(d1, d2))


def test_symmetrize_is_a_projector(cfgs):
    for name in ("super", "z4"):
        shape = cfgs[name].shape
        rng = random.Random("proj/%s" % name)
        pool = shape.variables()
        for _ in range(8):
            seq = tuple(rng.choice(pool) for _ in range(rng.randint(1, 3)))
            once = symmetrize(shape, seq)
            twice = SymPolynomial(shape, {})
            for word, c in once.terms.items():
                twice = twice + symmetrize(shape, word).scale(c)
            assert twice == once


def test_polynomial_ring_operations(cfgs):
    shape = cfgs["trivial"].shape
    v11 = SymVariable(1, (1,), (1,))
    v12 = SymVariable(1, (1,), (2,))
    p = SymPolynomial.from_word(shape, (v11,))
    q = SymPolynomial.from_word(shape, (v12,), CycloRational.from_rational(2))
    assert p + q == q + p
    assert (p + q) * p == p * p + q * p
    assert p - p == SymPolynomial(shape, {})
    assert (p - p).is_zero()
    one = SymPolynomial.from_word(shape, ())
    assert one * p == p
    assert p.scale(CycloRational.zero()).is_zero()


def test_mul_terms_on_ids_matches_variables(cfgs):
    """The product keeps the monomials' form: over ids it is the product
    over SymVariables with each variable replaced by its id."""
    for name in ("super", "z3z3"):
        shape = cfgs[name].shape
        ids = shape.numbering().ids

        def as_ids(terms):
            return {tuple(ids[v] for v in m): c for m, c in terms.items()}

        rng = random.Random("mul/%s" % name)
        for _ in range(10):
            left, right = (random_sym_polynomial(shape, 2, rng) for _ in range(2))
            named = mul_terms(shape, left.terms, right.terms)
            assert mul_terms(shape, as_ids(left.terms), as_ids(right.terms)) == as_ids(named)
            assert (left * right).terms == named


def test_variable_checks(cfgs):
    shape = cfgs["super"].shape
    ok = SymVariable(1, (1,), (2,))
    shape.check_variable(ok)
    import pytest
    with pytest.raises((AssertionError, ValueError)):
        shape.check_variable(SymVariable(2, (1,), (1,)))
    with pytest.raises((AssertionError, ValueError)):
        shape.check_variable(SymVariable(1, (1, 1), (1,)))


def test_enumerate_by_multidegree(cfgs):
    shape = MixedShape(cfgs["trivial"].space, [(1, 1), (1, 1)])
    key = word_key(shape)
    full = enumerate_sym_basis(shape, 2)
    split = []
    for M in ((2, 0), (1, 1), (0, 2)):
        split.extend(enumerate_sym_basis(shape, 2, multidegree=M))
    assert sorted(full, key=key) == sorted(split, key=key)
    for word in enumerate_sym_basis(shape, 2, multidegree=(1, 1)):
        counts = [0, 0]
        for v in word:
            counts[v.summand - 1] += 1
        assert counts == [1, 1]


def test_variable_numbering(cfgs):
    """Ids are 0..n-1 in variables() order, increasing in var_key; the
    code tables and the id lists agree with the variables; a word of ids
    normalizes like the word of its variables."""
    for cfg in cfgs.values():
        for shape in (cfg.shape, MixedShape(cfg.space, [(2, 1), (1, 2), (0, 0)])):
            num = shape.numbering()
            vs = shape.variables()
            assert list(num.variables) == vs
            assert [num.ids[v] for v in vs] == list(range(len(vs)))
            keys = [shape.var_key(v) for v in vs]
            assert all(a < b for a, b in zip(keys, keys[1:]))
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
                assert num.parity[k] == shape.var_parity(v)
            rng = random.Random("ids/%s" % cfg.name)
            for _ in range(20):
                word = [rng.choice(vs) for _ in range(rng.randint(0, 4))]
                named = sym_normalize(shape, word)
                numbered = sym_normalize(shape, [num.ids[v] for v in word])
                if named is None:
                    assert numbered is None
                else:
                    assert numbered[0] == named[0]
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
                assert num.degree[num.ids[v]] == d
                assert shape.var_degree(v) == d
                assert shape.var_parity(v) == cfg.chi.parity_bit(d)
                expected.append((d, i, v.lower, v.upper, v))
        expected.sort()
        assert list(num.variables) == [row[-1] for row in expected]
        assert shape.variables() == [row[-1] for row in expected]
        assert [shape.var_key(v) for v in num.variables] == list(range(len(expected)))


def test_sym_variable_hash_and_repr():
    """SymVariable hashes as its field tuple, so dict and set order is that
    of the field tuples, and keeps its keyword repr."""
    v = SymVariable(2, (1, 3), (2,))
    assert hash(v) == hash((v.summand, v.lower, v.upper))
    assert repr(v) == "SymVariable(summand=2, lower=(1, 3), upper=(2,))"
    assert v == SymVariable(2, (1, 3), (2,))
    assert v.word() == (1, 3, 2)
