"""Seeded random generation of test data: Lambda_eps elements of prescribed
degree, degree-0 points, and polynomials.  All functions take an explicit
random.Random so verification runs are reproducible."""

from __future__ import annotations

from .cyclo import CycloRational
from .epsalgebra import EpsAlgebra, EpsElement, add_term, words_of_degree
from .sympoly import SymPolynomial, enumerate_sym_basis
from .tensors import GradedTensor
from .traces import W0Point

def standard_test_algebra(chi, truncation=4):
    """An eps-Grassmann algebra with two generators per group element, so
    words of every degree exist at every parity the group allows."""
    return EpsAlgebra(chi, [d for d in range(chi.group.order) for _ in (0, 1)],
                      truncation)

def random_rational(rng):
    """A rational CycloRational num/den, num in -4..4 and den in 1, 2, 3."""
    num = rng.randint(-4, 4)
    return CycloRational.from_rational(num, rng.choice([1, 1, 2, 3]))

def random_eps_of_degree(alg, d, rng, max_len=2, terms=2):
    """A random homogeneous element of the given G-degree; zero only when no
    word of that degree exists within the length bound.  Pool words are
    normal, so alg.monomial(w, c) would be c.times_root(m, 0) at w."""
    pool = words_of_degree(alg, d, max_len)
    if not pool:
        return alg.zero()
    out = {}
    for _ in range(terms):
        w = pool[rng.randrange(len(pool))]
        c = random_rational(rng)
        if c:
            add_term(out, w, c.times_root(alg.chi.m, 0))
    if not out:
        return alg.monomial(pool[rng.randrange(len(pool))], 1)
    return EpsElement(alg, out)

def random_w0_point(shape, alg, rng, density=0.7, max_len=2):
    """A random degree-0 point of W with homogeneous coefficients."""
    neg = shape.chi.neg_table
    num = shape.numbering()
    parts = []
    for i in range(1, shape.s + 1):
        terms = {}
        for idx, k in zip(shape.index_words(i), num.codes[i - 1]):
            if rng.random() > density:
                continue
            lam = random_eps_of_degree(alg, neg[num.degree[k]], rng, max_len)
            if lam:
                terms[idx] = lam
        parts.append(GradedTensor(shape.space, alg, shape.variance(i), terms))
    return W0Point(shape, alg, parts)

def random_sym_polynomial(shape, r, rng, terms=4):
    """A random polynomial supported on degree <= r monomials."""
    out = SymPolynomial.zero(shape)
    bases = {}
    for _ in range(terms):
        deg = rng.randint(1, r)
        basis = bases.get(deg)
        if basis is None:
            basis = bases[deg] = enumerate_sym_basis(shape, deg)
        if not basis:
            continue
        mono = basis[rng.randrange(len(basis))]
        c = random_rational(rng)
        if c:
            out = out + SymPolynomial(shape, {mono: c})
    return out
