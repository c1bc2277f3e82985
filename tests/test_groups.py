"""Finite abelian grading groups and their bicharacters, and every
verification suite on drawn gradings."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from colorinv import oracle
from colorinv.config import parse_config_text
from colorinv.cyclo import CycloRational
from colorinv.groups import Bicharacter, FiniteAbelianGroup, validate_bicharacter


def test_builtin_bicharacters_validate(cfgs):
    for name, cfg in cfgs.items():
        assert validate_bicharacter(cfg.chi) == [], name


def test_wrong_shape_exponent_matrix_rejected():
    grp = FiniteAbelianGroup([2])
    with pytest.raises(ValueError):
        Bicharacter(grp, [[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        Bicharacter(grp, [])


def test_group_basics():
    grp = FiniteAbelianGroup([2, 2])
    assert grp.order == 4
    assert grp.identity == (0, 0)
    assert grp.add((1, 0), (1, 1)) == (0, 1)
    assert grp.neg((1, 1)) == (1, 1)
    grp9 = FiniteAbelianGroup([3, 3])
    assert grp9.order == 9
    assert grp9.neg((1, 2)) == (2, 1)


def eps_of(chi, g, h):
    """eps of two int tuples, through their positions."""
    return chi.eps(chi.position(g), chi.position(h))


def test_known_epsilon_values(cfgs):
    minus_one = CycloRational.from_rational(Fraction(-1))
    one = CycloRational.one()
    sup = cfgs["super"].chi
    assert eps_of(sup, (1,), (1,)) == minus_one
    assert eps_of(sup, (0,), (1,)) == one
    z4 = cfgs["z4"].chi
    assert eps_of(z4, (1,), (1,)) == minus_one
    assert eps_of(z4, (1,), (2,)) == one
    assert eps_of(z4, (1,), (3,)) == minus_one
    assert eps_of(z4, (3,), (3,)) == minus_one
    z33 = cfgs["z3z3"].chi
    assert eps_of(z33, (1, 0), (0, 1)) == CycloRational.root(3, 1)
    assert eps_of(z33, (0, 1), (1, 0)) == CycloRational.root(3, 2)


def test_skew_symmetry_exhaustive(cfgs):
    for cfg in cfgs.values():
        chi = cfg.chi
        for g in range(chi.group.order):
            for h in range(chi.group.order):
                assert chi.eps(g, h) * chi.eps(h, g) == CycloRational.one()


def test_biadditivity_exhaustive_small(cfgs):
    for name in ("super", "z2z2", "z4"):
        chi = cfgs[name].chi
        grp = chi.group
        els = list(grp.elements())
        for g in els:
            for h in els:
                for k in els:
                    assert eps_of(chi, grp.add(g, h), k) == eps_of(chi, g, k) * eps_of(chi, h, k)
                    assert eps_of(chi, g, grp.add(h, k)) == eps_of(chi, g, h) * eps_of(chi, g, k)


def test_parity_partition_sizes(cfgs):
    expected = {
        "trivial": (1, 0),
        "super": (1, 1),
        "z4": (2, 2),
        "z2z2": (2, 2),
        "z3z3": (9, 0),
    }
    for name, (ne, no) in expected.items():
        chi = cfgs[name].chi
        evens = [g for g in chi.group.elements() if chi.eps_exponent(g, g) == 0]
        odds = [g for g in chi.group.elements() if chi.eps_exponent(g, g) != 0]
        assert len(evens) == ne
        assert len(odds) == no
        for g in evens:
            assert chi.parity_bit(chi.position(g)) == 0
        for g in odds:
            assert chi.parity_bit(chi.position(g)) == 1


def test_element_ordering_identity_first(cfgs):
    for cfg in cfgs.values():
        chi = cfg.chi
        ordered = list(chi.element_order())
        evens = [g for g in chi.group.elements() if chi.eps_exponent(g, g) == 0]
        odds = [g for g in chi.group.elements() if chi.eps_exponent(g, g) != 0]
        assert ordered == evens + odds
        assert ordered[0] == chi.group.identity
        assert sorted(ordered) == sorted(chi.group.elements())
        for pos, g in enumerate(ordered):
            assert chi.position(g) == pos


def test_parity_matches_self_pairing(cfgs):
    for cfg in cfgs.values():
        chi = cfg.chi
        minus_one = CycloRational.from_rational(Fraction(-1))
        for g in range(chi.group.order):
            val = chi.eps(g, g)
            if chi.parity_bit(g):
                assert val == minus_one
            else:
                assert val == CycloRational.one()


def test_root_shortcut(cfgs):
    for cfg in cfgs.values():
        chi = cfg.chi
        for e in range(-3, 7):
            assert chi.root(e) * chi.root(-e) == CycloRational.one()
            assert chi.root(e + 1) == chi.root(e) * chi.root(1)
        assert chi.eps(0, 0) == CycloRational.one()


def test_eps_exponent_consistent_with_eps(cfgs):
    for cfg in cfgs.values():
        chi = cfg.chi
        for g in chi.group.elements():
            for h in chi.group.elements():
                assert eps_of(chi, g, h) == chi.root(chi.eps_exponent(g, h))


# ------------------------------------------ the tables over positions

def assert_tables_match_tuples(chi):
    """The referee of the position tables: at every position, and every
    pair of positions, the parity, negation, sum and eps tables agree with
    the int tuple arithmetic of FiniteAbelianGroup and with eps_exponent,
    and position 0 is the identity."""
    grp, order = chi.group, chi.element_order()
    assert order[0] == grp.identity
    assert sorted(order) == grp.elements()
    minus_one = CycloRational.from_rational(Fraction(-1))
    for a, g in enumerate(order):
        assert chi.position(g) == a
        sign = chi.root(chi.eps_exponent(g, g))
        assert sign == (minus_one if chi.parity_table[a] else CycloRational.one())
        assert chi.parity_bit(a) == chi.parity_table[a]
        assert order[chi.neg_table[a]] == grp.neg(g)
        for b, h in enumerate(order):
            assert order[chi.sum_table[a][b]] == grp.add(g, h)
            assert chi.eps_table[a][b] == chi.eps_exponent(g, h)


def test_position_tables_match_tuple_arithmetic(cfgs, z12z12):
    for cfg in list(cfgs.values()) + [z12z12]:
        assert_tables_match_tuples(cfg.chi)
    assert z12z12.chi.group.order == 144


# ------------------------------------ the matrix checks imply the axioms

@st.composite
def factors_and_matrices(draw):
    """(factors, B) with |G| <= 36.  B is drawn with arbitrary integer
    entries, or built to pass the matrix checks (off-diagonal entries
    multiples of m / gcd(d_i, d_j) with B_ji = -B_ij, diagonal entries 0 or
    m/2 where m/2 is a multiple of m / d_i), and then perhaps shifted at
    one entry."""
    factors = [draw(st.integers(1, 36))]
    while len(factors) < 3 and draw(st.booleans()):
        room = 36 // math.prod(factors)
        if room < 2:
            break
        factors.append(draw(st.integers(2, room)))
    k = len(factors)
    m = math.lcm(*factors)
    entries = st.integers(-2 * m, 2 * m)
    if draw(st.booleans()):
        B = [[draw(entries) for _ in range(k)] for _ in range(k)]
    else:
        B = [[0] * k for _ in range(k)]
        for i in range(k):
            if m % 2 == 0 and (m // 2) % (m // factors[i]) == 0 and draw(st.booleans()):
                B[i][i] = m // 2
            for j in range(i + 1, k):
                B[i][j] = draw(st.integers(-3, 3)) * (m // math.gcd(factors[i], factors[j]))
                B[j][i] = -B[i][j]
        if draw(st.booleans()):
            B[draw(st.integers(0, k - 1))][draw(st.integers(0, k - 1))] += draw(entries)
    return factors, B


@given(case=factors_and_matrices())
@settings(max_examples=60, deadline=None)
def test_matrix_checks_imply_bicharacter_axioms(case):
    factors, B = case
    k = len(factors)
    m = math.lcm(*factors)
    chi = Bicharacter(factors, B)
    failures = validate_bicharacter(chi)

    # every violated matrix condition is reported, once
    violated = sum((B[i][j] + B[j][i]) % m != 0 for i in range(k) for j in range(k)) \
        + sum((d * B[i][j]) % m != 0
              for i in range(k) for j in range(k) for d in (factors[i], factors[j]))
    assert len(failures) == violated
    if failures:
        return
    assert_tables_match_tuples(chi)

    # g^T B h, written out, over every pair and triple of G
    els = list(itertools.product(*(range(d) for d in factors)))
    where = {g: a for a, g in enumerate(els)}
    exp = [[sum(g[i] * B[i][j] * h[j] for i in range(k) for j in range(k)) % m
            for h in els] for g in els]
    add = [[where[tuple((x + y) % d for x, y, d in zip(g, h, factors))] for h in els]
           for g in els]
    for a in range(len(els)):
        assert 2 * exp[a][a] % m == 0
        for b in range(len(els)):
            assert (exp[a][b] + exp[b][a]) % m == 0
            ab = add[a][b]
            for c in range(len(els)):
                assert exp[ab][c] == (exp[a][c] + exp[b][c]) % m
                assert exp[c][ab] == (exp[c][a] + exp[c][b]) % m


# ------------------------------------------ every suite on drawn gradings

DRAWN_SHAPES = ("[(1, 1)]", "[(2, 1), (1, 2)]", "[(1, 1), (1, 1)]")


@given(case=factors_and_matrices(), data=st.data())
@settings(max_examples=10, deadline=None)
def test_every_suite_passes_on_drawn_gradings(case, data):
    """A valid drawn bicharacter, at most three basis degrees in the fixed
    order of G and one of DRAWN_SHAPES, written as config text with
    bounds.max_n = 2: all ten suites pass.  A failure prints the text,
    which `colorinv verify --config FILE` replays."""
    factors, B = case
    chi = Bicharacter(factors, B)
    assume(not validate_bicharacter(chi))
    order = chi.element_order()
    positions = data.draw(st.lists(st.integers(0, len(order) - 1), min_size=1, max_size=3))
    text = ("group.factors = %r\nbicharacter.expmat = %r\nspace.degrees = %r\n"
            "shape.pairs = %s\nbounds.max_n = 2\n"
            % (factors, B, [order[a] for a in sorted(positions)],
               data.draw(st.sampled_from(DRAWN_SHAPES))))
    cfg = parse_config_text(text, name="drawn")
    failed = [line for name in oracle.SUITES
              for line in oracle.suite(name, cfg, seed=0).render().splitlines()
              if line.startswith("FAIL")]
    assert not failed, "config text:\n%s%s" % (text, "\n".join(failed))
