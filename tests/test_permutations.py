"""One-line permutations: composition, cycles, parsing, doubling maps."""

import pytest
from hypothesis import given, settings, strategies as st

from colorinv.permutations import (
    act_tuple,
    all_perms,
    compose,
    cycle_type_reps,
    cycles,
    format_cycles,
    from_cycles,
    hat_perm,
    identity,
    inverse,
    inversions,
    nu_perm,
    parse_perm,
    tau_perm,
)


def perms(kmax=5):
    return st.integers(min_value=1, max_value=kmax).flatmap(
        lambda k: st.permutations(tuple(range(1, k + 1)))).map(tuple)


def perm_pairs(kmax=5):
    return st.integers(min_value=1, max_value=kmax).flatmap(
        lambda k: st.tuples(st.permutations(tuple(range(1, k + 1))),
                            st.permutations(tuple(range(1, k + 1))))
    ).map(lambda ab: (tuple(ab[0]), tuple(ab[1])))


@given(s=perms())
def test_identity_and_inverse(s):
    k = len(s)
    assert compose(s, identity(k)) == s
    assert compose(identity(k), s) == s
    assert compose(s, inverse(s)) == identity(k)
    assert compose(inverse(s), s) == identity(k)
    assert inverse(inverse(s)) == s


@given(ab=perm_pairs())
def test_compose_matches_pointwise(ab):
    a, b = ab
    c = compose(a, b)
    for i in range(1, len(a) + 1):
        assert c[i - 1] == a[b[i - 1] - 1]


@given(ab=perm_pairs(), data=st.data())
@settings(max_examples=60)
def test_act_tuple_is_an_action(ab, data):
    a, b = ab
    k = len(a)
    items = tuple(data.draw(st.lists(st.integers(0, 9), min_size=k, max_size=k)))
    assert act_tuple(identity(k), items) == items
    assert act_tuple(compose(a, b), items) == act_tuple(a, act_tuple(b, items))


@given(s=perms())
def test_inversions_brute_force(s):
    k = len(s)
    expected = [(i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)
                if s[i - 1] > s[j - 1]]
    assert list(inversions(s)) == expected


@given(s=perms(6))
def test_cycle_round_trip(s):
    assert from_cycles(cycles(s), len(s)) == s
    assert parse_perm(format_cycles(s), len(s)) == s


def test_all_perms_count_and_uniqueness():
    for k in range(1, 6):
        ps = list(all_perms(k))
        assert len(ps) == len(set(ps))
        import math
        assert len(ps) == math.factorial(k)


def test_parse_perm_formats():
    assert parse_perm("[2,1,3]") == (2, 1, 3)
    assert parse_perm("2,1,3") == (2, 1, 3)
    assert parse_perm("(1 2)(3 4)") == (2, 1, 4, 3)
    assert parse_perm("(1 2)", 4) == (2, 1, 3, 4)
    assert parse_perm("id", 3) == (1, 2, 3)
    with pytest.raises(ValueError):
        parse_perm("[1,1]")
    with pytest.raises(ValueError):
        parse_perm("[2,1,3]", 4)
    with pytest.raises(ValueError):
        parse_perm("")


def test_doubling_maps_frozen():
    assert tau_perm(1) == (1, 2)
    assert tau_perm(2) == (1, 3, 2, 4)
    assert tau_perm(3) == (1, 3, 5, 2, 4, 6)
    assert nu_perm(2) == (2, 1, 4, 3)
    assert nu_perm(3) == (2, 1, 4, 3, 6, 5)
    assert hat_perm((2, 1)) == (2, 1, 3, 4)
    assert hat_perm((2, 3, 1)) == (2, 3, 1, 4, 5, 6)


def test_nu_is_an_involution():
    for n in range(1, 5):
        assert compose(nu_perm(n), nu_perm(n)) == identity(2 * n)


@given(ab=perm_pairs(4))
def test_hat_is_a_homomorphism(ab):
    a, b = ab
    assert hat_perm(compose(a, b)) == compose(hat_perm(a), hat_perm(b))
    k = len(a)
    assert hat_perm(a)[k:] == tuple(range(k + 1, 2 * k + 1))


PARTITION_COUNTS = (1, 1, 2, 3, 5, 7, 11, 15)  # p(0) .. p(7)


@pytest.mark.parametrize("n", range(8))
def test_cycle_type_reps(n):
    reps = cycle_type_reps(n)
    parts = [part for part, _ in reps]
    assert len(reps) == PARTITION_COUNTS[n]
    assert parts == sorted(parts, reverse=True)
    assert len(set(parts)) == len(parts)
    assert set(parts) == {tuple(sorted(map(len, cycles(s)), reverse=True))
                          for s in all_perms(n)}
    for part, rep in reps:
        assert sorted(rep) == list(range(1, n + 1))
        assert tuple(map(len, cycles(rep))) == part
        # cycles laid out consecutively: each is a run start, start+1, ...
        assert all(c == tuple(range(c[0], c[0] + len(c))) for c in cycles(rep))
