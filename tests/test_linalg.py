"""Exact rank over sparse integer rows, and exact inversion over Q."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from colorinv.groups import Bicharacter
from colorinv.linalg import invert_fraction_matrix, rank_int
from colorinv.oracle import span_check
from colorinv.sympoly import MixedShape
from colorinv.tensors import GradedSpace


def gauss_rank(rows, columns):
    """Referee: rank by Gauss elimination over Fraction on the dense matrix
    whose entries are read from the sparse rows in the given column order."""
    mat = [[Fraction(row.get(c, 0)) for c in columns] for row in rows]
    rank = 0
    for j in range(len(columns)):
        piv = next((i for i in range(rank, len(mat)) if mat[i][j]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for i in range(rank + 1, len(mat)):
            t = mat[i][j] / mat[rank][j]
            mat[i] = [x - t * y for x, y in zip(mat[i], mat[rank])]
        rank += 1
    return rank


@st.composite
def planted_matrices(draw):
    """Sparse integer rows over int or tuple column keys: random base rows,
    then integer combinations of them, zero rows and repeats, shuffled."""
    k = draw(st.integers(1, 6))
    if draw(st.booleans()):
        columns = list(range(k))
    else:
        columns = [(j % 2, -j, "c%d" % j) for j in range(k)]
    entries = st.integers(-5, 5)

    def sparse(values):
        return {c: x for c, x in zip(columns, values) if x}
    base = [sparse(draw(st.lists(entries, min_size=k, max_size=k)))
            for _ in range(draw(st.integers(0, 5)))]
    rows = list(base)
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["combination", "zero", "repeat"]))
        if kind == "zero":
            rows.append(draw(st.sampled_from([{}, {columns[0]: 0}])))
        elif base and kind == "repeat":
            rows.append(dict(draw(st.sampled_from(base))))
        elif base:
            coeffs = draw(st.lists(entries, min_size=len(base), max_size=len(base)))
            combo = {c: sum(a * row.get(c, 0) for a, row in zip(coeffs, base))
                     for c in columns}
            rows.append({c: x for c, x in combo.items() if x})
    return columns, draw(st.permutations(rows))


@settings(max_examples=200, deadline=None)
@given(planted_matrices())
def test_rank_matches_fraction_gauss(matrix):
    columns, rows = matrix
    before = [dict(row) for row in rows]
    assert rank_int(rows) == gauss_rank(rows, sorted(columns))
    assert rows == before


def test_rank_of_no_rows_and_of_zero_rows():
    assert rank_int([]) == 0
    assert rank_int([{}, {0: 0}, {(1, 2): 0}]) == 0
    assert rank_int(iter([{3: 0, 5: 7}, {}])) == 1


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n)))
def test_inverse_round_trip(mat):
    n = len(mat)
    inv = invert_fraction_matrix(mat)
    if gauss_rank([dict(enumerate(row)) for row in mat], range(n)) < n:
        assert inv is None
        return
    eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    assert [[sum(mat[i][k] * inv[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)] == eye
    assert [[sum(inv[i][k] * mat[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)] == eye


def test_inverse_of_a_singular_matrix_is_none():
    assert invert_fraction_matrix([[1, 2], [2, 4]]) is None
    assert invert_fraction_matrix([[0, 0], [0, 0]]) is None
    assert invert_fraction_matrix([[2, 1], [1, 1]]) == [[1, -1], [-1, 2]]


def test_span_rank_of_a_six_position_block():
    """(2,1)+(1,2) at multiplicities (2,2) on a trivially graded plane:
    N = 6 positions, 720 picture rows, rank 42, which is also the classical
    invariant dimension."""
    space = GradedSpace(Bicharacter([1], [[0]]), [0, 0])
    rpt = span_check(MixedShape(space, [(2, 1), (1, 2)]), 4)
    assert [c.line() for c in rpt.cases] == [
        "PASS multidegree 2,2: picture span rank 42, classical invariant dimension 42"]
