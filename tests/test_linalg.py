"""Exact rank over sparse integer rows, and the exact inverse of an integer
matrix as integer numerators over one denominator."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from colorinv.groups import Bicharacter
from colorinv.linalg import inverse_int, rank_int
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


def gauss_jordan_inverse(mat):
    """Referee: the inverse over Fraction by Gauss-Jordan on [mat | I], or
    None if mat is singular."""
    n = len(mat)
    M = [[Fraction(x) for x in r] + [Fraction(int(i == j)) for j in range(n)]
         for i, r in enumerate(mat)]
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col]), None)
        if piv is None:
            return None
        M[col], M[piv] = M[piv], M[col]
        M[col] = [x / M[col][col] for x in M[col]]
        for r in range(n):
            if r != col and M[r][col]:
                t = M[r][col]
                M[r] = [a - t * b for a, b in zip(M[r], M[col])]
    return [row[n:] for row in M]


@st.composite
def square_matrices(draw):
    """Square int matrices of size 0-4, a third of them with a row that is
    a multiple of another, so singular ones are common."""
    n = draw(st.integers(0, 4))
    mat = draw(st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                        min_size=n, max_size=n))
    if n >= 2 and draw(st.integers(0, 2)) == 0:
        i, j = draw(st.permutations(range(n)))[:2]
        mat[i] = [draw(st.integers(-2, 2)) * x for x in mat[j]]
    return mat


@settings(max_examples=150, deadline=None)
@given(square_matrices())
def test_inverse_round_trip(mat):
    """inverse_int is None exactly when the referee finds mat singular;
    otherwise its numerators over its positive denominator are the
    referee's inverse, and multiply with mat to the identity on both
    sides."""
    n = len(mat)
    before = [list(row) for row in mat]
    inverse = inverse_int(mat)
    assert mat == before
    want = gauss_jordan_inverse(mat)
    if gauss_rank([dict(enumerate(row)) for row in mat], range(n)) < n:
        assert want is None and inverse is None
        return
    num, den = inverse
    assert isinstance(den, int) and den > 0
    inv = [[Fraction(x, den) for x in row] for row in num]
    assert inv == want
    eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    assert [[sum(mat[i][k] * inv[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)] == eye
    assert [[sum(inv[i][k] * mat[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)] == eye


def test_inverse_of_a_singular_matrix_is_none():
    assert inverse_int([[1, 2], [2, 4]]) is None
    assert inverse_int([[0, 0], [0, 0]]) is None
    assert inverse_int([[2, 1], [1, 1]]) == ([[1, -1], [-1, 2]], 1)
    assert inverse_int([]) == ([], 1)
    # after one row swap the last pivot is 1 (or 6) while the determinant
    # is -1 (or -6): the pivot is no determinant, and the inverse over it
    # still has the right signs
    assert inverse_int([[0, 1], [1, 0]]) == ([[0, 1], [1, 0]], 1)
    num, den = inverse_int([[0, 2], [3, 0]])
    assert den > 0
    assert [[Fraction(x, den) for x in row] for row in num] == [
        [0, Fraction(1, 3)], [Fraction(1, 2), 0]]


def test_span_rank_of_a_six_position_block():
    """(2,1)+(1,2) at multiplicities (2,2) on a trivially graded plane:
    N = 6 positions, 720 picture rows, rank 42, which is also the classical
    invariant dimension."""
    space = GradedSpace(Bicharacter([1], [[0]]), [0, 0])
    rpt = span_check(MixedShape(space, [(2, 1), (1, 2)]), 4)
    assert [c.line() for c in rpt.cases] == [
        "PASS multidegree 2,2: picture span rank 42, classical invariant dimension 42"]
