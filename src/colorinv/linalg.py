"""Exact linear algebra helpers.

Everything here is fraction-exact; no floating point.  rank_int is the
rank of an integer matrix by the Bareiss fraction-free scheme (fast with
Python ints); invert_fraction_matrix inverts over Q by Gauss-Jordan.
"""

from __future__ import annotations

from fractions import Fraction

def rank_int(rows):
    """Rank of an integer matrix by Bareiss elimination."""
    M = [list(r) for r in rows]
    if not M or not M[0]:
        return 0
    nrows, ncols = len(M), len(M[0])
    rank = 0
    prev = 1
    row = 0
    for col in range(ncols):
        piv = None
        for r in range(row, nrows):
            if M[r][col]:
                piv = r
                break
        if piv is None:
            continue
        M[row], M[piv] = M[piv], M[row]
        p = M[row][col]
        for r in range(row + 1, nrows):
            t = M[r][col]
            for c in range(col, ncols):
                M[r][c] = (M[r][c] * p - t * M[row][c]) // prev
        prev = p
        row += 1
        rank += 1
        if row == nrows:
            break
    return rank

def invert_fraction_matrix(rows):
    """Exact inverse of a square matrix over Q, or None if singular."""
    n = len(rows)
    M = [[Fraction(x) for x in r] + [Fraction(int(i == j)) for j in range(n)]
         for i, r in enumerate(rows)]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if M[r][col]:
                piv = r
                break
        if piv is None:
            return None
        M[col], M[piv] = M[piv], M[col]
        p = M[col][col]
        M[col] = [x / p for x in M[col]]
        for r in range(n):
            if r != col and M[r][col]:
                t = M[r][col]
                M[r] = [a - t * b for a, b in zip(M[r], M[col])]
    return [row[n:] for row in M]
