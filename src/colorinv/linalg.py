"""Exact linear algebra over the integers, with no floating point and no
Fraction: the rank of an integer matrix given as sparse rows, and the
inverse of a square integer matrix as integer numerators over one
denominator, by fraction-free Gauss-Jordan.
"""

from __future__ import annotations

import math

def rank_int(rows):
    """Rank over Q of the integer matrix whose rows are dicts {column: int};
    columns may be any mutually comparable keys.  Fraction-free elimination
    on the nonzero entries: a row is reduced at its smallest column against
    the pivot row kept there, r <- a*r - b*p with a/b the ratio of the two
    leading entries in lowest terms, until it reaches a column with no
    pivot row, where it is kept, divided by its content."""
    pivots = {}
    for row in rows:
        r = {c: x for c, x in row.items() if x}
        while r:
            lead = min(r)
            p = pivots.get(lead)
            if p is None:
                g = math.gcd(*r.values())
                pivots[lead] = {c: x // g for c, x in r.items()}
                break
            g = math.gcd(r[lead], p[lead])
            a, b = p[lead] // g, r[lead] // g
            r = {c: a * x for c, x in r.items()}
            for c, y in p.items():
                x = r.get(c, 0) - b * y
                if x:
                    r[c] = x
                else:
                    del r[c]
    return len(pivots)

def inverse_int(rows):
    """Exact inverse of a square integer matrix (lists of ints) as
    (numerators, den) with den > 0, or None if it is singular.
    Fraction-free Gauss-Jordan (Bareiss) on [rows | I]: each step turns
    every other row r into (p*r - r[k]*pivot row) / previous pivot, an
    exact division, and ends with the last pivot p times I on the left, so
    the right block is p times the inverse.  p is the determinant only up
    to the sign of the row swaps, so the inverse is returned over |p|."""
    n = len(rows)
    M = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    prev = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if M[r][k]), None)
        if piv is None:
            return None
        M[k], M[piv] = M[piv], M[k]
        pk, top = M[k][k], M[k]
        for i, row in enumerate(M):
            if i != k:
                t = row[k]
                M[i] = [(pk * x - t * y) // prev for x, y in zip(row, top)]
        prev = pk
    sign = -1 if prev < 0 else 1
    return [[sign * x for x in row[n:]] for row in M], abs(prev)
