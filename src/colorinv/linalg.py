"""Exact linear algebra, with no floating point: the rank of an integer
matrix given as sparse rows, and the inverse of a matrix over Q by
Gauss-Jordan.
"""

from __future__ import annotations

from fractions import Fraction
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
