"""Permutations in one-line notation.

A permutation of {1,...,k} is a tuple p of length k with p[i-1] = sigma(i).
Composition is function composition: compose(a, b) applies b first.
"""

from __future__ import annotations

import itertools
import re

def identity(k):
    return tuple(range(1, k + 1))

def compose(a, b):
    """(a o b)(i) = a(b(i))."""
    assert len(a) == len(b)
    return tuple(a[b[i] - 1] for i in range(len(a)))

_INVERSES = {}

def inverse(a):
    """The inverse permutation.  A sigma is checked by require_perm the
    first time it is met, so anything but a permutation of 1..k raises
    ValueError, and its inverse is kept in a module dict keyed by the
    sigma tuple."""
    a = tuple(a)
    inv = _INVERSES.get(a)
    if inv is None:
        require_perm(a, len(a))
        out = [0] * len(a)
        for i, j in enumerate(a, start=1):
            out[j - 1] = i
        inv = _INVERSES[a] = tuple(out)
    return inv

def require_perm(sigma, n):
    """Refuse sigma unless it is a permutation of 1..n."""
    if sorted(sigma) != list(range(1, n + 1)):
        raise ValueError("sigma must lie in S_%d" % n)

def act_tuple(sigma, items):
    """Place the content of slot i into slot sigma(i); (sigma.x)_j = x_{sigma^-1(j)}."""
    assert len(sigma) == len(items)
    out = [None] * len(items)
    for i, j in enumerate(sigma, start=1):
        out[j - 1] = items[i - 1]
    return tuple(out)

_INVERSIONS = {}

def inversions(sigma):
    """Pairs (i, j) of positions with i < j and sigma(i) > sigma(j), in
    lexicographic order.  Each sigma's pairs are worked out once and kept
    in a module dict keyed by the sigma tuple; every call returns that
    shared tuple."""
    sigma = tuple(sigma)
    pairs = _INVERSIONS.get(sigma)
    if pairs is None:
        k = len(sigma)
        pairs = _INVERSIONS[sigma] = tuple(
            (i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)
            if sigma[i - 1] > sigma[j - 1])
    return pairs

def all_perms(k):
    return [tuple(p) for p in itertools.permutations(range(1, k + 1))]

def cycles(sigma):
    """Cycle decomposition, fixed points included; each cycle starts at its
    minimum, cycles sorted by minimum."""
    seen = set()
    out = []
    for start in range(1, len(sigma) + 1):
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        j = sigma[start - 1]
        while j != start:
            cyc.append(j)
            seen.add(j)
            j = sigma[j - 1]
        out.append(tuple(cyc))
    return out

def from_cycles(cycs, k):
    p = list(range(1, k + 1))
    for cyc in cycs:
        for x in cyc:
            if not 1 <= x <= k:
                raise ValueError("cycle entry %d outside 1..%d" % (x, k))
        for a, b in zip(cyc, cyc[1:] + type(cyc)([cyc[0]])):
            p[a - 1] = b
    seenall = [x for cyc in cycs for x in cyc]
    if len(seenall) != len(set(seenall)):
        raise ValueError("cycles are not disjoint")
    return tuple(p)

def cycle_type_reps(n):
    """(partition, representative) for each cycle type of S_n, partitions in
    decreasing lexicographic order; each representative lays its cycles out
    consecutively on 1..n."""
    def partitions(rest, most):
        if not rest:
            yield ()
        for p in range(min(rest, most), 0, -1):
            for tail in partitions(rest - p, p):
                yield (p,) + tail
    out = []
    for part in partitions(n, n):
        starts = itertools.accumulate(part[:-1], initial=1)
        cycs = [tuple(range(s, s + p)) for s, p in zip(starts, part)]
        out.append((part, from_cycles(cycs, n)))
    return out

def parse_perm(text, k=None):
    """Accept one-line notation "[2,1,3]" (or "2,1,3") and cycle notation
    "(1 2)(3 4)"; "id" or "()" is the identity and needs k."""
    text = text.strip()
    if text in ("id", "()", ""):
        if k is None:
            raise ValueError("identity permutation needs an explicit size")
        return identity(k)
    if text.startswith("("):
        cycs = []
        for m in re.finditer(r"\(([^()]*)\)", text):
            body = m.group(1).replace(",", " ").split()
            if body:
                cycs.append(tuple(int(x) for x in body))
        rest = re.sub(r"\([^()]*\)", "", text).strip()
        if rest:
            raise ValueError("cannot parse permutation %r" % text)
        size = k if k is not None else max((max(c) for c in cycs), default=1)
        return from_cycles(cycs, size)
    body = text.strip("[]").replace(",", " ").split()
    p = tuple(int(x) for x in body)
    if sorted(p) != list(range(1, len(p) + 1)):
        raise ValueError("%r is not a permutation of 1..%d" % (text, len(p)))
    if k is not None and len(p) != k:
        raise ValueError("permutation has size %d, expected %d" % (len(p), k))
    return p

def format_cycles(sigma):
    return "".join("(" + " ".join(str(x) for x in cyc) + ")" for cyc in cycles(sigma))

def tau_perm(k):
    """The interleaving shuffle in S_2k: i -> 2i-1 and k+i -> 2i, so a word
    (a_1..a_k, b_1..b_k) is rearranged into (a_1, b_1, ..., a_k, b_k)."""
    p = [0] * (2 * k)
    for i in range(1, k + 1):
        p[i - 1] = 2 * i - 1
        p[k + i - 1] = 2 * i
    return tuple(p)

def nu_perm(n):
    """(1 2)(3 4)...(2n-1 2n) in S_2n."""
    p = []
    for i in range(1, n + 1):
        p.extend([2 * i, 2 * i - 1])
    return tuple(p)

def hat_perm(sigma):
    """sigma in S_N extended to S_2N fixing N+1..2N."""
    n = len(sigma)
    return tuple(sigma) + tuple(range(n + 1, 2 * n + 1))
