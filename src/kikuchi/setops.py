"""Vertex-set primitives: bitmask sets, degrees, and subset ranking.

Vertex sets over a ground set of size ``n`` are stored as Python int
bitmasks (bit ``v`` set means vertex ``v`` is present, 0-based).  Python
ints are arbitrary width, so no size cap is needed.  Sorted tuples are
the interchange format at API boundaries.
"""

from __future__ import annotations

from itertools import combinations
from math import comb


def mask_of(vertices) -> int:
    """Bitmask of an iterable of 0-based vertex indices (must be distinct)."""
    m = 0
    for v in vertices:
        bit = 1 << v
        if m & bit:
            raise ValueError(f"duplicate vertex {v}")
        m |= bit
    return m


def verts_of(mask: int) -> tuple[int, ...]:
    """Sorted tuple of the vertices in a bitmask."""
    out = []
    v = 0
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return tuple(out)


def degree(edges, q_set) -> int:
    """Number of hyperedges (with multiplicity) containing the given set."""
    qm = mask_of(q_set)
    return sum(1 for e in edges if mask_of(e) & qm == qm)


def subsets_of_mask(mask: int, size: int):
    """All size-``size`` subsets of a bitmask, as bitmasks."""
    vs = verts_of(mask)
    for sub in combinations(vs, size):
        yield mask_of(sub)


def subset_rank(vertices, size: int) -> int:
    """Rank of a sorted size-``size`` subset in the combinatorial number system.

    rank(v_1 < ... < v_t) = sum_j C(v_j, j); ranks run over [0, C(n, t)).
    """
    if len(vertices) != size:
        raise ValueError("subset has wrong size")
    return sum(comb(v, j + 1) for j, v in enumerate(vertices))


def subset_unrank(rank: int, size: int) -> tuple[int, ...]:
    """Inverse of :func:`subset_rank`."""
    out = []
    r = rank
    for j in range(size, 0, -1):
        # largest v with C(v, j) <= r
        v = j - 1
        while comb(v + 1, j) <= r:
            v += 1
        out.append(v)
        r -= comb(v, j)
    out.reverse()
    return tuple(out)


def integer_root(x: int, r: int) -> int:
    """floor(x ** (1/r)) for nonnegative integer x, exactly."""
    if x < 0:
        raise ValueError("x must be nonnegative")
    if x == 0:
        return 0
    if r == 1:
        return x
    guess = int(round(x ** (1.0 / r)))
    guess = max(guess, 1)
    while guess**r > x:
        guess -= 1
    while (guess + 1) ** r <= x:
        guess += 1
    return guess
