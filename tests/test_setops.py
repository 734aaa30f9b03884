import math

from hypothesis import given, settings
from hypothesis import strategies as st

from kikuchi.setops import (
    degree,
    integer_root,
    mask_of,
    subset_rank,
    subset_unrank,
    verts_of,
)

sets = st.sets(st.integers(0, 30), max_size=8)


def test_degree_counts_with_multiplicity():
    h = [[0, 1, 2], [0, 3, 4], [0, 1, 2]]
    assert degree(h, [0]) == 3
    assert degree(h, [0, 1]) == 2
    assert degree([], [0]) == 0
    assert degree(h, [5]) == 0


def test_degree_monotone_under_supersets():
    h = [[0, 1, 2], [0, 3, 4], [1, 2, 5]]
    assert degree(h, [0]) >= degree(h, [0, 1])
    assert degree(h, [1]) >= degree(h, [1, 2])


def test_degree_singleton_sum_is_q_times_edges():
    h = [[0, 1, 2], [3, 4, 5], [1, 2, 6]]
    total = sum(degree(h, [v]) for v in range(7))
    assert total == 3 * len(h)


@given(st.integers(0, 3000))
def test_rank_unrank_roundtrip(r):
    t = 3
    if r >= math.comb(20, t):
        r = r % math.comb(20, t)
    sub = subset_unrank(r, t)
    assert subset_rank(sub, t) == r


@given(sets.filter(lambda s: len(s) == 4))
def test_unrank_rank_roundtrip(s):
    sub = tuple(sorted(s))
    assert subset_unrank(subset_rank(sub, 4), 4) == sub


def test_rank_is_dense_in_colex_order():
    import itertools

    n, t = 7, 3
    ranks = sorted(subset_rank(c, t) for c in itertools.combinations(range(n), t))
    assert ranks == list(range(math.comb(n, t)))


def test_mask_round_trip():
    assert verts_of(mask_of([5, 1, 3])) == (1, 3, 5)


@settings(max_examples=50)
@given(st.integers(0, 10**9), st.integers(2, 7))
def test_integer_root(x, r):
    v = integer_root(x, r)
    assert v**r <= x < (v + 1) ** r
