"""The exact brute-force oracle against independent references.

``small_blocks`` shrinks the oracle's low character table to 3 bits and its
GEMM blocks to 64 values, so that instances of a dozen variables already
run through several high-bit blocks and several batches of sign rows.
The values-only calls scan the GF(2) quotient of the assignment space;
``QUOTIENT_CASES`` pins which of its two paths (with or without the
parity flip) each instance takes.  ``CASES`` also holds random instances
and bipartite pieces, so the float32 GEMM is checked on both of those paths.
"""

import time
import tracemalloc

import numpy as np
import pytest

from conftest import slow_brute_force
import kikuchi.instances as instances
from kikuchi.instances import (
    EXHAUSTIVE_B_LIMIT,
    BipartiteXorInstance,
    DimensionMismatch,
    OracleLimitExceeded,
    XorInstance,
    brute_force_val,
    expected_val,
    generate_planted_linear_instance,
    generate_random_bipartite_instance,
    generate_random_matching_instance,
    val_for_all_signs,
)
from kikuchi.instances import _chi, _constraint_masks, _gf2_rank, _quotient


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(instances, "LOW_BITS", 3)
    monkeypatch.setattr(instances, "BLOCK_ENTRIES", 64)


def _random_cases():
    """Random XOR instances of q = 2, 3 and 4 and random bipartite pieces of
    q = 5, s = 2 and 3, at three generation seeds."""
    cases = {}
    for seed in range(3):
        for q, n, k, delta in ((2, 8, 4, 0.5), (3, 10, 3, 0.3), (4, 10, 3, 0.2)):
            cases[f"random_q{q}_seed{seed}"] = generate_random_matching_instance(
                n, q, k, delta, seed=seed)
        for s, p_size in ((2, 4), (3, 3)):
            cases[f"random_piece_s{s}_seed{seed}"] = generate_random_bipartite_instance(
                7, 5, s, 3, edges_per=2, p_size=p_size, seed=seed)
    return cases


def _cases():
    planted, _ = generate_planted_linear_instance(12, 3, 4, 0.16, seed=2)
    return _random_cases() | {
        # 18 edges on 7 vertices: odd cycles, so val(Phi_-b) != val(Phi_b)
        "q2": generate_random_matching_instance(7, 2, 6, 0.43, seed=1),
        "q3": generate_random_matching_instance(10, 3, 4, 0.2, seed=2),
        "q4": generate_random_matching_instance(10, 4, 3, 0.2, seed=3),
        "bipartite_s2": generate_random_bipartite_instance(
            6, 3, 2, 3, edges_per=2, p_size=4, seed=1),
        "k1": generate_random_matching_instance(9, 3, 1, 0.3, seed=4),
        "empty_matching": XorInstance(
            n=8, k=3, q=3, delta=0.25,
            hypergraphs=[[[0, 1, 2], [3, 4, 5]], [], [[1, 4, 7]]]),
        "planted": planted,
    }


CASES = _cases()

# variables 9..15 are in no constraint
UNUSED_VARS = XorInstance(
    n=16, k=3, q=3, delta=0.125,
    hypergraphs=[[[0, 1, 2], [3, 4, 5]], [[0, 3, 6], [1, 4, 7]],
                 [[2, 5, 8], [1, 6, 7]]])


def _quotient_cases():
    """name -> (instance, whether the quotient has a parity flip)."""
    planted, _ = generate_planted_linear_instance(12, 3, 4, 0.25, seed=1)
    return {
        # 12 masks of rank 9 on 12 variables
        "planted_dependent": (planted, True),
        "unused_vars": (UNUSED_VARS, True),
        "q2_odd_cycles": (CASES["q2"], False),
        # the three 4-sets XOR to zero: an odd dependency, so no flip
        "q4_odd_dependency": (XorInstance(
            n=9, k=3, q=4, delta=0.25,
            hypergraphs=[[[0, 1, 2, 3], [4, 5, 6, 7]], [[0, 1, 4, 5]],
                         [[2, 3, 4, 5]]]), False),
        # an 8-cycle plus a chord between its two sides: q=2 and bipartite,
        # so flipping the even vertices flips every parity; that flip leaves
        # the top variables 7..9 alone, and 8 and 9 are in no constraint
        "q2_bipartite": (XorInstance(
            n=10, k=3, q=2, delta=0.4,
            hypergraphs=[[[0, 1], [2, 3], [4, 5], [6, 7]],
                         [[1, 2], [3, 4], [5, 6], [0, 7]], [[0, 3]]]), True),
        # every constraint holds exactly one label variable y_p, so flipping
        # all labels flips every parity
        "bipartite_s2": (CASES["bipartite_s2"], True),
        "no_constraints": (XorInstance(n=5, k=2, q=3, delta=0.0,
                                       hypergraphs=[[], []]), False),
        "k0": (XorInstance(n=4, k=0, q=3, delta=0.0, hypergraphs=[]), False),
    }


QUOTIENT_CASES = _quotient_cases()


def _sign_rows(k):
    """All b in {-1,+1}^k; bit i of the row index set means b_i = -1."""
    idx = np.arange(1 << k)[:, None]
    return 1 - 2 * ((idx >> np.arange(k)[None, :]) & 1)


def _reference_values(inst, signs):
    """Phi_b(a) for every joint assignment a (rows) and sign row b (columns),
    as products of the assignment matrix's columns."""
    n_vars = inst.n
    if isinstance(inst, BipartiteXorInstance):
        n_vars += inst.p_size
    a = np.arange(1 << n_vars)[:, None]
    x = (1 - 2 * ((a >> np.arange(n_vars)[None, :]) & 1)).astype(np.int32)
    owner, monomials = [], []
    for i, h in enumerate(inst.hypergraphs):
        for e in h:
            cols = e if isinstance(inst, XorInstance) else (*e[0], inst.n + e[1])
            owner.append(i)
            monomials.append(np.prod(x[:, list(cols)], axis=1))
    if not owner:
        return np.zeros((len(x), len(signs)), dtype=np.int64)
    coeff = np.asarray(signs, dtype=np.int32)[:, owner]
    return np.stack(monomials, axis=1) @ coeff.T


def _index_of(x, y):
    bits = list(x) + list(y or [])
    return sum(1 << v for v, s in enumerate(bits) if s == -1)


@pytest.mark.parametrize("name", sorted(CASES))
def test_all_signs_match_slow_scan(name, small_blocks):
    inst = CASES[name]
    vals = val_for_all_signs(inst)
    assert vals.dtype == np.int64 and vals.shape == (1 << inst.k,)
    for row, b in enumerate(_sign_rows(inst.k).tolist()):
        assert vals[row] == slow_brute_force(inst, b)


def test_minus_b_is_not_a_reflection():
    # Phi(-x) = -Phi(x) fails for even q, so val(Phi_-b) is read from the
    # min of Phi_b, not copied from val(Phi_b)
    vals = val_for_all_signs(CASES["q2"])
    assert (vals != vals[::-1]).any()


@pytest.mark.parametrize("name", sorted(CASES))
def test_one_sign_value_and_lowest_argmax(name, small_blocks):
    inst = CASES[name]
    signs = _sign_rows(inst.k)
    ref = _reference_values(inst, signs)
    for row, b in enumerate(signs.tolist()):
        val, x, y = brute_force_val(inst, b)
        assert val == slow_brute_force(inst, b) == ref[:, row].max()
        assert _index_of(x, y) == np.flatnonzero(ref[:, row] == val)[0]


def test_argmax_is_lowest_maximiser_at_default_blocks():
    # variables 9..15 are in no constraint, so every maximiser has 2^7
    # copies, spread over all 2^(16 - LOW_BITS) high-bit values; the lowest
    # one leaves those variables at +1
    inst = UNUSED_VARS
    signs = _sign_rows(inst.k)
    ref = _reference_values(inst, signs)
    for row, b in enumerate(signs.tolist()):
        val, x, y = brute_force_val(inst, b)
        hits = np.flatnonzero(ref[:, row] == val)
        assert val == ref[:, row].max() and len(hits) >= 128
        assert _index_of(x, y) == hits[0] < 1 << 9


def test_n16_matches_product_of_columns():
    inst = generate_random_matching_instance(16, 3, 6, 0.25, seed=3)
    signs = _sign_rows(inst.k)
    ref = _reference_values(inst, signs)
    assert np.array_equal(val_for_all_signs(inst), ref.max(axis=0))
    for row in (0, 5, 63):
        val, x, y = brute_force_val(inst, signs[row].tolist())
        assert val == ref[:, row].max()
        assert _index_of(x, y) == np.flatnonzero(ref[:, row] == val)[0]


@pytest.mark.parametrize("name", ["q2", "q3", "bipartite_s2", "planted"])
def test_sampled_expected_val_matches_per_trial_loop(name, monkeypatch):
    inst = CASES[name]
    rng = np.random.default_rng(11)
    draws = [brute_force_val(inst, 1 - 2 * rng.integers(0, 2, size=inst.k))[0]
             for _ in range(40)]
    arr = np.asarray(draws, dtype=float)
    want = (float(arr.mean()), float(arr.std(ddof=1) / np.sqrt(len(arr))))
    monkeypatch.setattr(instances, "EXHAUSTIVE_B_LIMIT", 0)
    assert expected_val(inst, trials=40, seed=11) == want
    monkeypatch.setattr(instances, "LOW_BITS", 3)
    monkeypatch.setattr(instances, "BLOCK_ENTRIES", 64)
    assert expected_val(inst, trials=40, seed=11) == want


def test_all_signs_memory_and_time_guard():
    # 2^15 sign rows over 2^12 assignments: a single unbatched block would
    # hold 2^27 float32 values (512 MiB)
    inst = generate_random_matching_instance(12, 3, EXHAUSTIVE_B_LIMIT, 0.25, seed=1)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        vals = val_for_all_signs(inst)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert elapsed < 30
    rows = [0, 1, 12345, (1 << inst.k) - 1]
    ref = _reference_values(inst, _sign_rows(inst.k)[rows])
    assert np.array_equal(vals[rows], ref.max(axis=0))


def _traced_peak(call):
    """Peak traced allocation, in bytes, while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_benchmark_all_signs_scan_fits_in_cache_sized_tables():
    # the random n=20, k=6 instance of the verify-exhaustive benchmark: its
    # 30 characters over 2^12 low bits and a 2^18-value block
    inst = generate_random_matching_instance(20, 3, 6, 0.25, seed=1)
    assert _traced_peak(lambda: val_for_all_signs(inst)) < 4 * 2**20


def test_sampled_scan_memory_scales_with_distinct_characters():
    # 4,096 constraints on 16 variables hold at most 560 distinct triples;
    # one low table per constraint would take 256 MiB
    inst = generate_random_matching_instance(16, 3, 1024, 0.25, seed=1)
    rows = 1 - 2 * np.random.default_rng(0).integers(0, 2, size=(64, inst.k))
    assert _traced_peak(lambda: val_for_all_signs(inst, signs=rows)) < 32 * 2**20


# one triple in matchings 0 and 1: its merged coefficient b_0 + b_1 is 0
# whenever b_0 = -b_1
SHARED_TRIPLE = XorInstance(
    n=9, k=3, q=3, delta=0.25,
    hypergraphs=[[[0, 1, 2], [3, 4, 5]], [[0, 1, 2], [6, 7, 8]], [[1, 4, 7]]])


@pytest.mark.parametrize("blocks", ["default", "small"])
def test_merged_characters_match_reference(blocks, request):
    if blocks == "small":
        request.getfixturevalue("small_blocks")
    # 768 constraints, at most C(12, 3) = 220 distinct masks
    inst = generate_random_matching_instance(12, 3, 256, 0.25, seed=1)
    assert len(set(_constraint_masks(inst)[1])) <= 220 < inst.total_edges
    rows = 1 - 2 * np.random.default_rng(3).integers(0, 2, size=(16, inst.k))
    every = _sign_rows(SHARED_TRIPLE.k)
    assert np.array_equal(val_for_all_signs(SHARED_TRIPLE),
                          _reference_values(SHARED_TRIPLE, every).max(axis=0))
    for inst, signs in ((SHARED_TRIPLE, every), (inst, rows)):
        ref = _reference_values(inst, signs)
        assert np.array_equal(val_for_all_signs(inst, signs=signs), ref.max(axis=0))
        for row, b in enumerate(signs[:8].tolist()):
            val, x, y = brute_force_val(inst, b)
            assert val == ref[:, row].max()
            assert _index_of(x, y) == np.flatnonzero(ref[:, row] == val)[0]


def _parity(x):
    return x.bit_count() & 1


@pytest.mark.parametrize("name", sorted(QUOTIENT_CASES))
def test_quotient_rewrites_every_parity(name):
    # basis mask j is the first mask with lam = e_j; for every assignment a,
    # <lam_C, y> = <mask_C, a> with y_j = <beta_j, a>
    inst, flip = QUOTIENT_CASES[name]
    _, masks = _constraint_masks(inst)
    lam, r, has_flip = _quotient(masks)
    assert (r, has_flip) == (_gf2_rank(list(masks)), flip)
    basis = [masks[lam.index(1 << j)] for j in range(r)]
    n_vars = inst.n + getattr(inst, "p_size", 0)
    for a in range(1 << n_vars):
        y = sum(_parity(beta & a) << j for j, beta in enumerate(basis))
        assert [_parity(c & y) for c in lam] == [_parity(m & a) for m in masks]
    if flip:
        assert all(_parity(c) for c in lam)


@pytest.mark.parametrize("blocks", ["default", "small"])
@pytest.mark.parametrize("name", sorted(QUOTIENT_CASES))
def test_quotient_values_match_reference(name, blocks, request, monkeypatch):
    if blocks == "small":
        request.getfixturevalue("small_blocks")
    inst, _ = QUOTIENT_CASES[name]
    ref = _reference_values(inst, _sign_rows(inst.k)).max(axis=0)
    assert np.array_equal(val_for_all_signs(inst), ref)
    assert expected_val(inst) == (float(ref.mean()), 0.0)
    rng = np.random.default_rng(5)
    rows = np.array([1 - 2 * rng.integers(0, 2, size=inst.k) for _ in range(12)],
                    dtype=np.int8)
    sampled = _reference_values(inst, rows).max(axis=0)
    assert np.array_equal(val_for_all_signs(inst, signs=rows), sampled)
    arr = sampled.astype(float)
    monkeypatch.setattr(instances, "EXHAUSTIVE_B_LIMIT", -1)
    assert expected_val(inst, trials=12, seed=5) == (
        float(arr.mean()), float(arr.std(ddof=1) / np.sqrt(12)))


def test_scan_runs_over_quotient_of_benchmark_instances(monkeypatch):
    # the random and planted n=20, k=6 instances of the verify-exhaustive
    # benchmark: ranks 20 and 16, both with a flip, so 2^19 and 2^15 points
    widths = []
    scan = instances._scan

    def recording(masks, coeff, nv):
        widths.append(nv)
        return scan(masks, coeff, nv)

    monkeypatch.setattr(instances, "_scan", recording)
    planted, _ = generate_planted_linear_instance(20, 3, 6, 0.16, seed=1)
    for inst in (generate_random_matching_instance(20, 3, 6, 0.25, seed=1), planted):
        val_for_all_signs(inst)
    assert widths == [19, 15]


def test_signs_must_be_plus_minus_one_rows():
    inst = CASES["q3"]
    with pytest.raises(ValueError):
        val_for_all_signs(inst, signs=[[1, 1, 1]])
    with pytest.raises(ValueError):
        val_for_all_signs(inst, signs=[[1, 0, 1, -1]])
    assert val_for_all_signs(inst, signs=np.zeros((0, inst.k))).shape == (0,)


@pytest.mark.parametrize("bad", [1.9, -0.5])
def test_sign_entries_must_equal_plus_minus_one(bad):
    # a cast to int would read 1.9 as +1 and -0.5 as 0 before any check
    inst = generate_random_matching_instance(12, 3, 4, 0.25, seed=1)
    row = [bad, -1, 1, 1]
    with pytest.raises(DimensionMismatch):
        val_for_all_signs(inst, signs=[row])
    with pytest.raises(DimensionMismatch):
        brute_force_val(inst, row)
    # exact +-1 floats are still accepted
    exact = [1.0, -1.0, 1.0, 1.0]
    assert val_for_all_signs(inst, signs=[exact])[0] == brute_force_val(inst, exact)[0]


def test_chi_is_a_float32_sign_table():
    a = np.arange(1 << 5, dtype=np.uint16)
    b = np.array([0, 1, 6, 31], dtype=np.uint16)
    table = _chi(a, b)
    assert table.dtype == np.float32 and table.shape == (32, 4)
    want = [[1 - 2 * _parity(int(x) & int(y)) for y in b] for x in a]
    assert np.array_equal(table, np.array(want, dtype=np.float32))


def test_scan_refuses_sums_past_the_exact_float32_limit(monkeypatch):
    # the float32 GEMM is exact only while every sum is an integer of at most
    # EXACT_SUM_LIMIT in magnitude; a larger constraint count is refused
    # before any character table is built
    inst = CASES["q3"]
    want = val_for_all_signs(inst)
    monkeypatch.setattr(instances, "EXACT_SUM_LIMIT", inst.total_edges - 1)

    def no_table(a, b):
        raise AssertionError("character table built past the exact-sum limit")

    monkeypatch.setattr(instances, "_chi", no_table)
    for call in (lambda: brute_force_val(inst, [1] * inst.k),
                 lambda: val_for_all_signs(inst),
                 lambda: val_for_all_signs(inst, signs=[[1] * inst.k]),
                 lambda: expected_val(inst)):
        with pytest.raises(OracleLimitExceeded, match="exact float32 sum limit"):
            call()
    monkeypatch.setattr(instances, "_chi", _chi)
    monkeypatch.setattr(instances, "EXACT_SUM_LIMIT", inst.total_edges)
    assert np.array_equal(val_for_all_signs(inst), want)


def test_random_cases_take_both_quotient_paths():
    # so the float32 scan is checked on random instances with and without a
    # parity flip in their quotient, not only on hand-made ones
    flips = {_quotient(_constraint_masks(inst)[1])[2]
             for name, inst in CASES.items() if name.startswith("random")}
    assert flips == {True, False}
