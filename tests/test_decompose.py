import json
from fractions import Fraction

import pytest

from kikuchi.decompose import (
    DecomposedInstance,
    Thresholds,
    compute_thresholds,
    decompose,
    recombination_check,
    verify_decomposition,
)
from kikuchi.instances import XorInstance, generate_random_matching_instance
from kikuchi.setops import degree


def test_threshold_formula_q3():
    thr = compute_thresholds(64, 10, 3, 1)
    assert thr.ell == 4  # floor(64^(1/3))
    assert thr.d_sq[2] == Fraction(100 * 4, 64)  # (k/4)^2 with k=10
    assert thr.d_float(2) == pytest.approx(10 / 4)


def test_threshold_formula_q5():
    thr = compute_thresholds(32, 8, 5, 1)
    assert thr.ell == 8  # floor(32^(3/5)) = 8
    assert thr.d_float(2) == pytest.approx(8 / 2)  # (1/4)^(1/2) k
    assert thr.d_float(3) == pytest.approx(8 / 8)  # (1/4)^(3/2) k


def test_threshold_degenerate_n1():
    thr = compute_thresholds(1, 5, 3, 1)
    assert thr.ell == 1
    assert thr.d_float(2) == pytest.approx(5.0)


def test_threshold_flags_and_exact_floor():
    thr = compute_thresholds(64, 3, 3, 1)
    assert not thr.k_ge_4ell  # 3 < 16
    assert thr.is_heavy(2, 2) and not thr.is_heavy(0, 2)
    # d_2 = 3/4: heavy iff deg > 0.75, floor = 0, move floor+1 = 1
    assert thr.is_heavy(1, 2)
    assert thr.move_count(2) == 1


def test_threshold_delta_dependence():
    # ell = floor(n^(1-2/q) delta^(-2/q)): q=3, n=27, delta=1/8 -> floor(3*4)=12
    thr = compute_thresholds(27, 100, 3, Fraction(1, 8))
    assert thr.ell == 12


def test_threshold_override_outside_one_to_n_raises():
    # only the formula's value is clamped; an override is taken or refused
    assert compute_thresholds(12, 4, 3, 0.25, ell_override=12).ell == 12
    for ell in (0, 13):
        with pytest.raises(ValueError, match=rf"\[1, 12\], got {ell}"):
            compute_thresholds(12, 4, 3, 0.25, ell_override=ell)


def pair_heavy_instance():
    """Five matchings, each one triple extending the pair {0,1}."""
    hgs = [[[0, 1, i + 2]] for i in range(5)]
    return XorInstance(n=7, k=5, q=3, delta=1 / 7, hypergraphs=hgs)


def test_greedy_hand_trace():
    inst = pair_heavy_instance()
    thr = Thresholds(ell=2, n=7, k=5, q=3, d_sq={2: Fraction(4)})
    dec = decompose(inst, thr)
    assert 2 in dec.pieces
    piece = dec.pieces[2]
    assert piece.registry == ((0, 1),)
    moved = [i for i in range(5) if piece.hypergraphs[i]]
    assert moved == [0, 1, 2]  # floor(d_2)+1 = 3 smallest (i, pos)
    assert dec.leftover.edge_counts == (0, 0, 0, 1, 1)
    union = [e for h in dec.leftover.hypergraphs for e in h]
    assert degree(union, [0, 1]) == 2  # exactly at the threshold, not heavy
    assert verify_decomposition(dec)["ok"]


def test_no_heavy_set_means_identity():
    inst = generate_random_matching_instance(12, 3, 2, 0.25, seed=0)
    thr = Thresholds(ell=2, n=12, k=2, q=3, d_sq={2: Fraction(10000)})
    dec = decompose(inst, thr)
    assert dec.leftover.hypergraphs == inst.hypergraphs
    assert not dec.pieces


def test_idempotence_on_leftover():
    inst = pair_heavy_instance()
    thr = Thresholds(ell=2, n=7, k=5, q=3, d_sq={2: Fraction(4)})
    dec = decompose(inst, thr)
    again = decompose(dec.leftover, thr)
    assert again.leftover.hypergraphs == dec.leftover.hypergraphs
    assert not again.pieces


@pytest.mark.parametrize("q,n,k,delta", [(3, 12, 5, 0.25), (5, 15, 4, 0.2),
                                         (7, 14, 3, 1 / 7)])
def test_five_properties_on_random_instances(q, n, k, delta):
    for seed in range(5):
        inst = generate_random_matching_instance(n, q, k, delta, seed=seed)
        thr = compute_thresholds(n, k, q, inst.measured_delta(), ell_override=2)
        dec = decompose(inst, thr)
        report = verify_decomposition(dec)
        assert report["ok"], report["violations"]
        for i in range(k):
            total = len(dec.leftover.hypergraphs[i]) + sum(
                len(p.hypergraphs[i]) for p in dec.pieces.values()
            )
            assert total == len(inst.hypergraphs[i])  # conservation


def test_property4_matches_exhaustive_degree_scan():
    inst = generate_random_matching_instance(10, 3, 6, 0.3, seed=4)
    thr = compute_thresholds(10, 6, 3, inst.measured_delta(), ell_override=2)
    dec = decompose(inst, thr)
    union = [e for h in dec.leftover.hypergraphs for e in h]
    from itertools import combinations

    for t in thr.t_range:
        for qset in combinations(range(10), t):
            assert not thr.is_heavy(degree(union, qset), t)


def test_negative_control_duplicated_edge():
    inst = pair_heavy_instance()
    thr = Thresholds(ell=2, n=7, k=5, q=3, d_sq={2: Fraction(4)})
    dec = decompose(inst, thr)
    bad_leftover = [list(h) for h in dec.leftover.hypergraphs]
    bad_leftover[3].append([2, 3, 4])  # edge not present in H_4
    corrupted = DecomposedInstance(
        original=dec.original,
        leftover=XorInstance(n=7, k=5, q=3, delta=1 / 7, hypergraphs=bad_leftover),
        pieces=dec.pieces,
        provenance=dec.provenance,
        thresholds=thr,
    )
    report = verify_decomposition(corrupted)
    assert not report["ok"]
    assert any("bijection" in v or "subset" in v for v in report["violations"])


def test_recombination_identity(rng):
    inst = generate_random_matching_instance(12, 5, 4, 0.2, seed=8)
    thr = compute_thresholds(12, 4, 5, inst.measured_delta(), ell_override=2)
    dec = decompose(inst, thr)
    for _ in range(100):
        b = (1 - 2 * rng.integers(0, 2, size=4)).tolist()
        x = (1 - 2 * rng.integers(0, 2, size=12)).tolist()
        assert recombination_check(dec, b, x)


def test_recombination_all_ones():
    inst = pair_heavy_instance()
    thr = Thresholds(ell=2, n=7, k=5, q=3, d_sq={2: Fraction(4)})
    dec = decompose(inst, thr)
    b = [1, -1, 1, -1, 1]
    assert recombination_check(dec, b, [1] * 7)


def test_decomposition_json_roundtrip(tmp_path):
    """The written file rebuilds the leftover and every piece, and carries
    the thresholds and the sorted provenance."""
    from kikuchi.decompose import dump_decomposition
    from kikuchi.instances import BipartiteXorInstance

    inst = generate_random_matching_instance(12, 3, 5, 0.25, seed=9)
    thr = compute_thresholds(12, 5, 3, inst.measured_delta(), ell_override=1)
    dec = decompose(inst, thr)
    p = tmp_path / "dec.json"
    dump_decomposition(dec, p)
    d = json.loads(p.read_text())
    assert XorInstance.from_dict(d["instance"]) == dec.original
    assert XorInstance.from_dict(d["leftover"]) == dec.leftover
    assert {int(s): BipartiteXorInstance.from_dict(piece)
            for s, piece in d["pieces"].items()} == dec.pieces
    assert d["thresholds"] == thr.to_dict()
    assert [((i, pos), tuple(dest)) for i, pos, dest in d["provenance"]] \
        == list(dec.provenance)
