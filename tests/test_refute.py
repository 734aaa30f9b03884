import math

import numpy as np
import pytest

from kikuchi.decompose import Thresholds, compute_thresholds
from kikuchi.graphs import assemble_regular_cs, cs_pair_labels, quadratic_form
from kikuchi.instances import (
    BipartiteXorInstance,
    XorInstance,
    brute_force_val,
    generate_planted_linear_instance,
    generate_random_matching_instance,
    val_for_all_signs,
)
from kikuchi.refute import (
    Partition,
    RegularityError,
    eval_f,
    refute_bipartite,
    refute_full,
    refute_regular,
    sample_partitions,
)
from kikuchi.spectral import sign_rows


def two_edge_instance():
    return XorInstance(
        n=6, k=2, q=3, delta=1 / 6,
        hypergraphs=[[[0, 1, 2]], [[0, 3, 4]]],
    )


def test_cs_pair_labels_shared_vertex():
    inst = two_edge_instance()
    labels = cs_pair_labels(inst, [0], [1])
    assert labels == [(0, 1, 0, (1, 2), (3, 4))]


def test_cs_pair_labels_disjoint_and_no_self():
    inst = XorInstance(n=8, k=2, q=3, delta=1 / 8,
                       hypergraphs=[[[0, 1, 2]], [[3, 4, 5]]])
    assert cs_pair_labels(inst, [0], [1]) == []
    assert cs_pair_labels(two_edge_instance(), [0, 1], [0, 1]) == [
        (0, 1, 0, (1, 2), (3, 4)),
        (1, 0, 0, (3, 4), (1, 2)),
    ]


def test_eval_f_hand_example():
    inst = two_edge_instance()
    part = Partition(left=(0,), right=(1,), seed=0)
    x = [1, -1, 1, 1, 1, 1]  # x_1 x_2 x_3 x_4 = -1 (0-based 1,2,3,4)
    assert eval_f(inst, part, [1, 1], x) == -1
    assert eval_f(inst, part, [1, 1], [1] * 6) == 1


def test_eval_f_all_ones_is_signed_label_count(rng):
    inst = generate_random_matching_instance(10, 3, 4, 0.2, seed=1)
    part = Partition(left=(0, 1), right=(2, 3), seed=0)
    labels = cs_pair_labels(inst, part.left, part.right)
    for _ in range(5):
        b = (1 - 2 * rng.integers(0, 2, size=4)).tolist()
        expect = sum(b[i] * b[j] for (i, j, _, _, _) in labels)
        assert eval_f(inst, part, b, [1] * 10) == expect


def test_quadratic_form_matches_eval_f(rng):
    inst = generate_random_matching_instance(9, 3, 4, 0.2, seed=3)
    part = Partition(left=(0, 2), right=(1, 3), seed=0)
    g = assemble_regular_cs(inst, 1, list(part.left), list(part.right))
    if g.n_labels == 0:
        pytest.skip("no shared pairs in this draw")
    for _ in range(20):
        b = (1 - 2 * rng.integers(0, 2, size=4)).tolist()
        x = (1 - 2 * rng.integers(0, 2, size=9)).tolist()
        total, _ = quadratic_form(g, b, x)
        assert total == g.D * eval_f(inst, part, b, x)


def test_sample_partitions_deterministic():
    a = sample_partitions(6, 4, seed=9)
    b = sample_partitions(6, 4, seed=9)
    assert a == b
    for part in a:
        assert sorted(part.left + part.right) == list(range(6))


def test_regular_degenerate_no_shared_pairs():
    inst = XorInstance(n=12, k=2, q=3, delta=1 / 12,
                       hypergraphs=[[[0, 1, 2]], [[3, 4, 5]]])
    thr = Thresholds.exact(ell=1, n=12, k=2, q=3, d_values={2: 10})
    ref = refute_regular(inst, ell=1, n_partitions=2, thresholds=thr)
    assert "no_shared_pairs" in ref.certificate["flags"]
    m = inst.total_edges
    expect = min(m, math.sqrt(3 * 12 * m) / 3)
    b = [1, 1]
    assert ref.bound_for_signs(b) == pytest.approx(expect)
    assert ref.bound_for_signs(b) >= brute_force_val(inst, b)[0]


def test_regular_rejects_heavy_instance():
    hgs = [[[0, 1, i + 2]] for i in range(5)]
    inst = XorInstance(n=7, k=5, q=3, delta=1 / 7, hypergraphs=hgs)
    thr = Thresholds.exact(ell=2, n=7, k=5, q=3, d_values={2: 2})
    with pytest.raises(RegularityError):
        refute_regular(inst, ell=2, thresholds=thr)


def test_regular_per_b_soundness(rng):
    for seed in (0, 3, 11):
        inst = generate_random_matching_instance(10, 3, 4, 0.2, seed=seed)
        thr = compute_thresholds(10, 4, 3, inst.measured_delta(), ell_override=1)
        from kikuchi.decompose import decompose

        dec = decompose(inst, thr)
        ref = refute_regular(dec.leftover, ell=1, thresholds=thr, n_partitions=2)
        vals = val_for_all_signs(dec.leftover)
        for idx, b in enumerate(sign_rows(4)):
            assert ref.bound_for_signs(b) + 1e-6 >= vals[idx]


def test_bipartite_empty_piece():
    piece = BipartiteXorInstance(n=6, k=2, q=3, s=2, registry=[],
                                 hypergraphs=[[], []])
    ref = refute_bipartite(piece, ell=2)
    assert ref.certificate["bound"] == 0.0


def test_bipartite_toy_soundness_exhaustive():
    piece = BipartiteXorInstance(
        n=6, k=2, q=3, s=2,
        registry=[(0, 1), (2, 3), (4, 5), (0, 2), (1, 3)],
        hypergraphs=[[((4,), 0), ((5,), 1)], [((0,), 2), ((1,), 3)]],
    )
    ref = refute_bipartite(piece, ell=2)
    vals = val_for_all_signs(piece)
    for idx, b in enumerate(sign_rows(2)):
        bound = ref.bound_for_signs(b)
        assert bound + 1e-6 * max(1.0, bound) >= vals[idx]


def test_bipartite_shared_label_concentrates_right():
    piece = BipartiteXorInstance(
        n=9, k=3, q=3, s=2,
        registry=[(0, 1), (2, 3), (4, 5), (6, 7)],
        hypergraphs=[[((2,), 0)], [((5,), 0)], [((8,), 0)]],
    )
    ref = refute_bipartite(piece, ell=1, gamma=1)
    cert = ref.certificate
    if "pruned" in cert:
        assert cert["pruned"]["heavy_right"] > 0
    vals = val_for_all_signs(piece)
    for idx, b in enumerate(sign_rows(3)):
        bound = ref.bound_for_signs(b)
        assert bound + 1e-6 * max(1.0, bound) >= vals[idx]


def test_full_combined_is_sum_and_sound():
    inst = generate_random_matching_instance(12, 3, 4, 0.25, seed=3)
    run = refute_full(inst, epsilon=0.1, ell=1, n_partitions=2)
    c = run.certificate
    expect = c["regular"]["bound"] + sum(
        p["bound"] for p in c["pieces"].values()
    )
    assert c["combined_bound"] == pytest.approx(expect, rel=1e-12)
    log = run.soundness_check()
    assert all(e["ok"] for e in log)


def test_full_planted_not_refuted():
    inst, _ = generate_planted_linear_instance(12, 3, 4, 0.16, seed=1)
    run = refute_full(inst, epsilon=0.5, ell=1, n_partitions=2)
    c = run.certificate
    assert c["verdict"] == "not refuted"
    assert c["combined_bound"] >= c["delta_n_measured"] * 4  # true value


def test_full_even_q_rejected():
    inst = XorInstance(n=8, k=1, q=4, delta=0.125,
                       hypergraphs=[[[0, 1, 2, 3]]])
    with pytest.raises(ValueError):
        refute_full(inst)


def test_negative_control_corrupt_D_prime():
    """Halving N/D' (equivalently doubling D') must break soundness
    somewhere on a tight instance."""
    inst = XorInstance(n=3, k=2, q=3, delta=1 / 3,
                       hypergraphs=[[[0, 1, 2]], [[0, 1, 2]]])
    thr = Thresholds.exact(ell=1, n=3, k=2, q=3, d_values={2: 10})
    ref = refute_regular(inst, ell=1, n_partitions=1, thresholds=thr)
    vals = val_for_all_signs(inst)
    ok_before = [
        ref.bound_for_signs(b) + 1e-6 >= vals[i]
        for i, b in enumerate(sign_rows(2))
    ]
    assert all(ok_before)
    assert ref.family is not None
    ref.ratio_N_over_Dp *= 0.5  # simulate D' inflated by 2
    ref.family._norm_cache.clear()
    ok_after = [
        ref.bound_for_signs(b) + 1e-6 >= vals[i]
        for i, b in enumerate(sign_rows(2))
    ]
    assert not all(ok_after)


def test_negative_control_through_pipeline():
    """Shrinking the certified ratios (as an inflated D' would) trips the
    exhaustive soundness check on an ordinary random instance."""
    inst = generate_random_matching_instance(12, 3, 5, 0.2, seed=2)
    run = refute_full(inst, epsilon=0.1, ell=1, n_partitions=2)
    assert all(e["ok"] for e in run.soundness_check())
    if run.regular.family is not None:
        run.regular.ratio_N_over_Dp *= 0.25
        run.regular.family._norm_cache.clear()
    run.regular.f_trivial = 0
    for ref in run.pieces.values():
        if ref.family is not None:
            ref.ratio *= 0.25
            ref.family._norm_cache.clear()
        ref.trivial_bound = 0
    assert not all(e["ok"] for e in run.soundness_check())


def test_gamma_tightens_D_prime():
    inst = generate_random_matching_instance(10, 3, 5, 0.3, seed=7)
    thr = compute_thresholds(10, 5, 3, inst.measured_delta(), ell_override=1)
    from kikuchi.decompose import decompose

    dec = decompose(inst, thr)
    dps = []
    for gamma in (2, 4, 8):
        ref = refute_regular(dec.leftover, ell=1, thresholds=thr, gamma=gamma,
                             n_partitions=1)
        dps.append(ref.certificate.get("pruned", {}).get("D_prime", 0))
    assert dps == sorted(dps)


def test_certificate_khintchine_dominates_empirical():
    """Within each partition entry the analytic bound should sit above the
    empirical mean of realized norms (the inequality it certifies)."""
    inst = generate_random_matching_instance(12, 3, 5, 0.25, seed=6)
    run = refute_full(inst, ell=1, n_partitions=3, seed=6)
    entries = [
        e for e in run.regular.certificate.get("partitions", [])
        if "f_bound_empirical_mean" in e
    ]
    for e in entries:
        assert e["f_bound_khintchine"] >= e["f_bound_empirical_mean"] * (1 - 1e-9)
    for ref in run.pieces.values():
        c = ref.certificate
        if "norm_mc" in c and c["norm_mc"]["exhaustive"]:
            assert c["bound_khintchine"] >= c["bound_empirical"] * (1 - 1e-9)


def test_sigma_sq_rigorous_in_certificates():
    """Partition entries and pieces record sigma^2 as a rigorous upper bound
    that matches a dense eigensolve of the piece's Gram matrices."""
    inst = generate_random_matching_instance(12, 3, 4, 0.25, seed=3)
    run = refute_full(inst, ell=1, n_partitions=2, seed=3, trials=20)
    entries = [e for e in run.regular.certificate["partitions"] if "sigma_sq" in e]
    pieces = [r for r in run.pieces.values() if "sigma_sq" in r.certificate]
    assert entries and pieces
    assert all(e["sigma_sq_guarantee"] == "rigorous" for e in entries)
    for ref in pieces:
        cert = ref.certificate
        assert cert["sigma_sq_guarantee"] == "rigorous"
        dense = [abs(m.toarray()) for m in ref.pruned.group_matrices()]
        exact = max(
            np.linalg.eigvalsh(sum(d @ d.T for d in dense))[-1],
            np.linalg.eigvalsh(sum(d.T @ d for d in dense))[-1],
        )
        assert exact <= cert["sigma_sq"] <= exact * (1 + 1e-12)


def test_identical_matchings_equality_case():
    """Maximal pair structure: the uncapped spectral chain meets the true
    value exactly, so any bookkeeping error flips the check."""
    hg = [[0, 1, 2], [3, 4, 5]]
    inst = XorInstance(n=6, k=4, q=3, delta=1 / 3, hypergraphs=[hg] * 4)
    run = refute_full(inst, ell=2, n_partitions=2, seed=1)
    log = run.soundness_check()
    assert all(e["ok"] for e in log)
    vals = val_for_all_signs(inst)
    gaps = [e["spectral_bound"] - e["val"] for e in log]
    assert min(gaps) >= -1e-6
    assert min(gaps) == pytest.approx(0.0, abs=1e-6)  # tight somewhere
    assert vals.max() == inst.total_edges


def test_formula_ell_pipeline():
    inst = generate_random_matching_instance(8, 3, 3, 0.25, seed=2)
    run = refute_full(inst, seed=2, n_partitions=2)  # ell from the formula
    assert run.certificate["params"]["ell"] == 5
    assert all(e["ok"] for e in run.soundness_check())


def test_q7_decomposes_everything_at_desk_scale():
    inst = generate_random_matching_instance(14, 7, 3, 0.1, seed=3)
    run = refute_full(inst, ell=3, n_partitions=2, seed=3)
    # with k far below the asymptotic regime every edge lands in a piece
    assert run.certificate["decomposition"]["leftover_edges"] == 0
    assert all(e["ok"] for e in run.soundness_check())


def test_soundness_check_guard_and_log():
    inst = generate_random_matching_instance(10, 3, 3, 0.2, seed=5)
    run = refute_full(inst, ell=1, n_partitions=2)
    log = run.soundness_check()
    assert len(log) == 8
    for e in log:
        assert set(e) == {"b", "val", "bound", "spectral_bound", "ok"}
        assert e["ok"]
        assert e["spectral_bound"] + 1e-6 >= e["val"]
    sub = run.soundness_check(signs_list=[[1, 1, 1], [-1, 1, -1]])
    assert len(sub) == 2 and all(e["ok"] for e in sub)
