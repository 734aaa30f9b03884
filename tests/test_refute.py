import math
import subprocess
import sys

import numpy as np
import pytest

import kikuchi.refute as refute
from kikuchi.decompose import Thresholds, compute_thresholds
from kikuchi.graphs import assemble_regular_cs, cs_pair_labels, quadratic_form
from kikuchi.instances import (
    EXHAUSTIVE_B_LIMIT,
    BipartiteXorInstance,
    OracleLimitExceeded,
    XorInstance,
    brute_force_val,
    generate_planted_linear_instance,
    generate_random_matching_instance,
    val_for_all_signs,
)
from kikuchi.refute import (
    FullRefutation,
    RegularityError,
    eval_full_pairs,
    refute_bipartite,
    refute_full,
    refute_regular,
)
from kikuchi.spectral import sign_rows


def two_edge_instance():
    return XorInstance(
        n=6, k=2, q=3, delta=1 / 6,
        hypergraphs=[[[0, 1, 2]], [[0, 3, 4]]],
    )


def test_cs_pair_labels_shared_vertex():
    # both orders of the one pair (i, j), in the order i = 0, 1
    assert cs_pair_labels(two_edge_instance()) == [
        (0, 1, 0, (1, 2), (3, 4)),
        (1, 0, 0, (3, 4), (1, 2)),
    ]


def test_cs_pair_labels_disjoint_and_no_self():
    inst = XorInstance(n=8, k=2, q=3, delta=1 / 8,
                       hypergraphs=[[[0, 1, 2]], [[3, 4, 5]]])
    assert cs_pair_labels(inst) == []
    # a constraint never pairs with itself: i == j is skipped
    one = XorInstance(n=6, k=1, q=3, delta=1 / 6, hypergraphs=[[[0, 1, 2]]])
    assert cs_pair_labels(one) == []


def test_eval_f_hand_example():
    """F_b of two constraints sharing vertex 0: both orders of the pair give
    the monomial b_0 b_1 x_1 x_2 x_3 x_4."""
    inst = two_edge_instance()
    x = [1, -1, 1, 1, 1, 1]  # x_1 x_2 x_3 x_4 = -1 (0-based 1,2,3,4)
    assert eval_full_pairs(inst, [1, 1], x) == -2
    assert eval_full_pairs(inst, [1, -1], x) == 2
    assert eval_full_pairs(inst, [1, 1], [1] * 6) == 2


def test_eval_f_all_ones_is_signed_label_count(rng):
    """F_b at x = 1 is the sum of b_i b_j over the pair labels."""
    inst = generate_random_matching_instance(10, 3, 4, 0.2, seed=1)
    labels = cs_pair_labels(inst)
    assert labels
    for _ in range(5):
        b = (1 - 2 * rng.integers(0, 2, size=4)).tolist()
        expect = sum(b[i] * b[j] for (i, j, _, _, _) in labels)
        assert eval_full_pairs(inst, b, [1] * 10) == expect


def test_quadratic_form_matches_eval_full_pairs(rng):
    """z^T A w on the full pair graph is D F_b(x)."""
    inst = generate_random_matching_instance(9, 3, 4, 0.2, seed=3)
    g = assemble_regular_cs(inst, 1)
    assert g.n_labels and g.D
    for _ in range(20):
        b = (1 - 2 * rng.integers(0, 2, size=4)).tolist()
        x = (1 - 2 * rng.integers(0, 2, size=9)).tolist()
        total, _ = quadratic_form(g, b, x)
        assert total == g.D * eval_full_pairs(inst, b, x)


def test_regular_degenerate_no_shared_pairs():
    inst = XorInstance(n=12, k=2, q=3, delta=1 / 12,
                       hypergraphs=[[[0, 1, 2]], [[3, 4, 5]]])
    thr = Thresholds.exact(ell=1, n=12, k=2, q=3, d_values={2: 10})
    ref = refute_regular(inst, ell=1, thresholds=thr)
    assert "no_shared_pairs" in ref.certificate["flags"]
    m = inst.total_edges
    expect = min(m, math.sqrt(3 * 12 * m) / 3)
    b = [1, 1]
    (bound,) = ref.bounds(np.array([b]))
    assert bound == pytest.approx(expect)
    assert bound >= brute_force_val(inst, b)[0]


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
        ref = refute_regular(dec.leftover, ell=1, thresholds=thr)
        vals = val_for_all_signs(dec.leftover)
        for idx, bound in enumerate(ref.bounds(sign_rows(4))):
            assert bound + 1e-6 >= vals[idx]


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
    for idx, bound in enumerate(ref.bounds(sign_rows(2))):
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
    for idx, bound in enumerate(ref.bounds(sign_rows(3))):
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
    ref = refute_regular(inst, ell=1, thresholds=thr)
    vals = val_for_all_signs(inst)
    ok_before = [
        bound + 1e-6 >= vals[i]
        for i, bound in enumerate(ref.bounds(sign_rows(2)))
    ]
    assert all(ok_before)
    assert ref.family is not None
    ref.ratio *= 0.5  # simulate D' inflated by 2
    ref.family._norm_cache.clear()
    ok_after = [
        bound + 1e-6 >= vals[i]
        for i, bound in enumerate(ref.bounds(sign_rows(2)))
    ]
    assert not all(ok_after)


def test_negative_control_through_pipeline():
    """Shrinking the certified ratios (as an inflated D' would) trips the
    exhaustive soundness check on an ordinary random instance."""
    inst = generate_random_matching_instance(12, 3, 5, 0.2, seed=2)
    run = refute_full(inst, epsilon=0.1, ell=1, n_partitions=2)
    assert all(e["ok"] for e in run.soundness_check())
    if run.regular.family is not None:
        run.regular.ratio *= 0.25
        run.regular.family._norm_cache.clear()
    run.regular.trivial = 0
    for ref in run.pieces.values():
        if ref.family is not None:
            ref.ratio *= 0.25
            ref.family._norm_cache.clear()
        ref.trivial = 0
    assert not all(e["ok"] for e in run.soundness_check())


def test_gamma_tightens_D_prime():
    inst = generate_random_matching_instance(10, 3, 5, 0.3, seed=7)
    thr = compute_thresholds(10, 5, 3, inst.measured_delta(), ell_override=1)
    from kikuchi.decompose import decompose

    dec = decompose(inst, thr)
    dps = []
    for gamma in (2, 4, 8):
        ref = refute_regular(dec.leftover, ell=1, thresholds=thr, gamma=gamma)
        dps.append(ref.certificate.get("pruned", {}).get("D_prime", 0))
    assert dps == sorted(dps)


KHINTCHINE_KEYS = ("partitions", "f_bound_khintchine_mean", "f_bound_khintchine_min",
                   "bound_khintchine", "khintchine_guarantee")


def test_partitions_never_reach_the_bound():
    """``n_partitions`` is accepted and ignored: the certificates are equal
    and carry neither the parameter nor a sampled-partition estimate."""
    inst = generate_random_matching_instance(12, 3, 5, 0.25, seed=6)
    with_parts = refute_full(inst, ell=1, n_partitions=4, seed=6, trials=20)
    without = refute_full(inst, ell=1, n_partitions=0, seed=6, trials=20)
    assert with_parts.certificate == without.certificate
    assert "n_partitions" not in without.certificate["params"]
    reg = without.regular.certificate
    assert "n_partitions" not in reg["params"]
    assert not any(key in reg for key in KHINTCHINE_KEYS)


def test_one_prune_per_route_and_sigma_per_piece(monkeypatch):
    """The run assembles one pair graph, prunes once per route and computes
    sigma^2 only for the piece family, whatever ``n_partitions`` says."""
    inst = generate_random_matching_instance(12, 3, 5, 0.25, seed=6)
    calls = {}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(refute, "assemble_regular_cs",
                        counting("assemble", refute.assemble_regular_cs))
    monkeypatch.setattr(refute, "block_spectral_norms",
                        counting("norm", refute.block_spectral_norms))
    monkeypatch.setattr(refute, "prune", counting("prune", refute.prune))
    monkeypatch.setattr(refute, "khintchine_sigma",
                        counting("sigma", refute.khintchine_sigma))
    counts = []
    for n_partitions in (4, 0):
        calls.clear()
        run = refute_full(inst, ell=1, n_partitions=n_partitions, seed=6, trials=20)
        counts.append(dict(calls))
    routes = [run.regular, *run.pieces.values()]
    assert len(routes) == 2 and all(r.family is not None for r in routes)
    assert counts[0] == counts[1]
    assert counts[0]["assemble"] == 1 and counts[0]["norm"] > 0
    assert counts[0]["prune"] == 2 and counts[0]["sigma"] == 1


@pytest.mark.parametrize("name", ["gamma", "epsilon"])
@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
def test_non_positive_or_non_finite_gamma_epsilon_raise(name, value):
    inst = generate_random_matching_instance(12, 3, 4, 0.25, seed=3)
    with pytest.raises(ValueError, match=f"^{name} must be finite and > 0"):
        refute_full(inst, ell=1, trials=10, **{name: value})


@pytest.mark.parametrize("trials", [1, 0])
def test_too_few_trials_raise(trials):
    inst = generate_random_matching_instance(12, 3, 4, 0.25, seed=3)
    piece = BipartiteXorInstance(
        n=6, k=2, q=3, s=2,
        registry=[(0, 1), (2, 3), (4, 5), (0, 2), (1, 3)],
        hypergraphs=[[((4,), 0), ((5,), 1)], [((0,), 2), ((1,), 3)]],
    )
    for call in (lambda: refute_full(inst, ell=1, trials=trials),
                 lambda: refute_regular(inst, ell=1, trials=trials),
                 lambda: refute_bipartite(piece, ell=2, trials=trials)):
        with pytest.raises(ValueError, match="trials"):
            call()


def test_soundness_check_solves_sign_rows_in_blocks(monkeypatch):
    """Explicit sign rows above the exhaustive limit are solved a block of
    classes at a time, and the log equals the one built row by row."""
    inst = generate_random_matching_instance(12, 3, 14, 0.25, seed=1)
    kw = dict(ell=1, seed=7, trials=50, n_partitions=4)
    run, twin = refute_full(inst, **kw), refute_full(inst, **kw)
    rows = 1 - 2 * np.random.default_rng(3).integers(0, 2, size=(40, inst.k))
    families = [r.family for r in [run.regular, *run.pieces.values()]
                if r.family is not None and r.family.nnz]
    assert families
    allowed = 0
    for fam in families:
        classes = {(s * s[0]).tobytes() for s in fam.graph.signs_for(rows)}
        missing = len(classes - set(fam._norm_cache))
        allowed += math.ceil(missing / max(1, refute.BLOCK_ENTRIES // fam.nnz))
    assert allowed < len(rows)
    solves = []
    solve = refute.block_spectral_norms

    def counting(A, c, **kw):
        solves.append(c)
        return solve(A, c, **kw)

    monkeypatch.setattr(refute, "block_spectral_norms", counting)
    log = run.soundness_check(rows.tolist())
    assert 0 < len(solves) <= allowed
    monkeypatch.setattr(twin, "bounds", lambda rows, capped=True: np.concatenate(
        [FullRefutation.bounds(twin, row[None], capped) for row in rows]))
    assert twin.soundness_check(rows.tolist()) == log
    assert all(e["ok"] for e in log) and len(log) == 40


@pytest.mark.parametrize("refuter", [refute_full])
def test_negative_partitions_raise(refuter):
    inst = generate_random_matching_instance(12, 3, 4, 0.25, seed=3)
    with pytest.raises(ValueError, match="n_partitions"):
        refuter(inst, ell=1, n_partitions=-1, trials=10)


def test_sigma_sq_rigorous_in_certificates():
    """Pieces record sigma^2 as a rigorous upper bound that matches a dense
    eigensolve of the piece's Gram matrices, and their Khintchine bound sits
    above the exhaustive mean of realized norms it certifies."""
    inst = generate_random_matching_instance(12, 3, 4, 0.25, seed=3)
    run = refute_full(inst, ell=1, seed=3, trials=20)
    pieces = [r for r in run.pieces.values() if "sigma_sq" in r.certificate]
    assert pieces
    for ref in pieces:
        cert = ref.certificate
        assert cert["sigma_sq_guarantee"] == "rigorous"
        assert cert["norm_mc"]["exhaustive"]
        assert cert["bound_khintchine"] >= cert["bound_empirical"] * (1 - 1e-9)
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


@pytest.mark.parametrize("n, k", [(12, EXHAUSTIVE_B_LIMIT + 2), (26, 3)])
def test_soundness_check_refuses_before_building_sign_rows(n, k, monkeypatch):
    # k = 18 would need 2^18 sign rows, n = 26 exceeds the variable limit;
    # both are refused before any row exists
    inst = generate_random_matching_instance(n, 3, k, 0.25, seed=1)
    run = refute_full(inst, ell=1, trials=20, seed=7)
    built = []
    monkeypatch.setattr(refute, "sign_rows", lambda *a, **kw: built.append(a))
    with pytest.raises(OracleLimitExceeded):
        run.soundness_check()
    assert built == []


def test_soundness_check_makes_one_oracle_call_for_all_rows(monkeypatch):
    # sampled rows above EXHAUSTIVE_B_LIMIT: one values-only call, no
    # per-row brute_force_val, and every val equal to the per-row one
    inst = generate_random_matching_instance(12, 3, EXHAUSTIVE_B_LIMIT + 2, 0.25,
                                             seed=1)
    run = refute_full(inst, ell=1, trials=20, seed=7)
    rows = (1 - 2 * np.random.default_rng(4).integers(0, 2, size=(24, inst.k))).tolist()
    calls = []
    all_signs = refute.val_for_all_signs

    def counting(*args, **kwargs):
        calls.append(kwargs)
        return all_signs(*args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("per-row oracle call")

    monkeypatch.setattr(refute, "val_for_all_signs", counting)
    monkeypatch.setattr(refute, "brute_force_val", forbidden)
    log = run.soundness_check(rows)
    assert len(calls) == 1
    assert [e["b"] for e in log] == rows
    assert [e["val"] for e in log] == [brute_force_val(inst, b)[0] for b in rows]
    assert all(type(e["val"]) is int and e["ok"] for e in log)


def test_sampled_and_exhaustive_soundness_logs_agree():
    inst = generate_random_matching_instance(10, 3, 4, 0.2, seed=5)
    run = refute_full(inst, ell=1, n_partitions=2)
    full = run.soundness_check()
    picks = [3, 0, 15, 3, 9]
    rows = [full[i]["b"] for i in picks]
    assert run.soundness_check(rows) == [full[i] for i in picks]


def _pieces_failing_with(monkeypatch, exc):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(refute, "refute_bipartite", fail)
    inst = generate_random_matching_instance(12, 3, 4, 0.25, seed=1)
    return refute_full(inst, ell=1, n_partitions=0, trials=10)


def test_piece_failure_keeps_the_trivial_bound(monkeypatch):
    guard = "norm estimate below a bilinear probe"
    run = _pieces_failing_with(monkeypatch, AssertionError(guard))
    cert = run.certificate
    assert cert["piece_failures"] == {2: guard}
    piece = cert["pieces"]["2"]
    edges = run.decomposition.pieces[2].total_edges
    assert piece["bound"] == piece["trivial_bound"] == edges
    assert all(e["ok"] for e in run.soundness_check())


def test_failed_piece_keeps_the_piece_header(monkeypatch):
    inst = generate_random_matching_instance(12, 3, 4, 0.25, seed=1)
    ok = refute_full(inst, ell=1, n_partitions=0, trials=10).certificate["pieces"]["2"]
    failed = _pieces_failing_with(monkeypatch, AssertionError("x")).certificate
    assert "refutation_failed" not in str(ok["flags"])
    for key in ("kind", "params", "P_size", "m_total", "trivial_bound"):
        assert failed["pieces"]["2"][key] == ok[key]


def test_regular_pruning_failure_falls_back_to_the_label_count():
    inst = generate_random_matching_instance(12, 3, 4, 0.25, seed=2)
    run = refute_full(inst, gamma=0.05, ell=1, n_partitions=2, trials=10)
    cert = run.regular.certificate
    assert any(f.startswith("pruning_failed:") for f in cert["flags"])
    assert cert["full_graph_norm"] is None and run.regular.family is None
    m, labels = cert["m_total"], cert["graph"]["n_labels"]
    assert labels > 0
    assert cert["bound"] == min(m, math.sqrt(3 * 12 * m + 12 * labels) / 3)
    rows = sign_rows(4)
    assert run.regular.spectral(rows).tolist() == [float(labels)] * len(rows)
    assert all(e["ok"] for e in run.soundness_check())


def test_spectral_is_ratio_times_norms():
    inst = generate_random_matching_instance(12, 3, 5, 0.25, seed=3)
    run = refute_full(inst, ell=1, n_partitions=0, trials=10)
    rows = sign_rows(5)
    routes = [run.regular, *run.pieces.values()]
    assert any(r.family is not None for r in routes)
    for ref in routes:
        if ref.family is not None:
            want = ref.ratio * ref.family.norms(rows)
            assert np.array_equal(ref.spectral(rows), want)
        ref.family = None
        assert ref.spectral(rows).tolist() == [float(ref.trivial)] * len(rows)


def test_piece_refutation_bug_propagates(monkeypatch):
    with pytest.raises(TypeError, match="a bug"):
        _pieces_failing_with(monkeypatch, TypeError("a bug"))


def test_refute_imports_no_heavy_scipy_submodule():
    # each of these costs about 10 MB of resident memory; the norm solves of
    # a certificate and of its exhaustive soundness check stay numpy only
    code = (
        "import sys\n"
        "from kikuchi.instances import generate_random_matching_instance\n"
        "from kikuchi.refute import refute_full\n"
        "inst = generate_random_matching_instance(12, 3, 4, 0.25, seed=1)\n"
        "run = refute_full(inst, ell=1, n_partitions=2, trials=10)\n"
        "log = run.soundness_check()\n"
        "heavy = ('scipy.sparse.linalg', 'scipy.linalg', 'scipy.sparse.csgraph')\n"
        "print(' '.join(m for m in heavy if m in sys.modules))\n"
        "print(len(run.regular.family.bounds))\n"
        "print(len(log), all(e['ok'] for e in log))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    heavy, components, checked = proc.stdout.split("\n")[:3]
    assert heavy == ""
    assert int(components) > 1  # the component screen ran
    assert checked == "16 True"  # every b in {+-1}^4
