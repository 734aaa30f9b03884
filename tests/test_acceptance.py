"""Acceptance suite: structural identities, oracle soundness, and
concentration checks at desk scale.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see
them); the asserts carry the details.  The whole suite is seeded and
deterministic.
"""

import json
from itertools import combinations

import numpy as np
import pytest

from conftest import count_edges_by_scan
from kikuchi.decompose import compute_thresholds, decompose, recombination_check, \
    verify_decomposition
from kikuchi.graphs import (
    assemble_basic,
    assemble_bipartite,
    assemble_regular_cs,
    build_basic_even,
    build_bipartite,
    build_naive_odd,
    build_regular_cs,
    closed_form_D,
    quadratic_form,
)
from kikuchi.instances import (
    XorInstance,
    eval_phi,
    eval_psi_bipartite,
    generate_planted_linear_instance,
    generate_random_bipartite_instance,
    generate_random_matching_instance,
    val_for_all_signs,
)
from kikuchi.prune import analytic_degree_shapes, conditional_degree_moment, \
    verify_pruned
from kikuchi.refute import Partition, eval_f, eval_full_pairs, refute_full
from kikuchi.spectral import (
    estimate_expected_norm,
    khintchine_bound,
    khintchine_sigma,
    spectral_norm,
)


def report(num, name, ok, detail):
    print(f"\nACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


# ---------------------------------------------------------------------------
# shared pipeline runs (criteria 4, 6, 7, 10)

C4_PARAMS = []
_rng = np.random.default_rng(20240)
for i in range(50):
    n = int(_rng.integers(10, 15))
    k = int(_rng.integers(3, 7))
    m = int(_rng.choice([2, 3]))
    while m * 3 > n:
        m -= 1
    C4_PARAMS.append(dict(n=n, q=3, k=k, delta=(m + 0.5) / n, ell=1, seed=i))
for i in range(10):
    n = int(_rng.integers(11, 13))
    k = int(_rng.integers(3, 5))
    m = int(_rng.choice([1, 2]))
    C4_PARAMS.append(dict(n=n, q=5, k=k, delta=(m + 0.5) / n, ell=2, seed=100 + i))

C6_PARAMS = []
for i in range(20):
    n = int(_rng.integers(12, 15))
    k = int(_rng.choice([3, 4]))
    C6_PARAMS.append(dict(n=n, q=3, k=k, delta=2.5 / n, ell=1, seed=i))


@pytest.fixture(scope="module")
def c4_runs():
    runs = []
    for p in C4_PARAMS:
        inst = generate_random_matching_instance(
            p["n"], p["q"], p["k"], p["delta"], seed=p["seed"]
        )
        run = refute_full(inst, epsilon=0.1, gamma=8.0, seed=p["seed"],
                          ell=p["ell"], n_partitions=2)
        runs.append((p, inst, run))
    return runs


@pytest.fixture(scope="module")
def c6_runs():
    runs = []
    for p in C6_PARAMS:
        inst, code = generate_planted_linear_instance(
            p["n"], p["q"], p["k"], p["delta"], seed=p["seed"]
        )
        run = refute_full(inst, epsilon=0.5, gamma=8.0, seed=p["seed"],
                          ell=p["ell"], n_partitions=2)
        runs.append((p, inst, code, run))
    return runs


# ---------------------------------------------------------------------------


def test_criterion_1_edge_counts():
    """Enumerated edge count equals the closed form for >= 500 constraints,
    big-integer equality.  Even-size sets for the balanced builder are the
    derived-pair sizes q-1 for q in {3,5,7}."""
    rng = np.random.default_rng(1)
    checked = 0
    bad = 0
    while checked < 520:
        variant = ("basic_even", "naive_odd", "regular_cs", "bipartite")[checked % 4]
        q = int(rng.choice([3, 5, 7]))
        n = int(rng.integers(max(q + 1, 8), 15))
        ell = int(rng.integers(1, 4))
        if variant == "basic_even":
            c = sorted(rng.choice(n, size=q - 1, replace=False).tolist())
            edges = build_basic_even(c, n, ell)
            want = closed_form_D("basic_even", n, ell, q - 1)
            scan = count_edges_by_scan(n, ell, c, ell)
        elif variant == "naive_odd":
            c = sorted(rng.choice(n, size=q, replace=False).tolist())
            edges = build_naive_odd(c, n, ell)
            want = closed_form_D("naive_odd", n, ell, q)
            scan = count_edges_by_scan(n, ell, c, ell + 1)
        elif variant == "regular_cs":
            c1 = sorted(rng.choice(n, size=q - 1, replace=False).tolist())
            c2 = sorted(rng.choice(n, size=q - 1, replace=False).tolist())
            edges = build_regular_cs(c1, c2, n, ell)
            want = closed_form_D("regular_cs", n, ell, q)
            scan = count_edges_by_scan(n, ell, c1, ell) * count_edges_by_scan(
                n, ell, c2, ell
            )
        else:
            s = int(rng.integers(2, (q + 1) // 2 + 1))
            p_size = int(rng.integers(2, 9))
            p = int(rng.integers(0, p_size))
            c = sorted(rng.choice(n, size=q - s, replace=False).tolist())
            edges = build_bipartite(c, p, n, ell, p_size, s)
            want = closed_form_D("bipartite", n, ell, q, s, p_size)
            scan = (
                0
                if ell + 1 - s < 0
                else count_edges_by_scan(n, ell, c, ell + 1 - s)
                * sum(1 for sub in combinations(range(p_size), ell) if p not in sub)
            )
        if not (len(edges) == want == scan):
            bad += 1
        checked += 1
    report(1, "edge-count-exactness", bad == 0, f"{checked} constraints, {bad} mismatches")
    assert bad == 0


def test_criterion_2_quadratic_forms():
    """Per-label form = D x monomial and total form = D x polynomial, exact
    integers, >= 100 random assignments per graph."""
    rng = np.random.default_rng(2)
    graphs = []

    inst3 = generate_random_matching_instance(10, 3, 4, 0.25, seed=3)
    part = Partition(left=(0, 1), right=(2, 3), seed=0)
    g = assemble_regular_cs(inst3, 1, list(part.left), list(part.right))
    graphs.append(("regular_cs", g, lambda b, x, y: eval_f(inst3, part, b, x), 4))

    gfull = assemble_regular_cs(inst3, 1)
    graphs.append(("regular_full", gfull,
                   lambda b, x, y: eval_full_pairs(inst3, b, x), 4))

    inst5 = generate_random_matching_instance(12, 5, 3, 0.15, seed=4)
    part5 = Partition(left=(0, 2), right=(1,), seed=0)
    g5 = assemble_regular_cs(inst5, 2, list(part5.left), list(part5.right))
    graphs.append(("regular_cs_q5", g5, lambda b, x, y: eval_f(inst5, part5, b, x), 3))

    for seed in (5, 6, 7):
        piece = generate_random_bipartite_instance(
            8, 3, 2, 3, edges_per=2, p_size=5, seed=seed
        )
        gb = assemble_bipartite(piece, 2)
        graphs.append(
            ("bipartite", gb,
             lambda b, x, y, piece=piece: eval_psi_bipartite(piece, b, x, y), 3)
        )
    piece5 = generate_random_bipartite_instance(10, 5, 3, 2, edges_per=2,
                                                p_size=6, seed=8)
    g5b = assemble_bipartite(piece5, 2)
    graphs.append(
        ("bipartite_q5", g5b,
         lambda b, x, y: eval_psi_bipartite(piece5, b, x, y), 2)
    )

    instn = generate_random_matching_instance(9, 3, 2, 0.2, seed=9)
    gn = assemble_basic(instn, 2)
    graphs.append(("naive_odd", gn, lambda b, x, y: eval_phi(instn, b, x), 2))
    inste = XorInstance(n=8, k=2, q=4, delta=0.125,
                        hypergraphs=[[[0, 1, 2, 3]], [[2, 3, 4, 5]]])
    ge = assemble_basic(inste, 2)
    graphs.append(("basic_even", ge, lambda b, x, y: eval_phi(inste, b, x), 2))

    violations = 0
    assignments = 0
    for name, g, poly, k in graphs:
        if g.n_labels == 0 or (g.D or 0) == 0:
            continue
        n_main = g.left_space.components[0].ground
        p_size = (
            g.left_space.components[1].ground
            if len(g.left_space.components) > 1
            and g.left_space.components[1].kind == "labels"
            else 0
        )
        for _ in range(100):
            b = (1 - 2 * rng.integers(0, 2, size=k)).tolist()
            x = (1 - 2 * rng.integers(0, 2, size=n_main)).tolist()
            y = (1 - 2 * rng.integers(0, 2, size=p_size)).tolist() if p_size else None
            total, per_label = quadratic_form(g, b, x, y)
            if total != g.D * poly(b, x, y):
                violations += 1
            signs = g.signs_for(b)
            for j, lab in enumerate(g.labels):
                mono = int(signs[j])
                if g.variant == "regular_cs":
                    _, _, _, c1, c2 = lab
                    for v in c1:
                        mono *= x[v]
                    for v in c2:
                        mono *= x[v]
                elif g.variant == "bipartite":
                    _, c, p = lab
                    for v in c:
                        mono *= x[v]
                    mono *= y[p]
                else:
                    _, c = lab
                    for v in c:
                        mono *= x[v]
                if per_label[j] != g.D * mono:
                    violations += 1
            assignments += 1
    report(2, "quadratic-form-identity", violations == 0,
           f"{len(graphs)} graphs x 100 assignments, {violations} violations")
    assert violations == 0


def test_criterion_3_decomposition():
    """All five decomposition properties, conservation, and the exact
    recombination identity on 200 random instances."""
    rng = np.random.default_rng(3)
    bad = []
    count = 0
    for i in range(200):
        q = (3, 5, 7)[i % 3]
        if q == 3:
            n, k, m = int(rng.integers(9, 15)), int(rng.integers(2, 7)), 2
        elif q == 5:
            n, k, m = int(rng.integers(10, 15)), int(rng.integers(2, 5)), 2
        else:
            n, k, m = 14, int(rng.integers(2, 5)), 1
        if m * q > n:
            m = 1
        inst = generate_random_matching_instance(n, q, k, (m + 0.5) / n, seed=i)
        thr = compute_thresholds(n, k, q, inst.measured_delta(),
                                 ell_override=int(rng.integers(1, 3)))
        dec = decompose(inst, thr)
        rep = verify_decomposition(dec)
        if not rep["ok"]:
            bad.append((i, rep["violations"][0]))
            continue
        for i_h in range(k):
            total = len(dec.leftover.hypergraphs[i_h]) + sum(
                len(p.hypergraphs[i_h]) for p in dec.pieces.values()
            )
            if total != len(inst.hypergraphs[i_h]):
                bad.append((i, "conservation"))
        for _ in range(100):
            b = (1 - 2 * rng.integers(0, 2, size=k)).tolist()
            x = (1 - 2 * rng.integers(0, 2, size=n)).tolist()
            if not recombination_check(dec, b, x):
                bad.append((i, "recombination"))
                break
        count += 1
    report(3, "decomposition-properties", not bad,
           f"200 instances, {len(bad)} violations")
    assert not bad, bad[:3]


def test_criterion_4_certificate_soundness(c4_runs):
    """Master test: realized combined bound >= brute-force val for every
    sign vector, exhaustively, on all 60 instances."""
    violations = []
    checked = 0
    for p, inst, run in c4_runs:
        log = run.soundness_check()
        checked += len(log)
        for e in log:
            if not e["ok"]:
                violations.append((p, e))
    report(4, "certificate-soundness", not violations,
           f"{len(c4_runs)} instances, {checked} sign vectors, "
           f"{len(violations)} violations")
    assert not violations, violations[:3]


def test_criterion_5_matrix_khintchine(c4_runs):
    """Empirical mean of |sum b_i B_i| (exhaustive signs) never exceeds
    sqrt(2 sigma^2 ln(d1+d2)) on 50 pruned-group families."""
    rng = np.random.default_rng(5)
    families = []
    # pipeline-produced pruned families (bipartite pieces and regular groups)
    for _, _, run in c4_runs:
        for s in sorted(run.pieces):
            ref = run.pieces[s]
            if ref.pruned is not None and ref.graph is not None:
                mats = [m for m in ref.pruned.group_matrices() if m.nnz]
                if len(mats) >= 2:
                    families.append((mats, ref.graph.shape))
        if len(families) >= 30:
            break
    reg_candidates = [run for _, _, run in c4_runs if run.regular.pruned is not None]
    for run in reg_candidates[: 50 - len(families) - 10]:
        mats = [m for m in run.regular.pruned.group_matrices() if m.nnz]
        if len(mats) >= 2:
            families.append((mats, run.regular.graph.shape))
    # synthetic sparse counting families round out the population
    import scipy.sparse as sp

    while len(families) < 50:
        k = int(rng.integers(2, 6))
        d1, d2 = int(rng.integers(10, 30)), int(rng.integers(10, 30))
        mats = []
        for _ in range(k):
            nnz = int(rng.integers(5, 40))
            mats.append(
                sp.coo_matrix(
                    (np.ones(nnz),
                     (rng.integers(0, d1, nnz), rng.integers(0, d2, nnz))),
                    shape=(d1, d2),
                ).tocsr()
            )
        families.append((mats, (d1, d2)))

    failures = 0
    for mats, (d1, d2) in families[:50]:
        sig = khintchine_sigma(mats)
        bound = khintchine_bound(sig["sigma_sq"], d1, d2)
        mean, _ = estimate_expected_norm(mats, seed=13)
        if mean > bound * (1 + 1e-9):
            failures += 1
    report(5, "matrix-khintchine", failures == 0,
           f"50 families, {failures} exceeded the bound")
    assert failures == 0


def test_criterion_6_planted_not_refuted(c6_runs):
    """Planted instances are fully satisfiable for every b and the verdict
    is never 'refuted'."""
    bad = []
    for p, inst, code, run in c6_runs:
        vals = val_for_all_signs(inst)
        if not (vals == inst.total_edges).all():
            bad.append((p, "value not maximal"))
        if run.certificate["verdict"] != "not refuted":
            bad.append((p, "verdict"))
    report(6, "planted-non-refutation", not bad,
           f"{len(c6_runs)} planted instances, {len(bad)} violations")
    assert not bad, bad


def test_criterion_7_pruning_contract(c4_runs, c6_runs):
    """On every pipeline run: B subset of A, equalized label counts, and the
    degree caps, exactly; D'/D is recorded, not asserted."""
    pruned_graphs = []
    for _, _, run in c4_runs:
        if run.regular.pruned is not None:
            pruned_graphs.append(run.regular.pruned)
        for ref in run.pieces.values():
            if ref.pruned is not None:
                pruned_graphs.append(ref.pruned)
    for _, _, _, run in c6_runs:
        if run.regular.pruned is not None:
            pruned_graphs.append(run.regular.pruned)
        for ref in run.pieces.values():
            if ref.pruned is not None:
                pruned_graphs.append(ref.pruned)
    violations = []
    ratios = []
    for pr in pruned_graphs:
        rep = verify_pruned(pr)
        if not rep["ok"]:
            violations.append(rep["violations"][0])
        counts = np.bincount(pr.edge_label, minlength=pr.parent.n_labels)
        if pr.parent.n_labels and not (counts == pr.D_prime).all():
            violations.append("label counts not equal to D'")
        ratios.append(pr.report["ratio"])
    half = sum(1 for r in ratios if r is not None and r >= 0.5)
    report(7, "pruning-contract", not violations,
           f"{len(pruned_graphs)} pruned graphs, {len(violations)} violations; "
           f"D'>=D/2 in {half}/{len(ratios)} (recorded, not asserted)")
    assert pruned_graphs, "no pipeline run produced a pruned graph"
    assert not violations, violations[:3]


def test_criterion_8_conditional_moments():
    """Measured conditional first moments stay within 32x the analytic
    shape on >= 95% of bipartite pieces chosen so the shapes exceed 1."""
    cases = []
    for seed in range(20):
        piece = generate_random_bipartite_instance(
            10, 3, 2, 2, edges_per=3, p_size=6, seed=seed
        )
        ell = 4
        g = assemble_bipartite(piece, ell)
        shapes = analytic_degree_shapes(
            "bipartite", 10, ell, 3, max(piece.edge_counts), piece.k,
            s=2, p_size=piece.p_size,
        )
        assert shapes["d_left"] >= 1 and shapes["d_right"] >= 1
        for side, key in (("left", "d_left"), ("right", "d_right")):
            for g_idx in range(piece.k):
                labels = [j for j in range(g.n_labels)
                          if g.label_group[j] == g_idx]
                if not labels:
                    continue
                mean, _ = conditional_degree_moment(g, g_idx, labels[0], side)
                cases.append((mean - 1.0) <= 32 * shapes[key])
    frac = sum(cases) / len(cases)
    report(8, "conditional-moment-shape", frac >= 0.95,
           f"{len(cases)} cases, {frac:.1%} within factor 32")
    assert frac >= 0.95


def test_criterion_9_spectral_norm_oracle():
    """Power iteration agrees with the independent LAPACK SVD oracle to
    relative 1e-7 on 100 random sparse matrices."""
    import scipy.sparse as sp

    rng = np.random.default_rng(9)
    worst = 0.0
    for t in range(100):
        m = int(rng.integers(10, 130))
        n = int(rng.integers(10, 130))
        nnz = int(rng.integers(5, min(10**4, m * n)))
        M = sp.coo_matrix(
            (rng.standard_normal(nnz),
             (rng.integers(0, m, nnz), rng.integers(0, n, nnz))),
            shape=(m, n),
        ).tocsr()
        got = spectral_norm(M, tol=1e-10, seed=t).value
        want = float(np.linalg.svd(M.toarray(), compute_uv=False)[0])
        if want > 0:
            worst = max(worst, abs(got - want) / want)
    report(9, "spectral-norm-oracle", worst <= 1e-7,
           f"100 matrices, worst relative error {worst:.2e}")
    assert worst <= 1e-7


def test_criterion_10_determinism(c4_runs):
    """Re-running the pipeline with fixed seeds reproduces certificates
    byte-identically (timestamps are outside the certificate)."""
    mismatches = 0
    for p, inst, run in c4_runs[:5] + c4_runs[-3:]:
        rerun = refute_full(inst, epsilon=0.1, gamma=8.0, seed=p["seed"],
                            ell=p["ell"], n_partitions=2)
        a = json.dumps(run.certificate, sort_keys=True, default=float)
        b = json.dumps(rerun.certificate, sort_keys=True, default=float)
        if a != b:
            mismatches += 1
    report(10, "determinism", mismatches == 0,
           f"8 pipelines re-run, {mismatches} byte-level mismatches")
    assert mismatches == 0
