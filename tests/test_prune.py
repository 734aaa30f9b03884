import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import group_coo_matrices
from kikuchi.graphs import (
    KikuchiGraph,
    SpaceComponent,
    VertexSpace,
    assemble_bipartite,
    assemble_regular_cs,
)
from kikuchi.instances import (
    BipartiteXorInstance,
    XorInstance,
    generate_random_bipartite_instance,
)
from kikuchi.prune import (
    PruningError,
    degree_profile,
    prune,
    target_degrees,
    verify_pruned,
)


def cs_toy():
    """q=3, n=6, delta*n=2, k=4 with a regular_cs graph at ell=2."""
    hgs = [
        [[0, 1, 2], [3, 4, 5]],
        [[0, 2, 4], [1, 3, 5]],
        [[0, 1, 3], [2, 4, 5]],
        [[0, 4, 5], [1, 2, 3]],
    ]
    inst = XorInstance(n=6, k=4, q=3, delta=1 / 3, hypergraphs=hgs)
    return inst, assemble_regular_cs(inst, 2)


def test_target_degree_example():
    inst, g = cs_toy()
    assert g.D == 64 and g.shape == (225, 225)
    tg = target_degrees(g, delta_n=2, k=4)
    assert tg["d"] == Fraction(512, 225)
    # delta*n*k*D = N*d by construction
    assert 2 * 4 * 64 == 225 * tg["d"]


def test_target_degree_bipartite_counting():
    piece = generate_random_bipartite_instance(6, 3, 2, 2, edges_per=2,
                                               p_size=5, seed=0)
    g = assemble_bipartite(piece, 2)
    tg = target_degrees(g, delta_n=2, k=2)
    assert tg["d_left"] == Fraction(2 * g.D, g.shape[0])
    assert tg["d_right"] == Fraction(2 * g.D, g.shape[1])
    # average group degree = (group edges)/N is below the delta*n cap
    prof = degree_profile(g)
    for gidx, cnt in enumerate(prof.group_edge_counts):
        assert Fraction(cnt, g.shape[0]) <= tg["d_left"]


def test_degree_profile_sums():
    _, g = cs_toy()
    prof = degree_profile(g)
    for gi in range(4):
        assert sum(prof.left[gi].values()) == prof.group_edge_counts[gi]
        assert sum(prof.right[gi].values()) == prof.group_edge_counts[gi]


def test_prune_contract_and_symmetry():
    inst, g = cs_toy()
    tg = target_degrees(g, 2, 4)
    pr = prune(g, 8, tg["d"], tg["d"])
    rep = verify_pruned(pr)
    assert rep["ok"], rep["violations"]
    counts = np.bincount(pr.edge_label, minlength=g.n_labels)
    assert (counts == pr.D_prime).all()
    assert pr.report["D"] == 64


def test_single_constraint_group_nothing_pruned():
    piece = BipartiteXorInstance(
        n=6, k=1, q=3, s=2, registry=[(0, 1), (2, 3), (4, 5)],
        hypergraphs=[[((2,), 0)]],
    )
    g = assemble_bipartite(piece, 1)
    pr = prune(g, 8, Fraction(1), Fraction(1))  # Gamma*d >= 1
    assert pr.D_prime == g.D
    assert pr.n_edges == g.n_edges


def test_adversarial_heavy_vertex():
    # two constraints with singleton left sets; S1 = {0, 1} meets both labels
    piece = BipartiteXorInstance(
        n=4, k=1, q=3, s=2, registry=[(0, 1), (2, 3), (0, 2), (1, 3)],
        hypergraphs=[[((0,), 0), ((1,), 1)]],
    )
    g = assemble_bipartite(piece, 2)
    tg = target_degrees(g, 2, 1)
    # Gamma * d_left = 1: degree-1 vertices survive, collision vertices go
    pr = prune(g, 2, tg["d_left"], tg["d_right"])
    prof = degree_profile(g)
    heavy = [v for v, c in prof.left[0].items() if c > 2 * tg["d_left"]]
    assert heavy  # the collision vertices exist
    assert pr.D_prime < g.D
    assert verify_pruned(pr)["ok"]


def _non_dyadic_graph():
    """13 labels of two edges each, (v_j, j) and (4 + j, j): left vertex 0
    has degree 6, vertex 1 degree 7, every other endpoint degree <= 2."""
    heavy_of = [0] * 6 + [1] * 7
    left = [v for j, v in enumerate(heavy_of) for v in (v, 4 + j)]
    right = [j for j in range(13) for _ in range(2)]
    space = VertexSpace((SpaceComponent("main", 20, 1),))
    return KikuchiGraph(
        variant="naive_odd", left_space=space, right_space=space,
        left=np.array(left, dtype=np.int64), right=np.array(right, dtype=np.int64),
        edge_label=np.repeat(np.arange(13, dtype=np.int32), 2),
        labels=list(range(13)), n_groups=1,
        label_sign_factors=[(0,)] * 13, D=2, symmetric=False,
    )


def test_heavy_test_exact_at_non_dyadic_gamma():
    """gamma = 0.7 is stored just below 7/10, so at d = 10 the exact cap is
    just below 7 although 0.7 * 10 == 7.0 in floating point: a left vertex
    of degree 6, the cap's floor, stays and one of degree 7 is heavy."""
    gamma, d = 0.7, Fraction(10)
    assert math.floor(Fraction(gamma) * d) == 6 and gamma * 10 == 7.0
    g = _non_dyadic_graph()
    pr = prune(g, gamma, d, d)
    assert pr.report["heavy_left"] == 1 and pr.report["heavy_right"] == 0
    assert pr.report["per_group"] == [{"group": 0, "heavy_left": 1, "heavy_right": 0}]
    assert 1 not in pr.left.tolist()
    assert pr.left.tolist().count(0) == 6
    assert pr.D_prime == 1
    assert verify_pruned(pr)["ok"]


@pytest.mark.parametrize("gamma,scale", [
    (0.1, 16), (0.1, 30), (0.1, 40), (0.7, 3), (0.7, 5), (1 / 3, 8), (1 / 3, 10),
    (2.5, 1), (8.0, Fraction(1, 2)),
])
def test_heavy_counts_match_rational_reference(gamma, scale):
    """Per group, the heavy count is the number of left degrees strictly
    above the exact rational cap Fraction(gamma) * d."""
    inst, g = cs_toy()
    d = target_degrees(g, 2, 4)["d"] * scale
    pr = prune(g, gamma, d, d)
    cap = Fraction(gamma) * d
    want = [sum(Fraction(c) > cap for c in degs.values())
            for degs in degree_profile(g).left]
    assert sum(want) > 0
    assert [e["heavy_left"] for e in pr.report["per_group"]] == want
    assert pr.report["heavy_left"] == pr.report["heavy_right"] == sum(want)
    assert verify_pruned(pr)["ok"]


def test_gamma_monotonicity_of_D_prime():
    inst, g = cs_toy()
    tg = target_degrees(g, 2, 4)
    got = []
    for gamma in (1, 2, 4, 8, 16):
        try:
            got.append(prune(g, gamma, tg["d"], tg["d"]).D_prime)
        except PruningError:
            got.append(0)
    assert got == sorted(got)


def test_prune_all_heavy_raises():
    inst, g = cs_toy()
    with pytest.raises(PruningError):
        prune(g, 1, Fraction(1, 10**6), Fraction(1, 10**6))


def test_prune_graph_without_labels_raises():
    """A graph with no label keeps no edge: the same PruningError as any
    other, with a message that reads the empty survivor counts."""
    inst = XorInstance(n=6, k=2, q=3, delta=0.1, hypergraphs=[[], []])
    g = assemble_regular_cs(inst, 2)
    assert g.n_labels == 0
    with pytest.raises(PruningError, match=r"survivor counts 0\.\.0"):
        prune(g, 8, Fraction(1), Fraction(1))


def test_pruned_group_matrices_are_subsets():
    inst, g = cs_toy()
    tg = target_degrees(g, 2, 4)
    pr = prune(g, 8, tg["d"], tg["d"])
    full = g.to_csr(None)
    for m in group_coo_matrices(pr):
        diff = (full - m).toarray()
        assert (diff >= -1e-12).all()  # never more multiplicity than parent


def _per_group_reference(graph, gamma, d_left, d_right):
    """(kept edge indices, heavy counts per group, survivors trimmed) by one
    degree count per group and side and one slice per label."""
    limit_l = math.floor(Fraction(gamma) * d_left)
    limit_r = math.floor(Fraction(gamma) * d_right)
    keep_mask = np.ones(graph.n_edges, dtype=bool)
    per_group = []
    for g in range(graph.n_groups):
        gmask = graph.label_group[graph.edge_label] == g
        lv, lc = np.unique(graph.left[gmask], return_counts=True)
        heavy_left = lv[lc > limit_l]
        if graph.symmetric:
            heavy_right = heavy_left
        else:
            rv, rc = np.unique(graph.right[gmask], return_counts=True)
            heavy_right = rv[rc > limit_r]
        per_group.append({"group": g, "heavy_left": len(heavy_left),
                          "heavy_right": len(heavy_right)})
        keep_mask[gmask & np.isin(graph.left, heavy_left)] = False
        keep_mask[gmask & np.isin(graph.right, heavy_right)] = False
    surviving = np.flatnonzero(keep_mask)
    D_prime = np.bincount(graph.edge_label[surviving], minlength=graph.n_labels).min()
    lab = graph.edge_label[surviving]
    if graph.symmetric:
        lo = np.minimum(graph.left[surviving], graph.right[surviving])
        hi = np.maximum(graph.left[surviving], graph.right[surviving])
        order = np.lexsort((hi, lo, lab))
    else:
        order = np.lexsort((graph.right[surviving], graph.left[surviving], lab))
    bounds = np.searchsorted(lab[order], np.arange(graph.n_labels + 1))
    keep = np.sort(np.concatenate([surviving[order][bounds[j]:bounds[j] + D_prime]
                                   for j in range(graph.n_labels)]))
    return keep, per_group, len(surviving) - len(keep)


def _reference_cases():
    _, cs = cs_toy()
    d = target_degrees(cs, 2, 4)["d"]
    yield cs, 1.5, d, d
    yield cs, 0.7, d * 5, d * 5
    piece = generate_random_bipartite_instance(9, 3, 2, 4, edges_per=3, p_size=6, seed=0)
    bip = assemble_bipartite(piece, 2)
    tg = target_degrees(bip, 3, 4)
    for scale_right in (1, 2, 4):
        yield bip, 1.0, tg["d_left"] * 4, tg["d_right"] * scale_right
    # a heavy vertex leaves labels of one and two edges; D' = 1 trims
    yield _non_dyadic_graph(), 0.7, Fraction(10), Fraction(10)
    # a group that holds no label
    empty = XorInstance(n=6, k=3, q=3, delta=1 / 3,
                        hypergraphs=[[[0, 1, 2], [3, 4, 5]], [], [[0, 2, 4], [1, 3, 5]]])
    g = assemble_regular_cs(empty, 2)
    yield g, 8.0, target_degrees(g, 2, 3)["d"], target_degrees(g, 2, 3)["d"]


@pytest.mark.parametrize("case", range(7))
def test_prune_matches_per_group_reference(case):
    graph, gamma, d_left, d_right = list(_reference_cases())[case]
    keep, per_group, _ = _per_group_reference(graph, gamma, d_left, d_right)
    pr = prune(graph, gamma, d_left, d_right)
    for name in ("left", "right", "edge_label"):
        assert getattr(pr, name).tolist() == getattr(graph, name)[keep].tolist()
    assert pr.report["per_group"] == per_group
    assert pr.report["heavy_left"] == sum(e["heavy_left"] for e in per_group)
    assert pr.report["heavy_right"] == sum(e["heavy_right"] for e in per_group)
    assert all(type(v) is int for e in pr.report["per_group"] for v in e.values()
               if not isinstance(v, str))


def test_prune_reference_cases_prune_something():
    cases = list(_reference_cases())
    assert any(g.symmetric for g, *_ in cases) and not all(g.symmetric for g, *_ in cases)
    heavy = [prune(*c).report for c in cases]
    assert sum(r["heavy_left"] > 0 for r in heavy) >= 3
    assert any(r["heavy_right"] > 0 for r, (g, *_) in zip(heavy, cases) if not g.symmetric)
    assert any(e["heavy_left"] == 0 for e in heavy[-1]["per_group"])
    # labels above D' are trimmed on both kinds of graph
    trimmed = {g.symmetric for g, *rest in cases if _per_group_reference(g, *rest)[2]}
    assert trimmed == {True, False}
