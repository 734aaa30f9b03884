from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import count_edges_by_scan
import kikuchi.graphs as graphs
from kikuchi.graphs import (
    ParityObstruction,
    SpaceComponent,
    VertexSpace,
    assemble_basic,
    assemble_bipartite,
    assemble_regular_cs,
    build_basic_even,
    build_bipartite,
    build_naive_odd,
    build_regular_cs,
    closed_form_D,
    cs_pair_labels,
    lift_assignment,
    matvec,
    quadratic_form,
    reverify_edges,
)
from kikuchi.instances import (
    InfeasibleSize,
    XorInstance,
    eval_phi,
    eval_psi_bipartite,
    generate_random_bipartite_instance,
    generate_random_matching_instance,
)
from kikuchi.refute import eval_full_pairs
from kikuchi.setops import subset_rank


def test_basic_even_examples():
    edges = build_basic_even((0, 1), 4, 1)
    assert edges.dtype == np.int64 and edges.shape == (2, 2)
    assert sorted(edges.tolist()) == [[0, 1], [1, 0]]
    assert len(edges) == closed_form_D("basic_even", 4, 1, 2) == 2
    assert len(build_basic_even((0, 1, 2, 3), 8, 2)) == 6
    with pytest.raises(ParityObstruction):
        build_basic_even((0, 1, 2), 6, 2)


def test_naive_odd_examples():
    edges = build_naive_odd((0, 1, 2), 4, 1)
    assert len(edges) == 3 == closed_form_D("naive_odd", 4, 1, 3)
    with pytest.raises(ParityObstruction):
        build_naive_odd((0, 1), 4, 1)


def test_naive_odd_intersection_sizes():
    n, ell, c = 7, 2, (0, 1, 2)
    space_l = VertexSpace((SpaceComponent("main", n, ell),))
    space_r = VertexSpace((SpaceComponent("main", n, ell + 1),))
    for l, r in build_naive_odd(c, n, ell):
        (s,) = space_l.unrank(l)
        (t,) = space_r.unrank(r)
        assert len(set(s) & set(c)) == 1 and len(set(t) & set(c)) == 2


def test_regular_cs_example_and_symmetry():
    edges = build_regular_cs((0, 1), (2, 3), 6, 2)
    assert len(edges) == 64 == closed_form_D("regular_cs", 6, 2, 3)
    es = set(map(tuple, edges.tolist()))
    assert {(r, l) for l, r in es} == es  # closed under endpoint swap
    assert all(l != r for l, r in es)  # no self-loops


def test_regular_cs_overlapping_constraints():
    # C1 = C2 still enumerates per the symmetric-difference predicate
    edges = build_regular_cs((0, 1), (0, 1), 6, 2)
    assert len(edges) == closed_form_D("regular_cs", 6, 2, 3)


def test_bipartite_example():
    edges = build_bipartite((0,), 0, 6, 2, 5, 2)
    assert len(edges) == 30 == closed_form_D("bipartite", 6, 2, 3, 2, 5)


@pytest.mark.parametrize("p_size", range(1, 9))
def test_bipartite_label_side_is_the_one_sided_enumerator(p_size):
    # build_bipartite's label side (S2, T2 = S2 u {p}), listed directly
    for ell in range(5):
        for p in range(p_size):
            others = [u for u in range(p_size) if u != p]
            want = [[subset_rank(s2, ell), subset_rank(tuple(sorted(s2 + (p,))), ell + 1)]
                    for s2 in combinations(others, ell)]
            edges = graphs._one_sided_edges((p,), p_size, ell, 0, ell + 1)
            assert edges.shape == (len(want), 2) and edges.tolist() == want


def test_bipartite_label_membership():
    n, ell, ps, s = 6, 2, 4, 2
    p = 1
    left_space = VertexSpace(
        (SpaceComponent("main", n, ell), SpaceComponent("labels", ps, ell))
    )
    right_space = VertexSpace(
        (SpaceComponent("main", n, ell + 1 - s), SpaceComponent("labels", ps, ell + 1))
    )
    for l, r in build_bipartite((0,), p, n, ell, ps, s):
        s1, s2 = left_space.unrank(l)
        t1, t2 = right_space.unrank(r)
        assert p not in s2 and p in t2
        assert set(t2) - set(s2) == {p}


def test_bipartite_q5_s3_degenerate_t1():
    # |T1| = ell+1-s = 0 forces S1 to contain C entirely
    n, ell, ps, s = 8, 2, 5, 3
    c = (0, 1)  # q - s = 2 with q = 5
    edges = build_bipartite(c, 0, n, ell, ps, s)
    assert len(edges) == closed_form_D("bipartite", n, ell, 5, 3, ps)
    left_space = VertexSpace(
        (SpaceComponent("main", n, ell), SpaceComponent("labels", ps, ell))
    )
    for l, _ in edges:
        s1, _ = left_space.unrank(l)
        assert set(c) <= set(s1)


@pytest.mark.parametrize("trial", range(40))
def test_counts_against_independent_scan(trial, rng):
    rng = np.random.default_rng(1000 + trial)
    variant = ["basic_even", "naive_odd", "regular_cs", "bipartite"][trial % 4]
    n = int(rng.integers(6, 13))
    ell = int(rng.integers(1, 4))
    if variant == "basic_even":
        cq = int(rng.choice([2, 4]))
        c = sorted(rng.choice(n, size=cq, replace=False).tolist())
        edges = build_basic_even(c, n, ell)
        assert len(edges) == count_edges_by_scan(n, ell, c, ell)
        assert len(edges) == closed_form_D("basic_even", n, ell, cq)
    elif variant == "naive_odd":
        cq = int(rng.choice([3, 5]))
        c = sorted(rng.choice(n, size=cq, replace=False).tolist())
        edges = build_naive_odd(c, n, ell)
        assert len(edges) == count_edges_by_scan(n, ell, c, ell + 1)
        assert len(edges) == closed_form_D("naive_odd", n, ell, cq)
    elif variant == "regular_cs":
        q = int(rng.choice([3, 5]))
        c1 = sorted(rng.choice(n, size=q - 1, replace=False).tolist())
        c2 = sorted(rng.choice(n, size=q - 1, replace=False).tolist())
        edges = build_regular_cs(c1, c2, n, ell)
        expect = count_edges_by_scan(n, ell, c1, ell) * count_edges_by_scan(
            n, ell, c2, ell
        )
        assert len(edges) == expect == closed_form_D("regular_cs", n, ell, q)
    else:
        q = int(rng.choice([3, 5]))
        s = int(rng.integers(2, (q + 1) // 2 + 1))
        ps = int(rng.integers(max(2, ell + 1), 8))
        p = int(rng.integers(0, ps))
        c = sorted(rng.choice(n, size=q - s, replace=False).tolist())
        edges = build_bipartite(c, p, n, ell, ps, s)
        if ell + 1 - s < 0:
            assert edges.shape == (0, 2)
            return
        cnt1 = count_edges_by_scan(n, ell, c, ell + 1 - s)
        cnt2 = sum(
            1 for sub in combinations(range(ps), ell) if p not in sub
        )
        assert len(edges) == cnt1 * cnt2
        assert len(edges) == closed_form_D("bipartite", n, ell, q, s, ps)


def test_assemble_and_reverify():
    inst = generate_random_matching_instance(10, 3, 3, 0.2, seed=2)
    g = assemble_regular_cs(inst, 1)
    assert g.verify_label_counts()
    assert reverify_edges(g)
    piece = generate_random_bipartite_instance(8, 3, 2, 2, edges_per=2,
                                               p_size=4, seed=3)
    gb = assemble_bipartite(piece, 1)
    assert gb.verify_label_counts()
    assert reverify_edges(gb)


def test_assemble_empty_instance():
    inst = XorInstance(n=6, k=2, q=3, delta=0.1, hypergraphs=[[], []])
    g = assemble_regular_cs(inst, 2)
    assert g.n_edges == 0 and g.n_labels == 0


def test_pair_graph_budget_is_the_exact_entry_count(monkeypatch):
    """The predicted size (labels times the closed-form D) is the built edge
    count, so a budget of exactly that many entries builds the graph and one
    fewer refuses before building anything."""
    inst = generate_random_matching_instance(10, 3, 4, 0.25, seed=3)
    g = assemble_regular_cs(inst, 2)
    assert g.n_edges > 0
    monkeypatch.setattr(graphs, "PAIR_GRAPH_ENTRIES", g.n_edges)
    assert assemble_regular_cs(inst, 2).n_edges == g.n_edges
    monkeypatch.setattr(graphs, "PAIR_GRAPH_ENTRIES", g.n_edges - 1)
    monkeypatch.setattr(graphs, "_regular_cs_edges", None)  # never reached
    with pytest.raises(ValueError, match=f"{g.n_edges:,} entries.*--ell"):
        assemble_regular_cs(inst, 2)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([3, 5]), st.integers(8, 20), st.integers(0, 24),
       st.floats(0.05, 0.35), st.integers(0, 2**32 - 1))
def test_pair_label_count_is_the_sum_over_vertex_degrees(q, n, k, delta, seed):
    """One label per ordered pair of distinct constraints through a vertex u:
    sum_u d_u (d_u - 1), d_u the number of constraints holding u."""
    inst = generate_random_matching_instance(n, q, k, min(delta, 1 / q), seed)
    degree = np.zeros(n, dtype=np.int64)
    for h in inst.hypergraphs:
        for e in h:
            degree[list(e)] += 1
    labels = cs_pair_labels(inst)
    assert len(labels) == int((degree * (degree - 1)).sum())
    assert len(set(labels)) == len(labels)


def test_naive_odd_assemble_quadratic_form(rng):
    inst = generate_random_matching_instance(9, 3, 2, 0.2, seed=4)
    g = assemble_basic(inst, 2)
    assert g.variant == "naive_odd"
    for _ in range(20):
        b = (1 - 2 * rng.integers(0, 2, size=2)).tolist()
        x = (1 - 2 * rng.integers(0, 2, size=9)).tolist()
        total, per_label = quadratic_form(g, b, x)
        assert total == g.D * eval_phi(inst, b, x)
        for j, (i, e) in enumerate(g.labels):
            mono = b[i] * int(np.prod([x[v] for v in e]))
            assert per_label[j] == g.D * mono


def test_basic_even_quadratic_form(rng):
    inst = XorInstance(n=8, k=2, q=4, delta=0.125,
                       hypergraphs=[[[0, 1, 2, 3]], [[2, 3, 4, 5]]])
    g = assemble_basic(inst, 2)
    assert g.variant == "basic_even"
    for _ in range(10):
        b = (1 - 2 * rng.integers(0, 2, size=2)).tolist()
        x = (1 - 2 * rng.integers(0, 2, size=8)).tolist()
        total, _ = quadratic_form(g, b, x)
        assert total == g.D * eval_phi(inst, b, x)


def test_regular_cs_quadratic_form_vs_pair_polynomial(rng):
    inst = generate_random_matching_instance(8, 3, 3, 0.25, seed=6)
    g = assemble_regular_cs(inst, 1)
    for _ in range(30):
        b = (1 - 2 * rng.integers(0, 2, size=3)).tolist()
        x = (1 - 2 * rng.integers(0, 2, size=8)).tolist()
        total, per_label = quadratic_form(g, b, x)
        assert total == g.D * eval_full_pairs(inst, b, x)
        for j, (i, jj, u, c1, c2) in enumerate(g.labels):
            mono = b[i] * b[jj]
            for v in c1:
                mono *= x[v]
            for v in c2:
                mono *= x[v]
            assert per_label[j] == g.D * mono


def test_bipartite_quadratic_form(rng):
    piece = generate_random_bipartite_instance(7, 3, 2, 2, edges_per=2,
                                               p_size=5, seed=8)
    g = assemble_bipartite(piece, 2)
    for _ in range(20):
        b = (1 - 2 * rng.integers(0, 2, size=2)).tolist()
        x = (1 - 2 * rng.integers(0, 2, size=7)).tolist()
        y = (1 - 2 * rng.integers(0, 2, size=5)).tolist()
        total, _ = quadratic_form(g, b, x, y)
        assert total == g.D * eval_psi_bipartite(piece, b, x, y)


def test_lift_assignment():
    space = VertexSpace(
        (SpaceComponent("main", 4, 1), SpaceComponent("main", 4, 1))
    )
    assert lift_assignment(space, ((0,), (1,)), [-1, -1, 1, 1]) == 1
    assert lift_assignment(space, ((0,), (2,)), [-1, -1, 1, 1]) == -1
    x = [1] * 4
    assert lift_assignment(space, ((2,), (3,)), x) == 1


def test_lift_vector_square_is_one(rng):
    space = VertexSpace(
        (SpaceComponent("main", 6, 2), SpaceComponent("labels", 4, 1))
    )
    x = (1 - 2 * rng.integers(0, 2, size=6)).tolist()
    y = (1 - 2 * rng.integers(0, 2, size=4)).tolist()
    lv = space.lift_vector(x, y)
    assert len(lv) == comb(6, 2) * 4
    assert (lv.astype(int) ** 2 == 1).all()


def test_matvec_against_dense(rng):
    inst = generate_random_matching_instance(8, 3, 2, 0.25, seed=9)
    g = assemble_regular_cs(inst, 1)
    signs = g.signs_for([1, -1])
    dense = g.to_dense(signs)
    v = rng.standard_normal(g.shape[1])
    assert np.allclose(matvec(g, signs, v, side="right"), dense @ v)
    u = rng.standard_normal(g.shape[0])
    assert np.allclose(matvec(g, signs, u, side="left"), dense.T @ u)
    # linearity
    w = rng.standard_normal(g.shape[1])
    assert np.allclose(
        matvec(g, signs, v + w, side="right"),
        matvec(g, signs, v, side="right") + matvec(g, signs, w, side="right"),
    )


def test_matvec_indicator_recovers_column(rng):
    inst = generate_random_matching_instance(8, 3, 2, 0.25, seed=10)
    g = assemble_regular_cs(inst, 1)
    signs = g.signs_for([1, 1])
    dense = g.to_dense(signs)
    j = int(rng.integers(0, g.shape[1]))
    e = np.zeros(g.shape[1])
    e[j] = 1.0
    assert np.allclose(matvec(g, signs, e, side="right"), dense[:, j])


def test_to_csr_matches_dense():
    inst = generate_random_matching_instance(8, 3, 2, 0.25, seed=12)
    g = assemble_regular_cs(inst, 1)
    signs = g.signs_for([1, -1])
    assert np.allclose(g.to_csr(signs).toarray(), g.to_dense(signs))


def test_space_cardinality_matches_enumeration():
    space = VertexSpace(
        (SpaceComponent("main", 9, 3), SpaceComponent("labels", 5, 2))
    )
    assert space.cardinality == comb(9, 3) * comb(5, 2)
    seen = set()
    for s1 in combinations(range(9), 3):
        for s2 in combinations(range(5), 2):
            seen.add(space.rank((s1, s2)))
    assert seen == set(range(space.cardinality))


def _nested_product(ones, twos, card_l2, card_r2):
    """The product of two per-component edge lists, by nested loops."""
    return [[s1 * card_l2 + s2, t1 * card_r2 + t2]
            for s1, t1 in ones for s2, t2 in twos]


def _nested_graph_arrays(per_label):
    """(left, right, edge label, D) of per-label edge lists, entry by entry."""
    sizes = [len(e) for e in per_label]
    left = np.fromiter((l for e in per_label for l, _ in e), np.int64, sum(sizes))
    right = np.fromiter((r for e in per_label for _, r in e), np.int64, sum(sizes))
    counts = set(sizes)
    return (left, right, np.repeat(np.arange(len(sizes)), sizes),
            counts.pop() if counts else None)


def _assert_same_graph(g, per_label):
    left, right, label, D = _nested_graph_arrays(per_label)
    assert g.left.dtype == g.right.dtype == np.int64
    assert g.left.tolist() == left.tolist()
    assert g.right.tolist() == right.tolist()
    assert g.edge_label.tolist() == label.tolist()
    assert g.D == D


def _regular_cases():
    for n in range(4, 9):
        for q in (3, 5):
            for seed in range(2):
                try:
                    yield n, generate_random_matching_instance(n, q, 3, 0.2, seed=seed)
                except InfeasibleSize:
                    pass
    yield 6, XorInstance(n=6, k=2, q=3, delta=0.1, hypergraphs=[[], []])


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_regular_cs_arrays_match_nested_enumeration(ell):
    # every label in order, a q=5 label with no edge at ell=1, zero labels
    seen_d = set()
    for n, inst in _regular_cases():
        card = comb(n, ell)
        per_label = []
        for (_, _, _, c1, c2) in cs_pair_labels(inst):
            ones = graphs._one_sided_edges(c1, n, ell, len(c1) // 2, ell).tolist()
            twos = graphs._one_sided_edges(c2, n, ell, len(c2) // 2, ell).tolist()
            per_label.append(_nested_product(ones, twos, card, card))
            assert build_regular_cs(c1, c2, n, ell).tolist() == per_label[-1]
        g = assemble_regular_cs(inst, ell)
        _assert_same_graph(g, per_label)
        seen_d.add(g.D)
    assert None in seen_d and (ell > 1 or 0 in seen_d)


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_bipartite_arrays_match_nested_enumeration(ell):
    # every feasible s for q = 3 and 5; labels with no edge where l + 1 < s
    # or the registry is too small
    seen_d, seen_s = set(), set()
    for n in range(5, 9):
        for q in (3, 5):
            for s in range(2, (q + 1) // 2 + 1):
                for p_size in (2, 4):
                    try:
                        piece = generate_random_bipartite_instance(
                            n, q, s, 2, edges_per=2, p_size=p_size, seed=n + s)
                    except InfeasibleSize:
                        continue
                    seen_s.add(s)
                    per_label = []
                    for h in piece.hypergraphs:
                        for c, p in h:
                            ones = graphs._one_sided_edges(
                                c, n, ell, (len(c) + s - 1) // 2, ell + 1 - s).tolist()
                            twos = graphs._one_sided_edges(
                                (p,), p_size, ell, 0, ell + 1).tolist()
                            per_label.append(_nested_product(
                                ones, twos, comb(p_size, ell), comb(p_size, ell + 1)))
                            assert (build_bipartite(c, p, n, ell, p_size, s).tolist()
                                    == per_label[-1])
                    g = assemble_bipartite(piece, ell)
                    _assert_same_graph(g, per_label)
                    seen_d.add(g.D)
    assert seen_s == {2, 3}
    assert 0 in seen_d and max(seen_d) > 0
