"""One signed edge family: a pruned graph is a KikuchiGraph, and the matrices
SignedFamily hands to the norm solver and the group matrices behind sigma^2
are built from its edge triples alone."""

import numpy as np
import pytest
import scipy.sparse as sp

import kikuchi.refute as refute
from kikuchi.decompose import compute_thresholds, decompose
from kikuchi.graphs import (
    KikuchiGraph,
    assemble_basic,
    assemble_bipartite,
    assemble_regular_cs,
)
from kikuchi.instances import (
    XorInstance,
    generate_random_bipartite_instance,
    generate_random_matching_instance,
)
from kikuchi.prune import prune, target_degrees
from kikuchi.refute import Partition, SignedFamily


def _pruned(graph, delta_n, k):
    tg = target_degrees(graph, delta_n, k)
    return prune(graph, 8.0, tg["d_left"], tg["d_right"])


def _many_signs_pruned():
    """The pruned full pair graph of the random n=16, k=12, l=1 instance:
    several labels of one group share a (row, column) entry there."""
    inst = generate_random_matching_instance(16, 3, 12, 0.25, seed=1)
    thr = compute_thresholds(16, 12, 3, inst.measured_delta(), ell_override=1)
    left = decompose(inst, thr).leftover
    return _pruned(assemble_regular_cs(left, 1), max(left.edge_counts), left.k)


def _variants():
    even = XorInstance(n=8, k=2, q=4, delta=0.125,
                       hypergraphs=[[[0, 1, 2, 3]], [[2, 3, 4, 5]]])
    odd = generate_random_matching_instance(9, 3, 2, 0.2, seed=9)
    cs = generate_random_matching_instance(10, 3, 4, 0.2, seed=3)
    part = Partition(left=(0, 2), right=(1, 3), seed=0)
    piece = generate_random_bipartite_instance(8, 3, 2, 3, edges_per=2,
                                               p_size=5, seed=5)
    return {
        "basic_even": _pruned(assemble_basic(even, 2), 1, 2),
        "naive_odd": _pruned(assemble_basic(odd, 2), 2, 2),
        "regular_cs_full": _pruned(assemble_regular_cs(cs, 1), 2, 4),
        "regular_cs_partition": _pruned(
            assemble_regular_cs(cs, 1, list(part.left), list(part.right)), 2, 4),
        "bipartite": _pruned(assemble_bipartite(piece, 2), 2, 3),
        "many_signs_duplicates": _many_signs_pruned(),
    }


VARIANTS = _variants()


def _duplicate_entries(g) -> int:
    key = np.stack([g.label_group[g.edge_label], g.left, g.right], axis=1)
    return len(key) - len(np.unique(key, axis=0))


def _k(pg) -> int:
    """Length of the sign vectors the graph's labels index into."""
    return 1 + max(i for f in pg.label_sign_factors for i in f)


def _sign_vectors(k, count=6):
    rng = np.random.default_rng(k)
    return [np.ones(k, dtype=int)] + [
        1 - 2 * rng.integers(0, 2, size=k) for _ in range(count - 1)
    ]


def test_variants_cover_duplicates():
    assert {g.variant for g in VARIANTS.values()} == {
        "basic_even", "naive_odd", "regular_cs", "bipartite"}
    assert _duplicate_entries(VARIANTS["many_signs_duplicates"]) == 68


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_pruned_graph_is_a_kikuchi_graph(name):
    pg = VARIANTS[name]
    assert isinstance(pg, KikuchiGraph)
    assert pg.D == pg.D_prime > 0
    assert pg.verify_label_counts()
    assert np.array_equal(pg.left, pg.parent.left[pg.keep])
    assert np.array_equal(pg.right, pg.parent.right[pg.keep])
    assert np.array_equal(pg.edge_label, pg.parent.edge_label[pg.keep])


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_family_matrix_matches_dense(name, monkeypatch):
    pg = VARIANTS[name]
    seen = []
    solve = refute.spectral_norm

    def capture(A, **kw):
        seen.append(A)
        return solve(A, **kw)

    monkeypatch.setattr(refute, "spectral_norm", capture)
    fam = SignedFamily(pg)
    misses = 0
    for b in _sign_vectors(_k(pg)):
        seen.clear()
        fam.norm(b)
        if seen:  # a cache miss: the matrix the solver saw
            misses += 1
            assert np.array_equal(seen[0].toarray(), pg.to_dense(pg.signs_for(b)))
    assert misses >= 1


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_group_matrices_match_coo_reference(name):
    pg = VARIANTS[name]
    mats = pg.group_matrices()
    assert len(mats) == len(pg.group_ids)
    for g, m in enumerate(mats):
        sel = pg.label_group[pg.edge_label] == g
        ref = sp.csr_matrix(
            (np.ones(int(sel.sum())), (pg.left[sel], pg.right[sel])),
            shape=pg.shape,
        )  # COO input: duplicates are summed
        assert m.has_canonical_format
        assert np.array_equal(m.indptr, ref.indptr)
        assert np.array_equal(m.indices, ref.indices)
        assert np.array_equal(m.data, ref.data)


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_signs_for_matches_factor_products(name):
    pg = VARIANTS[name]
    for b in _sign_vectors(_k(pg)):
        expect = [int(np.prod([b[i] for i in f])) for f in pg.label_sign_factors]
        got = pg.signs_for(b)
        assert got.dtype == np.int8
        assert got.tolist() == expect


@pytest.mark.parametrize("bad", [0, 2])
@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_non_sign_entry_raises(name, bad):
    pg = VARIANTS[name]
    b = np.ones(_k(pg), dtype=int)
    b[pg.label_sign_factors[0][0]] = bad
    with pytest.raises(ValueError):
        pg.signs_for(b)
    with pytest.raises(ValueError):
        SignedFamily(pg).norm(b)


def test_signs_for_rejects_short_sign_vector():
    pg = VARIANTS["regular_cs_full"]
    with pytest.raises(IndexError):
        pg.signs_for(np.ones(_k(pg) - 1, dtype=int))
