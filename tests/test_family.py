"""One signed edge family: a pruned graph is a KikuchiGraph, and the matrices
SignedFamily hands to the norm solver and the group matrices behind sigma^2
are built from its edge triples alone."""

import numpy as np
import pytest
import scipy.sparse as sp

import kikuchi.refute as refute
import kikuchi.spectral as spectral
from kikuchi.decompose import compute_thresholds, decompose
from kikuchi.graphs import (
    KikuchiGraph,
    assemble_basic,
    assemble_bipartite,
    assemble_regular_cs,
    pair_partition,
)
from kikuchi.instances import (
    XorInstance,
    generate_random_bipartite_instance,
    generate_random_matching_instance,
)
from kikuchi.prune import prune, target_degrees
from kikuchi.refute import Partition, SignedFamily
from kikuchi.spectral import NormEstimate, sign_rows


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
            pair_partition(assemble_regular_cs(cs, 1), part.left, part.right), 2, 4),
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


def _capturing(monkeypatch, seen):
    """Record the full block matrix of every batched solve."""
    solve = refute.block_spectral_norms

    def capture(block, c, shape, **kw):
        seen.append(block(np.arange(c)))
        return solve(block, c, shape, **kw)

    monkeypatch.setattr(refute, "block_spectral_norms", capture)


def _counting(monkeypatch, solved):
    """Record the column count of every batched solve."""
    solve = refute.block_spectral_norms

    def counting(block, c, shape, **kw):
        solved.append(c)
        return solve(block, c, shape, **kw)

    monkeypatch.setattr(refute, "block_spectral_norms", counting)


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_family_matrix_matches_dense(name, monkeypatch):
    pg = VARIANTS[name]
    seen = []
    _capturing(monkeypatch, seen)
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
def test_block_diagonal_holds_each_signed_matrix(name, monkeypatch):
    # one block: its diagonal blocks are the signed matrices of the first
    # row of each +- class, in row order
    pg = VARIANTS[name]
    rows = np.array(_sign_vectors(_k(pg), count=12))
    seen = []
    _capturing(monkeypatch, seen)
    monkeypatch.setattr(refute, "BLOCK_ENTRIES", 1 << 30)
    SignedFamily(pg).norms(rows)
    firsts = {}
    for b in rows:
        s = pg.signs_for(b)
        firsts.setdefault((s * s[0]).tobytes(), b)
    (mat,) = seen
    nl, nr = pg.shape
    assert mat.shape == (len(firsts) * nl, len(firsts) * nr)
    dense = mat.toarray()
    for t, b in enumerate(firsts.values()):
        block = dense[t * nl:(t + 1) * nl, t * nr:(t + 1) * nr]
        assert np.array_equal(block, pg.to_dense(pg.signs_for(b)))
    off = dense.copy()
    for t in range(len(firsts)):
        off[t * nl:(t + 1) * nl, t * nr:(t + 1) * nr] = 0
    assert not off.any()


def _rows(pg, count=24):
    rng = np.random.default_rng(99)
    k = _k(pg)
    rows = 1 - 2 * rng.integers(0, 2, size=(count, k))
    rows[1] = -rows[0]  # a +- pair inside one block
    rows[5] = rows[2]  # a repeated row
    return rows


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_batched_norms_equal_fresh_single_solves(name, monkeypatch):
    pg = VARIANTS[name]
    rows = _rows(pg)
    fresh = [SignedFamily(pg).norm(b) for b in rows]
    n_classes = len({(s * s[0]).tobytes() for s in pg.signs_for(rows)})
    for per_block in (1, 3, len(rows)):
        monkeypatch.setattr(refute, "BLOCK_ENTRIES", per_block * pg.n_edges)
        for threads in (1, 2):
            got = SignedFamily(pg).norms(rows, threads=threads)
            assert got.tolist() == fresh  # bitwise
    assert n_classes < len(rows)


def test_graph_with_more_columns_than_rows_is_covered():
    assert any(pg.shape[1] > pg.shape[0] for pg in VARIANTS.values())


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_columns_solved_equal_sign_classes(name, monkeypatch):
    pg = VARIANTS[name]
    rows = _rows(pg)
    solved = []
    _counting(monkeypatch, solved)
    monkeypatch.setattr(refute, "BLOCK_ENTRIES", 3 * pg.n_edges)
    fam = SignedFamily(pg)
    fam.norms(rows)
    classes = {(s * s[0]).tobytes() for s in pg.signs_for(rows)}
    assert sum(solved) == len(classes)
    assert max(solved) <= 3
    fam.norms(rows[::-1])  # every class cached: no further solve
    fam.norm(-rows[0])
    assert sum(solved) == len(classes)


def test_regular_l2_exhaustive_rows_solve_once_per_class(monkeypatch):
    """The benchmark's n=20, k=6, l=2 pair graph: its 32 exhaustive rows
    fall into 16 +- classes, so 16 columns are solved, one per block."""
    inst = generate_random_matching_instance(20, 3, 6, 0.25, seed=1)
    thr = compute_thresholds(20, 6, 3, inst.measured_delta(), ell_override=2)
    left = decompose(inst, thr).leftover
    pg = _pruned(assemble_regular_cs(left, 2), max(left.edge_counts), left.k)
    solved = []
    _counting(monkeypatch, solved)
    rows = sign_rows(left.k, fix_first=True)
    SignedFamily(pg).norms(rows)
    assert len(rows) == 32
    assert pg.n_edges > refute.BLOCK_ENTRIES
    assert solved == [1] * 16


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


@pytest.mark.parametrize("bad", [0, 2, 0.5, 1.5, -1.5])
@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_non_sign_entry_raises(name, bad):
    pg = VARIANTS[name]
    b = np.ones(_k(pg), dtype=type(bad))
    b[pg.label_sign_factors[0][0]] = bad
    with pytest.raises(ValueError):
        pg.signs_for(b)
    with pytest.raises(ValueError):
        SignedFamily(pg).norm(b)


def test_signs_for_rejects_short_sign_vector():
    pg = VARIANTS["regular_cs_full"]
    with pytest.raises(IndexError):
        pg.signs_for(np.ones(_k(pg) - 1, dtype=int))


@pytest.mark.parametrize(
    "name", ["regular_cs_full", "regular_cs_partition", "bipartite"])
def test_signed_family_norm_brackets_svd(name):
    # the certificate-side norm sits on or just above the top singular value
    pg = VARIANTS[name]
    fam = SignedFamily(pg)
    for b in _sign_vectors(_k(pg)):
        dense = pg.to_dense(pg.signs_for(b))
        want = float(np.linalg.svd(dense, compute_uv=False)[0])
        got = fam.norm(b)
        assert want * (1 - 1e-12) <= got <= want * (1 + 1e-8)


def test_signed_family_norm_inflates_by_residual(monkeypatch):
    # an unconverged solve loosens the certificate instead of undercutting it
    est = NormEstimate(2.0, "lanczos", 2, 0.25, 1e-9, False)
    monkeypatch.setattr(refute, "block_spectral_norms",
                        lambda block, c, shape, **kw: [est] * c)
    pg = VARIANTS["regular_cs_full"]
    assert SignedFamily(pg).norm(np.ones(_k(pg), dtype=int)) == 2.5


def test_unconverged_block_inflates_by_residual(monkeypatch):
    # two Lanczos steps cannot settle a 256 x 256 matrix: every column of the
    # block reports it, and the family adds each column's residual
    monkeypatch.setattr(spectral, "_LANCZOS_MAX_STEPS", 2)
    pg = VARIANTS["many_signs_duplicates"]
    rows = _rows(pg, count=6)[[0, 2, 3, 4]]
    signs = pg.signs_for(rows)
    ests = spectral.block_spectral_norms(lambda live: pg.to_csr(signs[live]),
                                         len(rows), pg.shape, tol=refute.REFUTE_TOL)
    assert all(not e.converged and e.residual > e.tol and e.iterations == 2
               for e in ests)
    got = SignedFamily(pg).norms(rows)
    assert got.tolist() == [e.value * (1 + e.residual) for e in ests]
    assert (got > [e.value for e in ests]).all()


def test_signs_for_rows_match_single_vectors():
    pg = VARIANTS["many_signs_duplicates"]
    rows = _rows(pg)
    got = pg.signs_for(rows)
    assert got.dtype == np.int8 and got.shape == (len(rows), pg.n_labels)
    for b, s in zip(rows, got):
        assert np.array_equal(s, pg.signs_for(b))
    bad = rows.copy()
    bad[3, pg.label_sign_factors[0][0]] = 0
    with pytest.raises(ValueError):
        pg.signs_for(bad)
    with pytest.raises(IndexError):
        pg.signs_for(rows[:, :-1])
