"""One signed edge family: a pruned graph is a KikuchiGraph, and the matrices
SignedFamily hands to the norm solver and the stacked group matrices behind
sigma^2 are built from its edge triples alone."""

import dataclasses

import numpy as np
import pytest

from conftest import group_coo_matrices, stacked
import kikuchi.refute as refute
import kikuchi.spectral as spectral
from kikuchi.decompose import compute_thresholds, decompose
from kikuchi.graphs import (
    KikuchiGraph,
    SpaceComponent,
    VertexSpace,
    assemble_basic,
    assemble_bipartite,
    assemble_regular_cs,
)
from kikuchi.instances import (
    XorInstance,
    generate_random_bipartite_instance,
    generate_random_matching_instance,
    sign_rows,
)
from kikuchi.prune import prune, target_degrees
from kikuchi.refute import SignedFamily
from kikuchi.spectral import NormEstimate


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
    cs5 = assemble_regular_cs(generate_random_matching_instance(8, 5, 3, 0.15, seed=1), 2)
    tg5 = target_degrees(cs5, 1, 3)
    piece = generate_random_bipartite_instance(8, 3, 2, 3, edges_per=2,
                                               p_size=5, seed=5)
    return {
        "basic_even": _pruned(assemble_basic(even, 2), 1, 2),
        "naive_odd": _pruned(assemble_basic(odd, 2), 2, 2),
        "regular_cs_full": _pruned(assemble_regular_cs(cs, 1), 2, 4),
        # the q=5 full pair graph; its key keeps these tests' ids from when
        # it held a partition slice.  Pruning at gamma=8 empties a label of
        # it, as on the q=5 pair graphs of desk size, so its cap is one no
        # degree reaches
        "regular_cs_partition": prune(cs5, 1e9, tg5["d_left"], tg5["d_right"]),
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
    # a label's edges are distinct, so each kept (left, right, label) triple
    # has one position in the parent, and the kept ones keep their order
    position = {e: i for i, e in enumerate(_triples(pg.parent))}
    assert len(position) == pg.parent.n_edges
    kept = [position[e] for e in _triples(pg)]
    assert kept == sorted(set(kept))


def _triples(graph):
    return zip(graph.left.tolist(), graph.right.tolist(), graph.edge_label.tolist())


def _capturing(monkeypatch, seen):
    """Record the full block matrix of every batched solve."""
    solve = refute.block_spectral_norms

    def capture(A, c, **kw):
        seen.append(A)
        return solve(A, c, **kw)

    monkeypatch.setattr(refute, "block_spectral_norms", capture)


def _first(fam):
    """The rows of the components a family solves first."""
    return fam.rank < fam.first


def _phases(monkeypatch, fam, solved):
    """Record (first phase?, column count) of every block solve."""
    phase, solve = fam._phase, refute.block_spectral_norms
    first = []

    def record(signs, lo, hi):
        first.append(lo == 0 and hi == fam.first)
        return phase(signs, lo, hi)

    def count(A, c, **kw):
        solved.append((first[-1], c))
        return solve(A, c, **kw)

    monkeypatch.setattr(fam, "_phase", record)
    monkeypatch.setattr(refute, "block_spectral_norms", count)


def _on(pg, dense, rows):
    """``dense`` on ``rows`` and the columns their entries hold."""
    return dense[rows][:, pg.to_dense()[rows].any(axis=0)]


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
        if seen:  # a cache miss: the first matrix the solver saw
            misses += 1
            assert np.array_equal(seen[0].toarray(),
                                  _on(pg, pg.to_dense(pg.signs_for(b)), _first(fam)))
    assert misses >= 1


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_block_diagonal_holds_each_signed_matrix(name, monkeypatch):
    # one block: the diagonal blocks of its first solve are the first
    # phase's signed matrices of the first row of each +- class, in row order
    pg = VARIANTS[name]
    rows = np.array(_sign_vectors(_k(pg), count=12))
    seen = []
    _capturing(monkeypatch, seen)
    monkeypatch.setattr(refute, "BLOCK_ENTRIES", 1 << 30)
    fam = SignedFamily(pg)
    fam.norms(rows)
    firsts = {}
    for b in rows:
        s = pg.signs_for(b)
        firsts.setdefault((s * s[0]).tobytes(), b)
    mat = seen[0]
    nl, nr = _on(pg, pg.to_dense(), _first(fam)).shape
    assert mat.shape == (len(firsts) * nl, len(firsts) * nr)
    dense = mat.toarray()
    for t, b in enumerate(firsts.values()):
        block = dense[t * nl:(t + 1) * nl, t * nr:(t + 1) * nr]
        assert np.array_equal(block, _on(pg, pg.to_dense(pg.signs_for(b)), _first(fam)))
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
            got = SignedFamily(pg, threads=threads).norms(rows)
            assert got.tolist() == fresh  # bitwise
    assert n_classes < len(rows)


def test_graph_with_more_columns_than_rows_is_covered():
    assert any(pg.shape[1] > pg.shape[0] for pg in VARIANTS.values())


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_columns_solved_equal_sign_classes(name, monkeypatch):
    # every class is solved once in the first phase, in blocks sized by its
    # entries
    pg = VARIANTS[name]
    rows = _rows(pg)
    fam = SignedFamily(pg)
    solved = []
    _phases(monkeypatch, fam, solved)
    monkeypatch.setattr(refute, "BLOCK_ENTRIES",
                        3 * int(fam._row_entries[_first(fam)].sum()))
    fam.norms(rows)
    classes = {(s * s[0]).tobytes() for s in pg.signs_for(rows)}
    top = [c for first, c in solved if first]
    assert sum(top) == len(classes)
    assert max(top) <= 3
    count = len(solved)
    fam.norms(rows[::-1])  # every class cached: no further solve
    fam.norm(-rows[0])
    assert len(solved) == count


def _regular_l2():
    """The benchmark's n=20, k=6, l=2 instance, decomposed: (the leftover
    instance, the decomposition)."""
    inst = generate_random_matching_instance(20, 3, 6, 0.25, seed=1)
    thr = compute_thresholds(20, 6, 3, inst.measured_delta(), ell_override=2)
    dec = decompose(inst, thr)
    return dec.leftover, dec


def _regular_l2_pruned():
    left, _ = _regular_l2()
    return _pruned(assemble_regular_cs(left, 2), max(left.edge_counts), left.k)


def test_regular_l2_exhaustive_rows_solve_once_per_class(monkeypatch):
    """The benchmark's n=20, k=6, l=2 pair graph: its 32 exhaustive rows
    fall into 16 +- classes, solved in one block on the top component alone
    (1,708 of the 77,760 entries), whose norm every other component's bound
    lies below."""
    pg = _regular_l2_pruned()
    seen = []
    _capturing(monkeypatch, seen)
    rows = sign_rows(_k(pg), fix_first=True)
    fam = SignedFamily(pg)
    got = fam.norms(rows)
    assert len(rows) == 32
    assert pg.n_edges > refute.BLOCK_ENTRIES
    assert len(fam.bounds) > 3000 and fam.bounds[1] < got.min()
    (mat,) = seen
    classes = np.unique([s * s[0] for s in pg.signs_for(rows)], axis=0)
    assert len(classes) == 16
    assert mat.nnz == 16 * 1708 == 16 * fam._row_entries[_first(fam)].sum()
    ref = pg.to_csr(classes, pg._structure(_first(fam)))  # same entries, other signs
    assert mat.shape == ref.shape == (16 * 1034 // 2, 16 * 1034 // 2)
    assert np.array_equal(mat.indptr, ref.indptr)
    assert np.array_equal(mat.indices, ref.indices)


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_group_stacks_match_coo_reference(name):
    pg = VARIANTS[name]
    wide, tall = pg.group_stacks()
    mats = group_coo_matrices(pg)
    assert len(mats) == pg.n_groups
    for got, ref in zip((wide, tall), stacked(mats)):
        assert got.has_canonical_format
        assert got.shape == ref.shape
        assert np.array_equal(got.indptr, ref.indptr)
        assert np.array_equal(got.indices, ref.indices)
        assert np.array_equal(got.data, ref.data)


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


def _all_ones_start_norm(M) -> float:
    """The Lanczos value of one matrix from the all-ones start alone."""
    def gram(Q):
        return (M.T @ (M @ Q[0]))[None]

    return float(np.sqrt(spectral._lanczos_top(gram, np.ones(M.shape[1]), 1, 1e-9)[0][0]))


def test_family_norms_bracket_dense_where_all_ones_stopped_low():
    # on the many-signs family an all-ones start stops on a lower eigenvalue
    # for some sign classes; the family's seeded start must still sit on or
    # just above every dense norm, those classes included
    pg = VARIANTS["many_signs_duplicates"]
    rows = sign_rows(_k(pg), fix_first=True)[::16]
    signs = pg.signs_for(rows)
    dense = np.array([np.linalg.norm(pg.to_dense(s), 2) for s in signs])
    assert len(rows) >= 64
    ones = np.array([_all_ones_start_norm(pg.to_csr(s[None])) for s in signs])
    assert (ones < dense * (1 - 1e-3)).sum() >= 3
    got = SignedFamily(pg).norms(rows)
    assert (got >= dense * (1 - 1e-12)).all()
    assert (got <= dense * (1 + 2e-9)).all()


def test_signed_family_norm_inflates_by_residual(monkeypatch):
    # an unconverged solve loosens the certificate instead of undercutting it
    est = NormEstimate(2.0, "lanczos", 2, 0.25, 1e-9, False)
    monkeypatch.setattr(refute, "block_spectral_norms",
                        lambda A, c, **kw: [est] * c)
    pg = VARIANTS["regular_cs_full"]
    assert SignedFamily(pg).norm(np.ones(_k(pg), dtype=int)) == 2.5


def test_unconverged_block_inflates_by_residual(monkeypatch):
    # two Lanczos steps cannot settle a 256 x 256 matrix: every column of the
    # block reports it, and the family adds each column's residual
    monkeypatch.setattr(spectral, "_LANCZOS_MAX_STEPS", 2)
    pg = VARIANTS["many_signs_duplicates"]
    rows = _rows(pg, count=6)[[0, 2, 3, 4]]
    signs = pg.signs_for(rows)
    ests = spectral.block_spectral_norms(pg.to_csr(signs), len(rows))
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


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_screened_norms_match_dense_norm(name, monkeypatch):
    # skipping components never lowers a norm below the full matrix's; the
    # Ritz values match it to rounding, and the residual inflation adds at
    # most the solver tolerance
    pg = VARIANTS[name]
    rows = np.vstack([_rows(pg), _sign_vectors(_k(pg))])
    want = np.array([np.linalg.norm(pg.to_dense(s), 2) for s in pg.signs_for(rows)])
    got = SignedFamily(pg).norms(rows)
    assert (got >= want * (1 - 1e-12)).all()
    assert (got <= want * (1 + spectral.DEFAULT_TOL)).all()
    solve = refute.block_spectral_norms
    monkeypatch.setattr(refute, "block_spectral_norms", lambda A, c, **kw: [
        dataclasses.replace(e, residual=0.0) for e in solve(A, c, **kw)])
    ritz = SignedFamily(pg).norms(rows)
    assert ritz == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_component_bounds_cover_each_component(name):
    pg = VARIANTS[name]
    fam = SignedFamily(pg)
    counts = pg.to_dense()  # duplicates summed
    held = 0.0
    for r, bound in enumerate(fam.bounds):
        sub = _on(pg, counts, fam.rank == r)
        want = np.linalg.norm(sub, 2)
        if len(fam.bounds) == 1:
            assert bound == np.inf  # a lone component is never screened
        elif fam.screen.refined[fam.screen.row_comp[fam.rank == r][0]]:
            assert want <= bound <= want * (1 + spectral._SCREEN_TOL)
        else:
            assert want <= bound  # a first-step bound, never refined
        held += sub.sum()
    assert held == counts.sum()  # every entry lies in one component
    assert (fam.rank == len(fam.bounds)).sum() == (~counts.any(axis=1)).sum()


def test_one_component_family_solves_the_whole_matrix():
    # no empty row or column: the top component's submatrix is the matrix
    pg = VARIANTS["many_signs_duplicates"]
    fam = SignedFamily(pg)
    assert len(fam.bounds) == 1 and _first(fam).all()
    assert pg.to_dense().any(axis=0).all()
    rows = _rows(pg)
    firsts = {}
    for b, s in zip(rows, pg.signs_for(rows)):
        firsts.setdefault((s * s[0]).tobytes(), b)
    rows = np.array(list(firsts.values()))
    ests = spectral.block_spectral_norms(pg.to_csr(pg.signs_for(rows)), len(rows))
    assert fam.norms(rows).tolist() == [e.value * (1 + e.residual) for e in ests]


def _three_components():
    """A 6 x 6 graph with three components: rows 0-1 hold labels 0 and 1,
    which cancel on the diagonal and the (0, 1) entry when b_0 != b_1;
    row 2 holds label 2 twice, rows 3-5 labels 3 and 4 on a path."""
    entries = [(0, 0, 0), (0, 0, 1), (1, 1, 0), (1, 1, 1), (0, 1, 0), (0, 1, 1),
               (1, 0, 0), (2, 2, 2), (2, 3, 2), (3, 4, 3), (4, 4, 3), (4, 5, 4),
               (5, 5, 4)]
    left, right, label = np.array(entries).T
    space = VertexSpace((SpaceComponent("main", 6, 1),))
    return KikuchiGraph(
        variant="basic_even", left_space=space, right_space=space,
        left=left, right=right, edge_label=label.astype(np.int32),
        labels=list(range(5)), n_groups=5,
        label_sign_factors=[(j,) for j in range(5)],
        D=None, symmetric=False)


def test_cancelled_top_component_solves_the_others(monkeypatch):
    g = _three_components()
    fam = SignedFamily(g)
    # unsigned norms: [[2, 2], [1, 2]], [1, 1] and the path [[1], [1, 1], [1]]
    want_bounds = [np.linalg.norm([[2, 2], [1, 2]], 2), np.sqrt(3), np.sqrt(2)]
    assert np.allclose(fam.bounds, want_bounds, rtol=1e-3)
    assert fam.rank.tolist() == [0, 0, 2, 1, 1, 1]
    seen = []
    _capturing(monkeypatch, seen)
    rows = np.array([[1, 1, 1, 1, 1], [1, -1, 1, 1, 1]])
    got = fam.norms(rows)
    # b_0 = b_1 leaves the top component at its bound, above the others'; the
    # second row leaves it at norm 1 = |[[0, 0], [1, 0]]|, below both
    want = [np.linalg.norm(g.to_dense(s), 2) for s in g.signs_for(rows)]
    assert want[1] == pytest.approx(np.sqrt(3), rel=1e-12)
    assert got == pytest.approx(want, rel=1e-12)
    assert len(seen) == 2
    assert seen[0].shape == (4, 4)  # both rows on the top component
    assert np.array_equal(seen[1].toarray(), g.to_dense(g.signs_for(rows[1]))[2:, 2:])


def test_second_phase_runs_once_per_reach(monkeypatch):
    # one column per first-phase block; the classes with b_0 != b_1 leave
    # the top component at norm 1, below both other bounds, and are solved
    # on them together, not once per first-phase block
    g = _three_components()
    fam = SignedFamily(g)
    monkeypatch.setattr(refute, "BLOCK_ENTRIES",
                        int(fam._row_entries[_first(fam)].sum()))
    phases, solved = [], []
    _phases(monkeypatch, fam, solved)
    phase = fam._phase
    monkeypatch.setattr(fam, "_phase", lambda signs, lo, hi: phases.append(
        (lo, hi, len(signs))) or phase(signs, lo, hi))
    rows = sign_rows(5, fix_first=True)
    got = fam.norms(rows)
    want = [np.linalg.norm(g.to_dense(s), 2) for s in g.signs_for(rows)]
    assert got == pytest.approx(want, rel=1e-12)
    # top-component norms of the 16 classes give one reach value past it
    top = [np.linalg.norm(g.to_dense(s)[:2, :2], 2) for s in g.signs_for(rows)]
    reach = np.searchsorted(-fam.bounds, -np.array(top) * (1 - 1e-9))
    assert sorted(set(reach[reach > fam.first].tolist())) == [3]
    assert phases == [(0, fam.first, 16), (fam.first, 3, 8)]
    assert [c for first, c in solved if first] == [1] * 16  # sixteen blocks
    assert sum(c for first, c in solved if not first) == 8


def _counting_grams(monkeypatch):
    calls = []
    gram = spectral._gram
    monkeypatch.setattr(spectral, "_gram", lambda *a: calls.append(a) or gram(*a))
    return calls


def test_one_component_family_forms_no_gram(monkeypatch):
    calls = _counting_grams(monkeypatch)
    fam = SignedFamily(VARIANTS["many_signs_duplicates"])
    assert fam.bounds.tolist() == [np.inf] and calls == []


def test_three_component_family_keeps_finite_bounds(monkeypatch):
    calls = _counting_grams(monkeypatch)
    fam = SignedFamily(_three_components())
    assert len(fam.bounds) == 3 and np.isfinite(fam.bounds).all()
    assert len(calls) == 1


class _EagerBounds(spectral.ComponentBounds):
    """Refines every component up front, through the same ``refine``."""

    def __init__(self, A, symmetric=False):
        super().__init__(A, symmetric)
        self.refine(np.ones(len(self.bounds), dtype=bool))


def _regular_l2_piece():
    """The pruned graph of the n=20, k=6, l=2 instance's one bipartite piece."""
    _, dec = _regular_l2()
    (piece,) = dec.pieces.values()
    return _pruned(assemble_bipartite(piece, 2), max(piece.edge_counts), piece.k)


def _component_norms(pg, row_comp, comps) -> np.ndarray:
    """The dense norm of the unsigned count matrix on each component of the
    index array ``comps``."""
    order = np.argsort(row_comp, kind="stable")
    counts = pg.to_csr()[order]  # rows grouped by component
    counts.sum_duplicates()
    cuts = np.searchsorted(row_comp[order], np.arange(row_comp.max() + 2))
    out = np.empty(len(comps))
    for i, c in enumerate(comps):
        sub = counts[cuts[c]:cuts[c + 1]]
        cols, at = np.unique(sub.indices, return_inverse=True)
        dense = np.zeros((sub.shape[0], len(cols)))
        dense[np.repeat(np.arange(sub.shape[0]), np.diff(sub.indptr)), at] = sub.data
        out[i] = np.linalg.norm(dense, 2)
    return out


@pytest.mark.parametrize("name", ["regular_l2", "regular_l2_piece", "three_components"])
def test_lazy_screen_matches_eager_refinement(name, monkeypatch):
    """Refining only the components a Ritz value can reach gives the norms,
    bit for bit, of refining every component up front: a refined bound has
    the same bits either way, and an unrefined bound, at least its
    component's norm, lies at or below every Ritz value."""
    pg = {"regular_l2": _regular_l2_pruned, "regular_l2_piece": _regular_l2_piece,
          "three_components": _three_components}[name]()
    rows = np.vstack([sign_rows(_k(pg)), _rows(pg)])
    lazy = SignedFamily(pg)
    refined_at_start = lazy.screen.refined.sum()
    got = np.concatenate([lazy.norms(rows[:4]), lazy.norms(rows)])
    with monkeypatch.context() as m:
        m.setattr(refute, "ComponentBounds", _EagerBounds)
        eager = SignedFamily(pg)
    assert eager.screen.refined.all()
    want = np.concatenate([eager.norms(rows[:4]), eager.norms(rows)])
    assert got.tolist() == want.tolist()  # bitwise
    assert lazy.first == eager.first
    assert np.array_equal(lazy.rank < lazy.first, eager.rank < eager.first)
    screen = lazy.screen
    held = screen.refined
    assert screen.bounds[held].tolist() == eager.screen.bounds[held].tolist()
    assert (screen.bounds >= eager.screen.bounds).all()
    rest = np.flatnonzero(~held)
    assert (screen.bounds[rest] >= _component_norms(pg, screen.row_comp, rest)).all()
    assert (screen.bounds[~held] <= got.min()).all()
    if name == "regular_l2":
        assert len(screen.bounds) == 3114
        assert refined_at_start <= held.sum() < 100


def test_tied_components_are_solved_first(monkeypatch):
    # rows 0 and 1 are isomorphic components of bound sqrt(2): no Ritz value
    # of one can rule out the other, so one run solves both
    left, right, label = np.array([(0, 0, 0), (0, 1, 0), (1, 2, 1), (1, 3, 1),
                                   (2, 4, 2)]).T
    space = VertexSpace((SpaceComponent("main", 5, 1),))
    g = KikuchiGraph(
        variant="basic_even", left_space=space, right_space=space,
        left=left, right=right, edge_label=label.astype(np.int32),
        labels=list(range(3)), n_groups=3,
        label_sign_factors=[(j,) for j in range(3)],
        D=None, symmetric=False)
    fam = SignedFamily(g)
    assert fam.first == 2 and fam.bounds[0] == fam.bounds[1] > fam.bounds[2]
    seen = []
    _capturing(monkeypatch, seen)
    rows = np.array([[1, 1, 1], [1, -1, 1], [1, 1, -1]])
    assert fam.norms(rows) == pytest.approx([np.sqrt(2)] * 3, rel=1e-12)
    (mat,) = seen
    assert mat.shape == (3 * 2, 3 * 4)


def _shuffled_duplicates():
    """A 7 x 9 graph whose 60 edges, in random order, repeat (row, column)
    pairs under different labels."""
    rng = np.random.default_rng(11)
    left, right = rng.integers(0, 7, 60), rng.integers(0, 9, 60)
    left[30:], right[30:] = left[:30], right[:30]
    perm = rng.permutation(60)
    return KikuchiGraph(
        variant="naive_odd",
        left_space=VertexSpace((SpaceComponent("main", 7, 1),)),
        right_space=VertexSpace((SpaceComponent("main", 9, 1),)),
        left=left[perm], right=right[perm],
        edge_label=(np.arange(60) % 6).astype(np.int32)[perm],
        labels=list(range(6)), n_groups=6,
        label_sign_factors=[(j,) for j in range(6)],
        D=None, symmetric=False)


@pytest.mark.parametrize("name", sorted(VARIANTS) + ["shuffled_duplicates"])
def test_structure_is_the_lexsort_order(name):
    g = VARIANTS.get(name) or _shuffled_duplicates()
    assert name != "shuffled_duplicates" or _duplicate_entries(g) > 0
    label_seq, indices, indptr, shape = g._structure()
    order = np.lexsort((g.right, g.left))
    assert shape == g.shape
    assert np.array_equal(label_seq, g.edge_label[order])
    assert indices.dtype == np.int64 and np.array_equal(indices, g.right[order])
    assert np.array_equal(indptr, np.searchsorted(g.left[order],
                                                  np.arange(g.shape[0] + 1)))


def test_one_masked_structure_per_phase(monkeypatch):
    # blocks of one column: every phase splits into several blocks, and all
    # of them share the one masked structure that phase built
    g = _three_components()
    fam = SignedFamily(g)
    monkeypatch.setattr(refute, "BLOCK_ENTRIES", 1)
    built, blocks, phases = [], [], []
    structure, to_csr, phase = g._structure, g.to_csr, fam._phase
    monkeypatch.setattr(g, "_structure", lambda rows=None: (
        built.append(rows is not None) or structure(rows)))
    monkeypatch.setattr(g, "to_csr", lambda signs, st: (
        blocks.append(id(st)) or to_csr(signs, st)))
    monkeypatch.setattr(fam, "_phase", lambda signs, lo, hi: (
        phases.append(len(signs)) or phase(signs, lo, hi)))
    got = fam.norms(sign_rows(5, fix_first=True))
    want = [np.linalg.norm(g.to_dense(s), 2)
            for s in g.signs_for(sign_rows(5, fix_first=True))]
    assert got == pytest.approx(want, rel=1e-12)
    assert len(phases) == 2 and built == [True, True]
    assert len(blocks) == sum(phases) == 24 and len(set(blocks)) <= 2


def test_certificate_is_the_same_on_two_threads(monkeypatch):
    # small blocks, so that both threads take several
    inst = generate_random_matching_instance(20, 3, 6, 0.25, seed=1)
    monkeypatch.setattr(refute, "BLOCK_ENTRIES", 1 << 10)
    certs = [refute.refute_full(inst, epsilon=0.1, trials=50, seed=7, ell=1,
                                threads=threads).certificate for threads in (1, 2)]
    assert certs[0] == certs[1]
