import math

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import stacked
from kikuchi import spectral
from kikuchi.instances import sign_rows
from kikuchi.spectral import (
    DENSE_COMPONENT_MAX,
    block_spectral_norms,
    khintchine_bound,
    khintchine_sigma,
    spectral_norm,
)


def random_sparse(rng, m, n, nnz):
    return sp.coo_matrix(
        (
            rng.standard_normal(nnz),
            (rng.integers(0, m, nnz), rng.integers(0, n, nnz)),
        ),
        shape=(m, n),
    ).tocsr()


def test_permutation_matrix_norm():
    P = sp.eye(17).tocsr()
    assert spectral_norm(P).value == pytest.approx(1.0, abs=1e-9)


def test_rank_one_block_norm():
    a, b = 5, 7
    M = np.zeros((10, 12))
    M[:a, :b] = 1.0
    est = spectral_norm(M)
    assert est.method == "lanczos"
    assert est.value == pytest.approx(math.sqrt(a * b), rel=1e-9)


def test_zero_and_empty():
    assert spectral_norm(sp.csr_matrix((4, 5))).value == 0.0
    assert spectral_norm(np.zeros((3, 3))).value == 0.0


def test_norm_against_svd_oracle(rng):
    worst = 0.0
    for t in range(30):
        m = int(rng.integers(20, 70))
        n = int(rng.integers(20, 70))
        M = random_sparse(rng, m, n, int(rng.integers(10, 400)))
        got = spectral_norm(M, tol=1e-10, seed=t).value
        want = np.linalg.svd(M.toarray(), compute_uv=False)[0]
        if want > 0:
            worst = max(worst, abs(got - want) / want)
    assert worst <= 1e-7


def _record_ritz_values(monkeypatch) -> list:
    """The top Ritz values of every Lanczos checkpoint, in order, as
    ``_tridiagonal_tops`` returns them."""
    trace = []
    tops = spectral._tridiagonal_tops

    def recording(diag, off):
        top, last = tops(diag, off)
        trace.extend(top.tolist())
        return top, last

    monkeypatch.setattr(spectral, "_tridiagonal_tops", recording)
    return trace


def test_rayleigh_quotients_nondecreasing(rng, monkeypatch):
    M = random_sparse(rng, 40, 40, 200)
    trace = _record_ritz_values(monkeypatch)
    spectral_norm(M)
    arr = np.asarray(trace)
    assert len(trace) >= 2
    assert (np.diff(arr) >= -1e-9 * arr[:-1].clip(min=1e-300)).all()


def _svd_top(M) -> float:
    return float(np.linalg.svd(M.toarray(), compute_uv=False)[0])


def _assert_brackets(est, want):
    # a Ritz value from below, within its residual of the oracle
    assert est.converged and est.residual <= est.tol
    assert est.value <= want * (1 + 1e-12)
    assert est.value * (1 + est.residual) >= want * (1 - 1e-12)


@pytest.mark.parametrize("shape", [(200, 3), (3, 200), (90, 25), (25, 90),
                                   (1, 40), (40, 1), (1, 1)])
def test_lanczos_shapes_against_svd(rng, shape):
    m, n = shape
    for t in range(8):
        M = random_sparse(rng, m, n, max(1, m * n // 3))
        est = spectral_norm(M, tol=1e-10, seed=t)
        _assert_brackets(est, _svd_top(M))
        # the Gram operator lives on the smaller side, so the Krylov space
        # is exhausted after min(m, n) steps
        if min(m, n) <= 3:
            assert est.iterations <= min(m, n)


def test_lanczos_rank_one(rng):
    # constant rows: rank one, so the Krylov space is exhausted by step two
    u = rng.standard_normal(30)
    flat = sp.csr_matrix(np.outer(u, np.ones(20)))
    est = spectral_norm(flat)
    assert est.value == pytest.approx(np.linalg.norm(u) * math.sqrt(20), rel=1e-12)
    assert est.iterations <= 2 and est.converged
    # a generic rank-one matrix exhausts its Krylov space after two steps
    for shape in [(30, 20), (20, 30)]:
        M = sp.csr_matrix(np.outer(rng.standard_normal(shape[0]),
                                   rng.standard_normal(shape[1])))
        est = spectral_norm(M)
        _assert_brackets(est, _svd_top(M))
        assert est.iterations <= 2


def test_lanczos_repeated_top_singular_value(rng):
    P = sp.csr_matrix(np.eye(50)[rng.permutation(50)])
    est = spectral_norm(P)
    assert est.value == pytest.approx(1.0, rel=1e-12)
    assert est.iterations == 1
    block = random_sparse(rng, 12, 9, 40)
    copies = sp.block_diag([block, block, 2 * block, block]).tocsr()
    est = spectral_norm(copies, tol=1e-10)
    _assert_brackets(est, _svd_top(copies))
    copies = sp.block_diag([block] * 4).tocsr()
    _assert_brackets(spectral_norm(copies, tol=1e-10), _svd_top(copies))


def test_lanczos_finds_top_hidden_from_all_ones(monkeypatch):
    # every top right singular vector e_{2i} - e_{2i+1} is orthogonal to the
    # all-ones vector, an eigenvector of A^T A for 0.5: an all-ones start
    # would stop there, the seeded random start reaches the top value 2
    M = sp.kron(sp.eye(10), sp.csr_matrix([[1.0, -1.0], [0.5, 0.5]])).tocsr()
    trace = _record_ritz_values(monkeypatch)
    est = spectral_norm(M)
    assert max(trace) == pytest.approx(2.0, rel=1e-12)
    assert est.value == pytest.approx(math.sqrt(2.0), rel=1e-12)
    _assert_brackets(est, _svd_top(M))


def _block_of(mats):
    return sp.block_diag(mats, format="csr")


def test_block_finds_hidden_top_in_every_column():
    M = sp.kron(sp.eye(10), sp.csr_matrix([[1.0, -1.0], [0.5, 0.5]])).tocsr()
    mats = [M, -M, M, M.multiply(-1).tocsr(), M]
    ests = block_spectral_norms(_block_of(mats), len(mats))
    assert len(ests) == len(mats)
    for est in ests:
        assert est.value == pytest.approx(math.sqrt(2.0), rel=1e-12)
        _assert_brackets(est, _svd_top(M))


def test_one_recurrence_per_block(monkeypatch):
    calls = []
    real = spectral._lanczos_top
    monkeypatch.setattr(spectral, "_lanczos_top",
                        lambda *a, **kw: calls.append(1) or real(*a, **kw))
    M = sp.kron(sp.eye(10), sp.csr_matrix([[1.0, -1.0], [0.5, 0.5]])).tocsr()
    ests = block_spectral_norms(_block_of([M, 2 * M, M]), 3)
    assert len(calls) == 1
    assert [e.value for e in ests] == pytest.approx(
        [math.sqrt(2.0), 2 * math.sqrt(2.0), math.sqrt(2.0)], rel=1e-12)


@pytest.mark.parametrize("shape", [(40, 40), (25, 60), (60, 25), (1, 9),
                                   (9000, 12000)])
def test_block_columns_equal_single_solves(rng, shape):
    # each column stops where it stops alone and keeps its bits, in any block;
    # the long vectors of the last shape catch reductions whose order
    # depends on the block (an einsum over more than 8,192 entries)
    nnz = max(shape) // 4 if max(shape) > 1000 else int(rng.integers(5, 200))
    mats = [random_sparse(rng, *shape, nnz) for _ in range(7)]
    mats[3] = mats[3] * 0.0  # stored zeros: value 0 from a nonempty matrix
    ones = np.ix_(range(min(shape[0], 30)), range(min(shape[1], 30)))
    mats[4] = sp.lil_matrix(shape)
    mats[4][ones] = 1.0  # rank one: exact after one step
    mats[4] = mats[4].tocsr()
    single = [spectral_norm(m, seed=5) for m in mats]
    for lo, hi in [(0, 7), (0, 3), (3, 7), (6, 7)]:
        got = block_spectral_norms(_block_of(mats[lo:hi]), hi - lo, seed=5)
        assert got == single[lo:hi]
    assert single[3].value == 0.0
    if min(shape) == 1:
        # a one-dimensional Krylov space: every column stops at step 1
        assert {e.iterations for e in single} == {1}
    else:
        assert len({e.iterations for e in single}) > 1


def test_block_eigh_batches_keep_results(rng, monkeypatch):
    mats = [random_sparse(rng, 40, 40, 150) for _ in range(5)]
    want = block_spectral_norms(_block_of(mats), len(mats))
    monkeypatch.setattr(spectral, "_DENSE_BATCH_ENTRIES", 8)
    assert block_spectral_norms(_block_of(mats), len(mats)) == want


def test_block_guards_raise():
    M = sp.csr_matrix(np.eye(4) * 3.0)
    with pytest.raises(AssertionError, match="L1"):
        block_spectral_norms(_block_of([M, M]), 2, upper=2.0)


def test_lanczos_too_few_steps_reports_nonconvergence(rng, monkeypatch):
    M = random_sparse(rng, 60, 60, 400)
    monkeypatch.setattr(spectral, "_LANCZOS_MAX_STEPS", 2)
    est = spectral_norm(M, tol=1e-9)
    assert not est.converged
    assert est.residual > est.tol
    assert est.iterations == 2
    assert est.value <= _svd_top(M) * (1 + 1e-12)


def test_residual_below_tol_on_success(rng):
    for t in range(40):
        M = random_sparse(rng, int(rng.integers(10, 60)),
                          int(rng.integers(10, 60)), int(rng.integers(5, 200)))
        est = spectral_norm(M, tol=1e-9, seed=t)
        assert est.value >= 0
        if est.converged:
            assert est.residual <= 1e-9 + 1e-15


def test_norm_lower_bound_probes(rng):
    # |A| >= |v^T A w| / (|v||w|) holds for the returned estimate
    M = random_sparse(rng, 30, 50, 300)
    est = spectral_norm(M).value
    for _ in range(20):
        v = rng.standard_normal(30)
        w = rng.standard_normal(50)
        lower = abs(v @ (M @ w)) / (np.linalg.norm(v) * np.linalg.norm(w))
        assert lower <= est * (1 + 1e-6) + 1e-12


def test_norm_l1_upper_bound(rng):
    M = random_sparse(rng, 30, 50, 300)
    est = spectral_norm(M).value
    am = abs(M)
    upper = math.sqrt(float(am.sum(axis=1).max()) * float(am.sum(axis=0).max()))
    assert est <= upper * (1 + 1e-6)


def _dense_gram_tops(mats):
    """Top eigenvalues of sum X X^T and sum X^T X by dense eigvalsh."""
    dense = [np.abs(m.toarray()) for m in mats]
    rows = sum(d @ d.T for d in dense)
    cols = sum(d.T @ d for d in dense)
    return tuple(
        float(np.linalg.eigvalsh(g)[-1]) if g.size else 0.0 for g in (rows, cols)
    )


def _random_counting(rng, m, n, nnz):
    return sp.coo_matrix(
        (rng.integers(1, 4, nnz).astype(float),
         (rng.integers(0, m, nnz), rng.integers(0, n, nnz))),
        shape=(m, n),
    ).tocsr()


def test_sigma_matches_eigvalsh(rng):
    # rigorous upper bound that equals the dense eigenvalue to rounding,
    # on rectangular, empty and all-zero groups alike
    for _ in range(60):
        k = int(rng.integers(1, 6))
        m, n = int(rng.integers(1, 40)), int(rng.integers(1, 40))
        mats = []
        for _ in range(k):
            kind = rng.integers(0, 4)
            if kind == 0:
                mats.append(sp.csr_matrix((m, n)))
            elif kind == 1:
                mats.append(sp.csr_matrix((np.zeros(3), ([0, 0, m - 1], [0, n - 1, 0])),
                                          shape=(m, n)))
            elif kind == 2:
                mats.append(abs(random_sparse(rng, m, n, int(rng.integers(1, 3 * (m + n))))))
            else:
                mats.append(_random_counting(rng, m, n, int(rng.integers(1, 2 * (m + n)))))
        sig = khintchine_sigma(*stacked(mats))
        want_rows, want_cols = _dense_gram_tops(mats)
        assert sig["guarantee"] == "rigorous"
        for got, want in ((sig["row_norm"], want_rows), (sig["col_norm"], want_cols)):
            assert got >= want
            assert got <= want * (1 + 1e-12)
        assert sig["sigma_sq"] == max(sig["row_norm"], sig["col_norm"])


def test_sigma_split_dense_batches(rng, monkeypatch):
    # many same-size components spread over several batched eigh calls;
    # the one heavy block must be found in the first, a middle and the last
    monkeypatch.setattr(spectral, "_DENSE_BATCH_ENTRIES", 8)
    blocks = 40
    for heavy in (0, blocks // 2, blocks - 1):
        weight = np.ones(blocks)
        weight[heavy] = 2.0
        X = sp.block_diag([w * np.ones((2, 2)) for w in weight], format="csr")
        sig = khintchine_sigma(*stacked([X]))  # 2x2 Gram blocks 2 w^2 J: top 4 w^2
        assert 16.0 <= sig["sigma_sq"] <= 16.0 * (1 + 1e-12)
    for _ in range(20):
        mats = [_random_counting(rng, 30, 25, 20) for _ in range(2)]
        sig = khintchine_sigma(*stacked(mats))
        want_rows, want_cols = _dense_gram_tops(mats)
        assert want_rows <= sig["row_norm"] <= want_rows * (1 + 1e-12)
        assert want_cols <= sig["col_norm"] <= want_cols * (1 + 1e-12)


def test_sigma_signed_groups_use_absolute_values(rng):
    # negative entries enter as |X|, an upper bound on the signed sigma^2
    for _ in range(10):
        mats = [random_sparse(rng, 15, 18, 40) for _ in range(3)]
        sig = khintchine_sigma(*stacked(mats))
        dense = [m.toarray() for m in mats]
        signed = max(
            np.linalg.eigvalsh(sum(d @ d.T for d in dense))[-1],
            np.linalg.eigvalsh(sum(d.T @ d for d in dense))[-1],
        )
        assert sig["sigma_sq"] >= signed
        assert sig == khintchine_sigma(*stacked([abs(m) for m in mats]))


def test_sigma_empty_family():
    # no group stacks to N_L x 0 and 0 x N_R; no column gives k = 0
    sig = khintchine_sigma(sp.csr_matrix((3, 0)), sp.csr_matrix((0, 4)))
    assert sig["sigma_sq"] == 0.0 and sig["proxy"] == 0.0
    sig = khintchine_sigma(sp.csr_matrix((3, 0)), sp.csr_matrix((6, 0)))
    assert sig["sigma_sq"] == 0.0 and sig["proxy"] == 0.0
    sig = khintchine_sigma(*stacked([sp.csr_matrix((0, 4)), sp.csr_matrix((0, 4))]))
    assert sig["sigma_sq"] == 0.0


def test_sigma_localized_perron_vector():
    # a heavy hub row with a long chain: the Perron vector decays by ~1/50
    # per hop, so eigh returns tail entries that are zero or pure noise and
    # the bound at that vector alone is 2-4% high
    length, hub = 30, 50
    rows = np.r_[np.zeros(hub, int), np.arange(length), np.arange(length) + 1]
    cols = np.r_[np.arange(hub), hub + np.arange(length), hub + np.arange(length)]
    X = sp.csr_matrix((np.ones(len(rows)), (rows, cols)),
                      shape=(length + 1, hub + length))
    sig = khintchine_sigma(*stacked([X]))
    want_rows, want_cols = _dense_gram_tops([X])
    assert want_rows <= sig["row_norm"] <= want_rows * (1 + 1e-12)
    assert want_cols <= sig["col_norm"] <= want_cols * (1 + 1e-12)


def test_collatz_wielandt_is_upper_bound_at_every_stop(rng, monkeypatch):
    # however early power iteration stops, the bound is already rigorous,
    # and more steps never loosen it
    for _ in range(10):
        X = _random_counting(rng, 60, 40, 90)
        S = (X @ X.T).toarray() + np.eye(60)  # positive diagonal
        want = float(np.linalg.eigvalsh(S)[-1])
        mul = lambda live, w: S @ w
        prev = np.inf
        for steps in (1, 2, 3, 5, 8):
            monkeypatch.setattr(spectral, "DEFAULT_MAXIT", steps)
            got = float(spectral._collatz_wielandt(mul, np.ones(60), [60])[0])
            assert want * (1 - 1e-13) <= got <= prev
            prev = got


def test_sigma_large_component_power_fallback(rng, monkeypatch):
    # a connected Gram block well above the dense cap runs power iteration
    calls = []
    runner = spectral._cw_from_ones
    monkeypatch.setattr(spectral, "_cw_from_ones",
                        lambda S, verts, sizes, tol:
                        calls.extend(np.asarray(sizes).tolist())
                        or runner(S, verts, sizes, tol))
    m, n = DENSE_COMPONENT_MAX + 64, DENSE_COMPONENT_MAX + 40
    chain = sp.csr_matrix(
        (np.ones(2 * m - 1),
         (np.r_[np.arange(m), np.arange(m - 1)],
          np.r_[np.arange(m) % n, (np.arange(m - 1) + 1) % n])),
        shape=(m, n),
    )
    mats = [chain, _random_counting(rng, m, n, 6 * m), _random_counting(rng, m, n, 6 * m)]
    sig = khintchine_sigma(*stacked(mats))
    want_rows, want_cols = _dense_gram_tops(mats)
    assert sig["row_norm"] >= want_rows
    assert sig["col_norm"] >= want_cols
    assert sig["row_norm"] <= want_rows * (1 + 1e-12)
    assert sig["col_norm"] <= want_cols * (1 + 1e-12)
    assert calls and all(size > DENSE_COMPONENT_MAX for size in calls)


def test_top_eig_bound_of_large_components_matches_each_alone(rng):
    """Components above the dense cap run together in one Collatz-Wielandt
    batch, row by row, so the union's bound is, bit for bit, the largest of
    the bounds each block gets alone.  Scaling one block by 2^20, which is
    exact and scales its bound exactly, makes each block the largest in
    turn."""
    for _ in range(6):
        blocks = []
        for _ in range(int(rng.integers(2, 5))):
            m = int(rng.integers(DENSE_COMPONENT_MAX + 1, 3 * DENSE_COMPONENT_MAX))
            n = int(rng.integers(DENSE_COMPONENT_MAX + 1, 3 * DENSE_COMPONENT_MAX))
            # a path through every row keeps the Gram block connected
            path = sp.csr_matrix((np.ones(2 * m - 1),
                                  (np.r_[np.arange(m), np.arange(1, m)],
                                   np.r_[np.arange(m), np.arange(m - 1)] % n)),
                                 shape=(m, n))
            X = path + _random_counting(rng, m, n, int(rng.integers(m, 4 * m)))
            S = sp.csr_matrix(X @ X.T)
            S.sort_indices()
            blocks.append(S)
        alone = [spectral._top_eig_bound(S) for S in blocks]
        for top in [None, *range(len(blocks))]:
            scale = [2.0**20 if t == top else 1.0 for t in range(len(blocks))]
            union = sp.block_diag([c * S for c, S in zip(scale, blocks)], format="csr")
            union.sort_indices()
            assert spectral._top_eig_bound(union) == max(
                c * a for c, a in zip(scale, alone))


def test_khintchine_bound_values():
    assert khintchine_bound(1.0, 1, 1) == pytest.approx(math.sqrt(2 * math.log(2)))
    assert khintchine_bound(1.0, 1, 1) == pytest.approx(1.1774, abs=1e-4)
    assert khintchine_bound(0.0, 5, 5) == 0.0
    assert khintchine_bound(4.0, 3, 4) == pytest.approx(2 * khintchine_bound(1.0, 3, 4))
    with pytest.raises(ValueError):
        khintchine_bound(-1.0, 1, 1)
    with pytest.raises(ValueError):
        khintchine_bound(1.0, 0, 1)


def test_sigma_single_edge():
    m = sp.csr_matrix((np.ones(1), ([2], [3])), shape=(5, 6))
    sig = khintchine_sigma(*stacked([m]))
    assert sig["sigma_sq"] == pytest.approx(1.0, rel=1e-9)


def test_sigma_k_permutations():
    n, k = 9, 4
    mats = []
    for shift in range(k):
        rows = np.arange(n)
        cols = (rows + shift) % n
        mats.append(sp.csr_matrix((np.ones(n), (rows, cols)), shape=(n, n)))
    sig = khintchine_sigma(*stacked(mats))
    assert sig["sigma_sq"] == pytest.approx(k, rel=1e-9)
    assert sig["proxy"] == pytest.approx(k)  # max row/col degree 1 each


def test_sigma_proxy_dominates(rng):
    for t in range(50):
        k = int(rng.integers(2, 5))
        mats = [random_sparse(rng, 15, 18, 40) for _ in range(k)]
        mats = [abs(m) for m in mats]  # counting matrices
        sig = khintchine_sigma(*stacked(mats))
        assert sig["proxy"] * (1 + 1e-9) >= sig["sigma_sq"]


def test_khintchine_inequality_holds(rng):
    for t in range(10):
        k = int(rng.integers(2, 6))
        mats = [abs(random_sparse(rng, 12, 14, 30)) for _ in range(k)]
        sig = khintchine_sigma(*stacked(mats))
        bound = khintchine_bound(sig["sigma_sq"], 12, 14)
        dense = np.stack([m.toarray() for m in mats])
        # E_b |sum_i b_i X_i| exactly, over every sign row, by LAPACK's SVD
        mean = np.mean([np.linalg.norm(np.tensordot(b, dense, 1), 2)
                        for b in sign_rows(k)])
        assert mean <= bound * (1 + 1e-9)


def test_sign_rows_shapes():
    rows = sign_rows(3)
    assert rows.shape == (8, 3) and set(np.unique(rows)) == {-1, 1}
    half = sign_rows(3, fix_first=True)
    assert half.shape == (4, 3) and (half[:, 0] == 1).all()


def test_component_bounds_keep_a_rounding_margin():
    # the all-ones start is the Perron vector of a block of ones, so the
    # Collatz-Wielandt bound is exact there, at the first step and refined;
    # the margin still lifts it
    A = sp.block_diag([np.ones((2, 2)), np.ones((1, 3)), [[1.0]]], format="csr")
    screen = spectral.ComponentBounds(A)
    assert screen.row_comp.tolist() == [0, 0, 1, 2]
    want = np.array([2.0, math.sqrt(3), 1.0])
    assert screen.lower == pytest.approx(want, rel=1e-15)
    for refined in (False, True):
        assert screen.refined.tolist() == [refined] * 3
        assert (screen.bounds > want).all()
        assert (screen.bounds <= want * (1 + 1e-13)).all()
        assert screen.refine(np.ones(3, dtype=bool)) == 3 * (not refined)


def test_component_bounds_symmetric_keeps_bipartite_component_whole(rng):
    # a path's adjacency is symmetric with a bipartite graph: as a general
    # matrix its rows and columns split into two transposed halves
    path = sp.diags([np.ones(5), np.ones(5)], [-1, 1], shape=(6, 6), format="csr")
    X = _random_counting(rng, 3, 3, 9)
    A = sp.block_diag([path, sp.csr_matrix((2, 2)), X + X.T + sp.eye(3)], format="csr")
    want = np.linalg.norm(path.toarray(), 2)
    screen = spectral.ComponentBounds(A, symmetric=True)
    assert screen.row_comp.tolist() == [0] * 6 + [-1, -1] + [1] * 3
    assert screen.bounds[0] >= want
    screen.refine(np.ones(2, dtype=bool))
    assert want <= screen.bounds[0] <= want * (1 + spectral._SCREEN_TOL)
    screen = spectral.ComponentBounds(A)
    screen.refine(np.ones(3, dtype=bool))
    rows, bounds = screen.row_comp, screen.bounds
    halves = rows[:6].reshape(3, 2).T  # even rows and odd rows
    assert (halves == halves[:, :1]).all() and halves[0, 0] != halves[1, 0]
    assert rows[6:].tolist() == [-1, -1, 2, 2, 2]
    assert bounds[0] == bounds[1] >= want


def _union_find_labels(S):
    """Smallest vertex of each vertex's component, by a plain union-find
    over the stored entries of S."""
    parent = list(range(S.shape[0]))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    coo = S.tocoo()
    for u, v in zip(coo.row.tolist(), coo.col.tolist()):
        ru, rv = find(u), find(v)
        parent[max(ru, rv)] = min(ru, rv)
    return [find(x) for x in range(S.shape[0])]


def _components_cases(rng):
    """Symmetric supports of random graphs, with isolated rows, the
    bipartite form of random rectangular matrices, and empty matrices."""
    cases = [sp.csr_matrix((0, 0)), sp.csr_matrix((5, 5))]
    for n, nnz in ((1, 1), (12, 6), (40, 30), (200, 150), (300, 1000)):
        X = _random_counting(rng, n, n, nnz)
        cases.append(sp.csr_matrix(X + X.T))  # random diagonal entries too
    for m, n, nnz in ((6, 9, 5), (30, 20, 25), (150, 100, 120)):
        G = _random_counting(rng, m, n, nnz)
        cases.append(sp.bmat([[None, G], [G.T, None]], format="csr"))
    return cases


def test_components_match_union_find(rng):
    cases = _components_cases(rng)
    sizes = set()
    for S in cases:
        label = spectral._components(S)
        assert label.tolist() == _union_find_labels(S)
        sizes |= set(np.unique(label, return_counts=True)[1].tolist())
    # the cases hold isolated rows and components of several sizes
    assert {1, 2} < sizes and max(sizes) > 50


def _stacked_gram(mats, transpose):
    """The Gram matrix by the generic product on the stacked matrices, with
    its zero sums dropped."""
    if transpose:
        X = sp.vstack(mats, format="csr")
        S = X.T @ X
    else:
        X = sp.hstack(mats, format="csr")
        S = X @ X.T
    S = sp.csr_matrix(S)
    S.eliminate_zeros()
    return S


def test_gram_arrays_equal_the_stacked_product(rng):
    # real-valued entries, so that any change in a sum's order shows in its
    # bits; symmetric, lone nonsymmetric in both orientations, and several
    for _ in range(20):
        m, n = int(rng.integers(2, 40)), int(rng.integers(2, 40))
        X = abs(random_sparse(rng, m, n, int(rng.integers(1, 3 * (m + n)))))
        Y = abs(random_sparse(rng, n, n, int(rng.integers(1, 3 * n))))
        cases = [([X], False), ([X], True), ([X.T.tocsr()], True),
                 ([Y + Y.T], True), ([Y + Y.T], False),
                 ([X, _random_counting(rng, m, n, 2 * m)], False),
                 ([X, _random_counting(rng, m, n, 2 * m)], True)]
        for mats, transpose in cases:
            wide, tall = stacked(mats)
            S, margin = spectral._gram(tall if transpose else wide, transpose)
            want = _stacked_gram(mats, transpose)
            for key in ("data", "indices", "indptr"):
                got, ref = getattr(S, key), getattr(want, key)
                assert got.dtype == ref.dtype and np.array_equal(got, ref)
            X_all = sp.vstack(mats) if transpose else sp.hstack(mats, format="csr")
            terms = (np.bincount(sp.csr_matrix(X_all).indices, minlength=X_all.shape[1])
                     if transpose else np.diff(X_all.indptr))
            steps = int(terms.max()) + int(np.diff(S.indptr).max()) + 2
            assert margin == 1.0 + steps * float(np.finfo(float).eps)


def test_cw_runs_equal_each_block_alone_past_a_rebuild(rng, monkeypatch):
    """Many blocks whose all-ones vector is their Perron vector settle at
    the first step, and one slow path block runs on, so the live rows fall
    below half and the runner cuts its matrix to them; every block's bound
    still has the bits it gets alone."""
    fast = [np.ones((s, s)) + np.eye(s) for s in rng.integers(1, 6, 40)]
    length = 40
    path = np.diag(np.full(length, 2.0)) + np.diag(np.ones(length - 1), 1) \
        + np.diag(np.ones(length - 1), -1)
    path[0, 0] = 3.0  # not constant row sums: the ones vector is off
    blocks = fast[:25] + [path] + fast[25:]
    S = sp.block_diag(blocks, format="csr")
    perm = rng.permutation(S.shape[0])  # vertices of a block scattered
    S = sp.csr_matrix(S[perm][:, perm])
    S.sort_indices()
    where = np.argsort(perm)  # block vertex -> row of S
    sizes = [len(b) for b in blocks]
    starts = np.cumsum(sizes) - sizes
    verts = np.concatenate([where[a:a + s] for a, s in zip(starts, sizes)])
    shapes = []
    build = sp.csr_matrix

    class _Recording:
        def __getattr__(self, name):
            return getattr(sp, name)

        def csr_matrix(self, *args, **kw):
            shapes.append(kw.get("shape"))
            return build(*args, **kw)

    for tol in (spectral._SCREEN_TOL, spectral._CW_TOL):
        alone = [spectral._cw_from_ones(S, where[a:a + s], [s], tol)[0]
                 for a, s in zip(starts, sizes)]
        shapes.clear()
        monkeypatch.setattr(spectral, "sp", _Recording())
        together = spectral._cw_from_ones(S, verts, sizes, tol)
        monkeypatch.setattr(spectral, "sp", sp)
        assert together.tolist() == alone
        assert shapes[0] == (len(verts), len(verts))
        assert any(shape[0] <= len(verts) // 2 for shape in shapes[1:])
        top = np.linalg.eigvalsh(path)[-1]
        assert top <= together[25] <= top * (1 + 1e-3)
