import math

import numpy as np
import pytest
import scipy.sparse as sp

from kikuchi import spectral
from kikuchi.spectral import (
    DENSE_COMPONENT_MAX,
    block_spectral_norms,
    estimate_expected_norm,
    khintchine_bound,
    khintchine_sigma,
    sign_rows,
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


def test_rayleigh_quotients_nondecreasing(rng):
    M = random_sparse(rng, 40, 40, 200)
    trace = []
    spectral_norm(M, trace=trace)
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
    # constant rows: the all-ones start is the top vector, beta ~ 0 at step 1
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


def test_lanczos_random_restart_finds_hidden_top():
    # every top right singular vector e_{2i} - e_{2i+1} is orthogonal to the
    # all-ones start, which is an eigenvector of A^T A for 0.5: only the
    # random restart sees the top value 2
    M = sp.kron(sp.eye(10), sp.csr_matrix([[1.0, -1.0], [0.5, 0.5]])).tocsr()
    trace = []
    est = spectral_norm(M, trace=trace)
    assert max(trace) == pytest.approx(0.5, rel=1e-12)
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
        sig = khintchine_sigma(mats)
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
        sig = khintchine_sigma([X])  # 2x2 Gram blocks 2 w^2 J: top 4 w^2
        assert 16.0 <= sig["sigma_sq"] <= 16.0 * (1 + 1e-12)
    for _ in range(20):
        mats = [_random_counting(rng, 30, 25, 20) for _ in range(2)]
        sig = khintchine_sigma(mats)
        want_rows, want_cols = _dense_gram_tops(mats)
        assert want_rows <= sig["row_norm"] <= want_rows * (1 + 1e-12)
        assert want_cols <= sig["col_norm"] <= want_cols * (1 + 1e-12)


def test_sigma_signed_groups_use_absolute_values(rng):
    # negative entries enter as |X|, an upper bound on the signed sigma^2
    for _ in range(10):
        mats = [random_sparse(rng, 15, 18, 40) for _ in range(3)]
        sig = khintchine_sigma(mats)
        dense = [m.toarray() for m in mats]
        signed = max(
            np.linalg.eigvalsh(sum(d @ d.T for d in dense))[-1],
            np.linalg.eigvalsh(sum(d.T @ d for d in dense))[-1],
        )
        assert sig["sigma_sq"] >= signed
        assert sig == khintchine_sigma([abs(m) for m in mats])


def test_sigma_empty_family():
    sig = khintchine_sigma([])
    assert sig["sigma_sq"] == 0.0 and sig["proxy"] == 0.0
    sig = khintchine_sigma([sp.csr_matrix((0, 4)), sp.csr_matrix((0, 4))])
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
    sig = khintchine_sigma([X])
    want_rows, want_cols = _dense_gram_tops([X])
    assert want_rows <= sig["row_norm"] <= want_rows * (1 + 1e-12)
    assert want_cols <= sig["col_norm"] <= want_cols * (1 + 1e-12)


def test_collatz_wielandt_is_upper_bound_at_every_stop(rng):
    # however early power iteration stops, the bound is already rigorous,
    # and more steps never loosen it
    for _ in range(10):
        X = _random_counting(rng, 60, 40, 90)
        S = (X @ X.T).toarray() + np.eye(60)  # positive diagonal
        want = float(np.linalg.eigvalsh(S)[-1])
        mul = lambda live, w: w @ S
        prev = np.inf
        for steps in (1, 2, 3, 5, 8):
            got = float(spectral._collatz_wielandt(mul, np.ones((1, 60)), maxit=steps)[0])
            assert want * (1 - 1e-13) <= got <= prev
            prev = got


def test_sigma_large_component_power_fallback(rng, monkeypatch):
    # a connected Gram block well above the dense cap runs power iteration
    calls = []
    power = spectral._perron_power
    monkeypatch.setattr(spectral, "_perron_power",
                        lambda B: calls.append(B.shape) or power(B))
    m, n = DENSE_COMPONENT_MAX + 64, DENSE_COMPONENT_MAX + 40
    chain = sp.csr_matrix(
        (np.ones(2 * m - 1),
         (np.r_[np.arange(m), np.arange(m - 1)],
          np.r_[np.arange(m) % n, (np.arange(m - 1) + 1) % n])),
        shape=(m, n),
    )
    mats = [chain, _random_counting(rng, m, n, 6 * m), _random_counting(rng, m, n, 6 * m)]
    sig = khintchine_sigma(mats)
    want_rows, want_cols = _dense_gram_tops(mats)
    assert sig["row_norm"] >= want_rows
    assert sig["col_norm"] >= want_cols
    assert sig["row_norm"] <= want_rows * (1 + 1e-12)
    assert sig["col_norm"] <= want_cols * (1 + 1e-12)
    assert calls and all(size > DENSE_COMPONENT_MAX for size, _ in calls)


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
    sig = khintchine_sigma([m])
    assert sig["sigma_sq"] == pytest.approx(1.0, rel=1e-9)


def test_sigma_k_permutations():
    n, k = 9, 4
    mats = []
    for shift in range(k):
        rows = np.arange(n)
        cols = (rows + shift) % n
        mats.append(sp.csr_matrix((np.ones(n), (rows, cols)), shape=(n, n)))
    sig = khintchine_sigma(mats)
    assert sig["sigma_sq"] == pytest.approx(k, rel=1e-9)
    assert sig["proxy"] == pytest.approx(k)  # max row/col degree 1 each


def test_sigma_proxy_dominates(rng):
    for t in range(50):
        k = int(rng.integers(2, 5))
        mats = [random_sparse(rng, 15, 18, 40) for _ in range(k)]
        mats = [abs(m) for m in mats]  # counting matrices
        sig = khintchine_sigma(mats)
        assert sig["proxy"] * (1 + 1e-9) >= sig["sigma_sq"]


def test_expected_norm_k1():
    M = sp.csr_matrix(np.arange(12, dtype=float).reshape(3, 4))
    mean, err = estimate_expected_norm([M])
    assert err == 0.0
    assert mean == pytest.approx(spectral_norm(M).value, rel=1e-9)


def test_expected_norm_cancellation():
    M = sp.csr_matrix(np.ones((3, 3)))
    mean, err = estimate_expected_norm([M, M])
    # signs (+,+)/(-,-) give |2M| = 6, (+,-)/(-,+) give 0
    assert mean == pytest.approx(3.0, rel=1e-9)


def test_khintchine_inequality_holds(rng):
    for t in range(10):
        k = int(rng.integers(2, 6))
        mats = [abs(random_sparse(rng, 12, 14, 30)) for _ in range(k)]
        sig = khintchine_sigma(mats)
        bound = khintchine_bound(sig["sigma_sq"], 12, 14)
        mean, _ = estimate_expected_norm(mats, seed=t)
        assert mean <= bound * (1 + 1e-9)



def test_sign_rows_shapes():
    rows = sign_rows(3)
    assert rows.shape == (8, 3) and set(np.unique(rows)) == {-1, 1}
    half = sign_rows(3, fix_first=True)
    assert half.shape == (4, 3) and (half[:, 0] == 1).all()
