"""Spectral norms for sparse/implicit matrices and Rademacher-series bounds.

Signed norms |B(b)| come from power iteration on A^T A with a
deterministic all-ones start plus one seeded random restart.  Rayleigh
quotients of the power sequence increase geometrically toward the top
eigenvalue, so the limit is read off by Aitken extrapolation of
checkpointed quotients; this keeps iteration counts reasonable on
near-degenerate spectra where raw convergence is slow.  numpy's LAPACK SVD
is deliberately not used here so the test suite can keep it as an
independent oracle.

The Matrix-Khintchine variance sigma^2 needs no iteration over signs: the
group matrices are sign-free, so both Gram matrices are built explicitly,
split into connected components, and bounded per component by
Collatz-Wielandt at the Perron vector (batched dense eigh for small
components, power iteration for large ones).  That value is a rigorous
upper bound and equal to the exact one up to rounding.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

DEFAULT_TOL = 1e-9
DEFAULT_MAXIT = 10_000
EXHAUSTIVE_SIGN_LIMIT = 12  # enumerate all 2^k sign vectors up to here
_CHECK_EVERY = 8
DENSE_COMPONENT_MAX = 32  # larger Gram components use power iteration
_DENSE_BATCH_ENTRIES = 1 << 16  # float64 entries per batched eigh call
_CW_TOL = 1e-13  # relative gap between Collatz-Wielandt and Rayleigh to stop


@dataclass(frozen=True)
class NormEstimate:
    value: float
    method: str  # "dense_exact" | "power_iteration" | "empty"
    iterations: int
    residual: float  # relative error estimate of value; <= tol on success
    tol: float
    converged: bool
    lag: float = 0.0  # how far the raw Rayleigh quotient trailed the limit

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "method": self.method,
            "iterations": self.iterations,
            "residual": self.residual,
            "tol": self.tol,
            "converged": self.converged,
            "lag": self.lag,
        }


def _extrapolate(hist):
    """Aitken limit estimate from the last three checkpointed Rayleighs."""
    r1, r2, r3 = hist[-3], hist[-2], hist[-1]
    d1, d2 = r2 - r1, r3 - r2
    if d1 > 0 and 0 < d2 < d1:
        rho = d2 / d1
        return r3 + d2 * rho / (1.0 - rho)
    return r3


def _power_limit(rayleigh, dim, tol, maxit, start, trace=None):
    """Shared power loop: ``rayleigh(v)`` returns the quotient at the unit
    vector v together with the next (unnormalized) iterate.

    Stops when the raw quotient's increments die (plain convergence), or
    when consecutive Aitken limit estimates agree to ``tol`` while the raw
    quotient is reasonably close (geometric tail locked in), or at
    ``maxit``.  Returns (limit, iters, residual, lag, converged): residual
    estimates the limit's own relative error, lag reports how far the raw
    quotient still trailed it.
    """
    nrm = np.linalg.norm(start)
    if nrm == 0:
        return 0.0, 0, 0.0, 0.0, True
    v = start / nrm
    hist: list[float] = []
    it = 0
    last = 0.0
    limit_prev = None
    stable_count = 0
    while it < maxit:
        r, w = rayleigh(v)
        last = r
        if trace is not None:
            trace.append(r)
        it += 1
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return r, it, 0.0, 0.0, True
        v = w / nw
        if it % _CHECK_EVERY == 0 or it == 1:
            hist.append(r)
            scale = max(hist[-1], 1e-300)
            if len(hist) >= 2 and hist[-1] - hist[-2] <= tol * scale:
                # raw increments are dead; the quotient itself has converged
                limit = _extrapolate(hist) if len(hist) >= 3 else r
                scale = max(limit, 1e-300)
                lag = max(limit - r, 0.0) / scale
                return limit, it, min(lag, tol), lag, True
            if len(hist) >= 3:
                limit = _extrapolate(hist)
                scale = max(limit, 1e-300)
                lag = max(limit - r, 0.0) / scale
                gap = abs(limit - limit_prev) / scale if limit_prev is not None else np.inf
                if gap <= tol:
                    stable_count += 1
                else:
                    stable_count = 0
                if stable_count >= 2 and lag <= 0.05:
                    # geometric tail locked in; the limit is the estimate
                    return limit, it, gap, lag, True
                limit_prev = limit
    limit = _extrapolate(hist) if len(hist) >= 3 else last
    scale = max(limit, 1e-300)
    lag = max(limit - last, 0.0) / scale
    return limit, it, max(lag, tol), lag, False


def _matvec_pair(A):
    """(A@v, A.T@u) closures plus metadata for any supported matrix type."""
    if sp.issparse(A):
        Ac = A.tocsr()
        At = Ac.T.tocsr()
        return Ac.dot, At.dot, A.shape, A.nnz, True, "power_iteration"
    if isinstance(A, np.ndarray):
        return (
            lambda v: A @ v,
            lambda u: A.T @ u,
            A.shape,
            int(np.count_nonzero(A)),
            True,
            "dense_exact",
        )
    return (
        lambda v: A.matvec(v),
        lambda u: A.rmatvec(u),
        A.shape,
        None,
        False,
        "power_iteration",
    )


def spectral_norm(
    A, tol: float = DEFAULT_TOL, maxit: int = DEFAULT_MAXIT, seed: int = 0,
    probes: int = 3, trace=None,
) -> NormEstimate:
    """Top singular value of a dense array, sparse matrix, or LinearOperator.

    Runs from the all-ones start plus one seeded random restart and keeps
    the larger estimate.  Random bilinear probes and the L1 row/column
    bound are asserted afterwards as sanity guards (explicit matrices
    only).  ``trace``, if a list, collects the Rayleigh quotients of the
    first start for convergence diagnostics.
    """
    mv, rmv, shape, nnz, explicit, method = _matvec_pair(A)
    n_rows, n_cols = shape
    if n_rows == 0 or n_cols == 0 or nnz == 0:
        return NormEstimate(0.0, "empty", 0, 0.0, tol, True)

    def rayleigh(v):
        u = mv(v)
        w = rmv(u)
        return float(u @ u), w

    rng = np.random.default_rng(seed)
    starts = [np.ones(n_cols), rng.standard_normal(n_cols)]
    best = (0.0, 0, 0.0, 0.0, True)
    for idx, st in enumerate(starts):
        lim, it, resid, lag, conv = _power_limit(
            rayleigh, n_cols, tol, maxit, st,
            trace=trace if idx == 0 else None,
        )
        if lim > best[0]:
            best = (lim, it, resid, lag, conv)
    lim, it, resid, lag, conv = best
    val = float(np.sqrt(max(lim, 0.0)))

    if explicit and val > 0:
        for _ in range(probes):
            v = rng.standard_normal(n_cols)
            u = rng.standard_normal(n_rows)
            lower = abs(u @ mv(v)) / (np.linalg.norm(u) * np.linalg.norm(v))
            if lower > val * (1 + 1e-6) + 1e-12:
                raise AssertionError("norm estimate below a bilinear probe")
        absA = abs(A) if sp.issparse(A) else np.abs(A)
        row_l1 = float(absA.sum(axis=1).max())
        col_l1 = float(absA.sum(axis=0).max())
        upper = float(np.sqrt(row_l1 * col_l1))
        if val > upper * (1 + 1e-6) + 1e-12:
            raise AssertionError("norm estimate above the L1 bound")
    return NormEstimate(val, method, it, float(resid), tol, conv, float(lag))


def _components(S) -> np.ndarray:
    """Connected-component labels of the graph of a symmetric sparse matrix.

    Min-label hooking plus pointer jumping: each round, every tree root
    takes the smallest root adjacent to any of its members, then pointers
    are collapsed until every vertex points at a root.  A component's label
    is its smallest vertex index.
    """
    label = np.arange(S.shape[0])
    rows = np.flatnonzero(np.diff(S.indptr))
    if rows.size == 0:
        return label
    starts = S.indptr[rows]
    while True:
        own = label[rows]
        nbr_min = np.minimum(np.minimum.reduceat(label[S.indices], starts), own)
        if np.array_equal(nbr_min, own):
            return label
        np.minimum.at(label, own, nbr_min)
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped


def _collatz_wielandt(mul, w, tol: float = _CW_TOL,
                      maxit: int = DEFAULT_MAXIT) -> np.ndarray:
    """Smallest Collatz-Wielandt bound max_j (S w)_j / w_j seen along power
    iteration, per row of the nonnegative start vectors ``w`` (c, s).

    ``mul(live, w)`` returns S w for the blocks indexed by ``live``.  Every
    such max is an upper bound on the top eigenvalue of a nonnegative S (an
    entry w_j = 0 counts as infinite), so the result is one however far the
    loop got; a block stops once its bound meets its Rayleigh quotient, a
    lower bound, to ``tol``.  Power steps also repair eigenvector entries
    that are tiny and so carry large relative error.
    """
    best = np.full(len(w), np.inf)
    live = np.arange(len(w))
    for _ in range(maxit):
        y = mul(live, w)
        with np.errstate(divide="ignore", invalid="ignore"):
            upper = np.where(w > 0, y / w, np.inf).max(axis=1)
        best[live] = np.minimum(best[live], upper)
        rayleigh = (w * y).sum(axis=1) / (w * w).sum(axis=1)
        bound = best[live]
        unsettled = np.isinf(bound) | (bound - rayleigh > tol * bound)
        if not unsettled.any():
            break
        live, w, y = live[unsettled], w[unsettled], y[unsettled]
        w = y / y.max(axis=1, keepdims=True)
    return best


def _perron_dense(blocks) -> np.ndarray:
    """Collatz-Wielandt bound of each block of a (c, s, s) nonnegative
    symmetric array, started at the Perron vector from a batched eigh and
    capped by the max row sum (the bound at the all-ones vector)."""
    _, vecs = np.linalg.eigh(blocks)
    cw = _collatz_wielandt(
        lambda live, w: np.einsum("cij,cj->ci", blocks[live], w),
        np.abs(vecs[:, :, -1]),
    )
    return np.minimum(cw, blocks.sum(axis=2).max(axis=1))


def _perron_power(B) -> float:
    """Collatz-Wielandt bound of one sparse nonnegative symmetric block
    with a positive diagonal, by power iteration from the all-ones vector;
    the iterates of such a matrix stay strictly positive."""
    w = np.ones((1, B.shape[0]))
    return float(_collatz_wielandt(lambda live, w: (B @ w[0])[None], w)[0])


def _top_eig_bound(S) -> float:
    """Upper bound on the top eigenvalue of a symmetric, entrywise
    nonnegative sparse matrix whose nonempty rows have a positive diagonal
    entry; rigorous in exact arithmetic and equal to the eigenvalue up to
    rounding.

    Maximum over connected components: a single vertex gives its diagonal
    entry, components up to DENSE_COMPONENT_MAX vertices are batched by
    size into dense eigh calls, larger ones run ``_perron_power``.
    """
    # a row holding only its diagonal entry is a component of its own
    alone = np.diff(S.indptr) <= 1
    best = float(S.diagonal()[alone].max(initial=0.0))
    if alone.all():
        return best
    S = S[~alone][:, ~alone]
    _, comp, sizes = np.unique(_components(S), return_inverse=True,
                               return_counts=True)
    size_of = sizes[comp]
    # rows grouped by component, components grouped by size; pos is a
    # vertex's index inside its component
    order = np.lexsort((comp, size_of))
    by_size = size_of[order]
    run_comp = comp[order]
    first = np.flatnonzero(np.r_[True, run_comp[1:] != run_comp[:-1]])
    pos = np.empty_like(order)
    pos[order] = np.arange(len(order)) - np.repeat(first, by_size[first])
    P = S[order]
    for s in np.unique(by_size).tolist():
        lo, hi = np.searchsorted(by_size, [s, s + 1])
        if s > DENSE_COMPONENT_MAX:
            for a in range(lo, hi, s):
                blk = P[a:a + s]
                B = sp.csr_matrix((blk.data, pos[blk.indices], blk.indptr),
                                  shape=(s, s))
                best = max(best, _perron_power(B))
            continue
        step = s * max(1, _DENSE_BATCH_ENTRIES // (s * s))
        for a in range(lo, hi, step):
            b = min(a + step, hi)
            e0, e1 = P.indptr[a], P.indptr[b]
            local = np.repeat(np.arange(b - a), np.diff(P.indptr[a:b + 1]))
            blocks = np.zeros(((b - a) // s, s, s))
            blocks[local // s, local % s, pos[P.indices[e0:e1]]] = P.data[e0:e1]
            best = max(best, float(_perron_dense(blocks).max()))
    return best


def _gram_top(mats, transpose: bool) -> float:
    """Rigorous upper bound on the top eigenvalue of sum X X^T (of
    sum X^T X with ``transpose``) over nonnegative CSR matrices X.

    The margin covers the rounding of the Gram sums (at most ``terms``
    products per entry), of S w and of the final division.
    """
    if transpose:
        S = sum(m.T @ m for m in mats)
        terms = sum(np.bincount(m.indices, minlength=m.shape[1]) for m in mats)
    else:
        S = sum(m @ m.T for m in mats)
        terms = sum(np.diff(m.indptr) for m in mats)
    S = sp.csr_matrix(S)
    S.eliminate_zeros()
    steps = int(terms.max(initial=0)) + int(np.diff(S.indptr).max(initial=0)) + 2
    return float(_top_eig_bound(S)) * (1.0 + steps * float(np.finfo(float).eps))


def khintchine_sigma(group_mats) -> dict:
    """sigma^2 = max(|sum X X^T|, |sum X^T X|) for fixed group matrices,
    plus the walk-counting proxy k * max_row_deg * max_col_deg.

    Each Gram matrix is built once, explicitly, one group at a time, and
    its top eigenvalue is taken per connected component (``_gram_top``), so
    ``sigma_sq`` is a rigorous upper bound (``guarantee``) that equals the
    exact value to about 1e-13.  A group with negative entries enters as
    its entrywise absolute value, which can only raise sigma^2; the
    pipeline's counting matrices are nonnegative already.
    """
    mats = [sp.csr_matrix(m) for m in group_mats]
    mats = [m if m.data.min(initial=0.0) >= 0 else abs(m) for m in mats]
    if not mats:
        return {"sigma_sq": 0.0, "row_norm": 0.0, "col_norm": 0.0,
                "proxy": 0.0, "guarantee": "rigorous"}
    row_norm = _gram_top(mats, transpose=False)
    col_norm = _gram_top(mats, transpose=True)
    max_row = max(np.asarray(m.sum(axis=1)).max(initial=0.0) for m in mats)
    max_col = max(np.asarray(m.sum(axis=0)).max(initial=0.0) for m in mats)
    return {
        "sigma_sq": max(row_norm, col_norm),
        "row_norm": row_norm,
        "col_norm": col_norm,
        "proxy": len(mats) * float(max_row) * float(max_col),
        "guarantee": "rigorous",
    }


def khintchine_bound(sigma_sq: float, d1: int, d2: int) -> float:
    """sqrt(2 sigma^2 ln(d1 + d2)); natural log."""
    if sigma_sq < 0:
        raise ValueError("sigma^2 must be nonnegative")
    if d1 < 1 or d2 < 1:
        raise ValueError("dimensions must be >= 1")
    return float(np.sqrt(2.0 * sigma_sq * np.log(d1 + d2)))


def sign_rows(k: int, fix_first: bool = False) -> np.ndarray:
    """All +-1 vectors of length k; with ``fix_first`` only those with
    b_1 = +1 (norms of Rademacher sums are invariant under global flip)."""
    kk = k - 1 if fix_first else k
    idx = np.arange(1 << kk, dtype=np.uint64)
    rows = 1 - 2 * (
        (idx[:, None] >> np.arange(kk, dtype=np.uint64)[None, :]) & 1
    ).astype(np.int8)
    if fix_first:
        rows = np.hstack([np.ones((len(rows), 1), dtype=np.int8), rows])
    return rows


def estimate_expected_norm(
    group_mats, trials: int = 200, seed: int = 0, tol: float = DEFAULT_TOL,
    threads: int = 1,
):
    """Mean and stderr of |sum_i b_i X_i| over uniform signs b.

    Exhaustive when k <= 12, using the global-flip symmetry to halve the
    enumeration (stderr 0); Monte Carlo with per-trial derived seeds
    otherwise.  Trials are reduced in draw order, threaded or not.
    """
    mats = [m.tocsr() for m in group_mats]
    k = len(mats)
    if k == 0:
        return 0.0, 0.0

    def norm_for(b):
        acc = float(b[0]) * mats[0]
        for i in range(1, k):
            acc = acc + float(b[i]) * mats[i]
        return spectral_norm(acc, tol=tol, seed=seed).value

    if k <= EXHAUSTIVE_SIGN_LIMIT:
        rows = sign_rows(k, fix_first=True)
        exhaustive = True
    else:
        rng = np.random.default_rng(seed)
        rows = 1 - 2 * rng.integers(0, 2, size=(trials, k)).astype(np.int8)
        exhaustive = False
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            vals = list(ex.map(norm_for, rows))
    else:
        vals = [norm_for(b) for b in rows]
    arr = np.asarray(vals)
    if exhaustive:
        return float(arr.mean()), 0.0
    return float(arr.mean()), float(arr.std(ddof=1) / np.sqrt(trials))
