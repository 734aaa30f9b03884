"""Spectral norms for sparse/implicit matrices and Rademacher-series bounds.

Signed norms |B(b)| come from Lanczos on the Gram operator of the smaller
side (A^T A or A A^T), with a deterministic all-ones start plus one seeded
random restart.  The recurrence keeps three vectors and the tridiagonal
T, not a basis, and stops once the top Ritz pair's residual is below the
tolerance; the Ritz value approaches the top eigenvalue from below, and
the residual bounds its relative error.  The solver is numpy only:
importing ``scipy.sparse.linalg`` would cost about 10 MB of resident
memory, and numpy's LAPACK SVD stays out so the test suite can keep it as
an independent oracle.

Expectations over uniform signs go through one loop, ``average_over_signs``:
exhaustive over b with b_1 = +1 up to EXHAUSTIVE_SIGN_LIMIT groups, Monte
Carlo above, optionally threaded.  Certificates feed it the cached norms of
a pruned graph (``refute.SignedFamily``), ``estimate_expected_norm`` the
norms of explicit group-matrix sums.

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
# Lanczos steps per start: the error after m steps decays like
# exp(-2 m sqrt(gap)), power iteration's like exp(-m gap), so on any gap
# where 10^4 power steps would not have converged, 300 Lanczos steps reach
# further; a dense eigh of T also stays cheap at this size
_LANCZOS_MAX_STEPS = 300
_RITZ_EVERY = 4  # Lanczos steps between eigensolves of T
_BREAKDOWN = 1e-12  # beta below this share of |G q| ends the recurrence
DENSE_COMPONENT_MAX = 32  # larger Gram components use power iteration
_DENSE_BATCH_ENTRIES = 1 << 16  # float64 entries per batched eigh call
_CW_TOL = 1e-13  # relative gap between Collatz-Wielandt and Rayleigh to stop


@dataclass(frozen=True)
class NormEstimate:
    value: float
    method: str  # "lanczos" | "empty"
    iterations: int  # Lanczos steps of the start that gave ``value``
    residual: float  # relative error bound on value^2; <= tol on success
    tol: float
    converged: bool

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "method": self.method,
            "iterations": self.iterations,
            "residual": self.residual,
            "tol": self.tol,
            "converged": self.converged,
        }


def _lanczos_top(gram, start, tol, maxit, trace=None):
    """Top Ritz value of the symmetric positive semidefinite operator
    ``gram`` from the three-term Lanczos recurrence started at ``start``.

    No basis is stored and nothing is reorthogonalised: by Paige's analysis
    the extreme Ritz value and its residual stay reliable in finite
    precision; lost orthogonality only adds ghost copies of converged
    values.  Every _RITZ_EVERY steps the top eigenpair (theta, s) of the
    tridiagonal T is taken, and the loop stops once the residual
    |G y - theta y| = beta_j |s_j| of its Ritz vector y is at most
    tol * theta, when beta_j vanishes (an invariant subspace, where theta is
    exact), or after min(maxit, _LANCZOS_MAX_STEPS) steps.  ``trace``, if a
    list, receives theta at every checkpoint.  Returns
    (theta, steps, residual / theta, converged).
    """
    q = start / np.linalg.norm(start)
    q_prev = np.zeros_like(q)
    alphas: list[float] = []
    betas: list[float] = []
    beta = 0.0
    steps = max(1, min(maxit, _LANCZOS_MAX_STEPS))
    for j in range(1, steps + 1):
        w = gram(q) - beta * q_prev
        alpha = float(q @ w)
        w -= alpha * q
        beta_prev, beta = beta, float(np.linalg.norm(w))
        # |G q|^2 = beta_prev^2 + alpha^2 + beta^2 in exact arithmetic
        invariant = beta <= _BREAKDOWN * (abs(alpha) + beta_prev)
        alphas.append(alpha)
        betas.append(beta)
        if invariant or j % _RITZ_EVERY == 0 or j == steps:
            off = np.arange(j - 1)
            T = np.diag(alphas)
            T[off, off + 1] = T[off + 1, off] = betas[:-1]
            vals, vecs = np.linalg.eigh(T)
            theta = float(vals[-1])
            bound = beta * abs(float(vecs[-1, -1]))
            if trace is not None:
                trace.append(theta)
            if invariant or bound <= tol * theta or j == steps:
                break
        q_prev, q = q, w / beta
    resid = 0.0 if bound == 0 else bound / max(theta, np.finfo(float).tiny)
    return max(theta, 0.0), j, resid, resid <= tol


def _matvec_pair(A):
    """(A@v, A.T@u) closures plus metadata for any supported matrix type."""
    if sp.issparse(A):
        Ac = A.tocsr()
        # a CSC view sharing Ac's arrays, built once: no copy, no per-call setup
        return Ac.dot, Ac.T.dot, A.shape, A.nnz, True
    if isinstance(A, np.ndarray):
        return (
            lambda v: A @ v,
            lambda u: A.T @ u,
            A.shape,
            int(np.count_nonzero(A)),
            True,
        )
    return lambda v: A.matvec(v), lambda u: A.rmatvec(u), A.shape, None, False


def spectral_norm(
    A, tol: float = DEFAULT_TOL, maxit: int = DEFAULT_MAXIT, seed: int = 0,
    probes: int = 3, trace=None,
) -> NormEstimate:
    """Top singular value of a dense array, sparse matrix, or LinearOperator.

    Lanczos (``_lanczos_top``) on the Gram operator of the smaller side,
    A^T A when A has no more columns than rows and A A^T otherwise, from the
    all-ones start plus one seeded random restart; the larger value is
    kept.  ``residual`` bounds the relative error of value^2, so it bounds
    that of value with a factor two to spare.  Random bilinear probes and
    the L1 row/column bound are asserted afterwards as sanity guards
    (explicit matrices only).  ``trace``, if a list, collects the top Ritz
    values of the first start, one per checkpoint.
    """
    mv, rmv, shape, nnz, explicit = _matvec_pair(A)
    n_rows, n_cols = shape
    if n_rows == 0 or n_cols == 0 or nnz == 0:
        return NormEstimate(0.0, "empty", 0, 0.0, tol, True)
    if n_cols <= n_rows:
        dim, gram = n_cols, lambda v: rmv(mv(v))
    else:
        dim, gram = n_rows, lambda u: mv(rmv(u))

    rng = np.random.default_rng(seed)
    starts = [np.ones(dim), rng.standard_normal(dim)]
    best = (0.0, 0, 0.0, True)
    for idx, st in enumerate(starts):
        got = _lanczos_top(gram, st, tol, maxit,
                           trace=trace if idx == 0 else None)
        if got[0] > best[0]:
            best = got
    theta, it, resid, conv = best
    val = float(np.sqrt(theta))

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
    return NormEstimate(val, "lanczos", it, float(resid), tol, conv)


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


def average_over_signs(norm_of, k: int, trials: int, rng, threads: int = 1):
    """(mean, stderr, exhaustive?, draws) of ``norm_of(b)`` over uniform
    b in {+-1}^k.

    Exhaustive when k <= EXHAUSTIVE_SIGN_LIMIT, using the global-flip
    symmetry to halve the enumeration (stderr 0); otherwise ``trials`` rows
    drawn from ``rng``.  Values are reduced in row order, threaded or not.
    """
    if k <= EXHAUSTIVE_SIGN_LIMIT:
        rows = sign_rows(k, fix_first=True)
        exhaustive = True
    else:
        rows = 1 - 2 * rng.integers(0, 2, size=(trials, k)).astype(np.int8)
        exhaustive = False
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            vals = list(ex.map(norm_of, rows))
    else:
        vals = [norm_of(b) for b in rows]
    arr = np.asarray(vals)
    stderr = 0.0 if exhaustive else float(arr.std(ddof=1) / np.sqrt(len(arr)))
    return float(arr.mean()), stderr, exhaustive, len(rows)


def estimate_expected_norm(
    group_mats, trials: int = 200, seed: int = 0, tol: float = DEFAULT_TOL,
    threads: int = 1,
):
    """Mean and stderr of |sum_i b_i X_i| over uniform signs b, by
    ``average_over_signs`` with the Monte Carlo rows drawn from ``seed``."""
    mats = [m.tocsr() for m in group_mats]
    k = len(mats)
    if k == 0:
        return 0.0, 0.0

    def norm_for(b):
        acc = float(b[0]) * mats[0]
        for i in range(1, k):
            acc = acc + float(b[i]) * mats[i]
        return spectral_norm(acc, tol=tol, seed=seed).value

    mean, stderr, _, _ = average_over_signs(
        norm_for, k, trials, np.random.default_rng(seed), threads=threads
    )
    return mean, stderr
