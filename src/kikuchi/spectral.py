"""Spectral norms for sparse and dense matrices and Rademacher-series bounds.

Signed norms |B(b)| come from one Lanczos recurrence run on a block of c
matrices at once (``block_spectral_norms``): the caller builds their
block-diagonal matrix once, and each step is one product with it and one
with its transpose, on the Gram operator of the smaller side (A^T A or
A A^T), from a deterministic all-ones start plus one seeded random restart.
The recurrence keeps three (c, dim) arrays and the tridiagonal T per
column, not a basis, and a column stops once its top Ritz pair's residual
is below the tolerance; the Ritz value approaches the top eigenvalue from
below, and the residual bounds its relative error.  A stopped column enters
later products as a zero row.  Every operation is row-wise, so a column gets
the same steps and bits in any block; ``spectral_norm`` is the one-matrix
case.  The solver is numpy only: importing
``scipy.sparse.linalg`` would cost about 10 MB of resident memory, and
numpy's LAPACK SVD stays out so the test suite can keep it as an
independent oracle.

Expectations over uniform signs go through one loop, ``average_over_signs``:
exhaustive over b with b_1 = +1 up to EXHAUSTIVE_SIGN_LIMIT groups, Monte
Carlo above; it hands all rows to one batched callback.  Certificates feed
it the cached, block-solved norms of a pruned graph
(``refute.SignedFamily``), ``estimate_expected_norm`` the norms of explicit
group-matrix sums.

The support of a signed matrix does not depend on the signs, and its norm
is the largest over the support's connected components, each at most the
norm of the unsigned count matrix there: ``component_norm_bounds`` bounds
every component's at once, by Collatz-Wielandt power steps over
component-sorted vertices, so callers can skip the components that cannot
reach a norm already found.

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
_SCREEN_TOL = 1e-3  # that gap for the norm screen: its bounds only pick what is solved
_PROBES = 3  # random bilinear forms checked against each norm


@dataclass(frozen=True)
class NormEstimate:
    value: float
    method: str  # "lanczos" | "empty"
    iterations: int  # Lanczos steps of the start that gave ``value``
    residual: float  # relative error bound on value^2; <= tol on success
    tol: float
    converged: bool


def _row_dots(a, b) -> np.ndarray:
    """Dot product of each row of ``a`` with the same row of ``b``.

    ``vecdot`` runs one BLAS dot per row, so a column gets the same bits in
    a block of any size and the same as ``a[t] @ b[t]``; an einsum over long
    rows does not."""
    return np.vecdot(a, b)


def _tridiagonal_tops(diag, off):
    """Top eigenvalue and the last entry of its eigenvector for each row's
    symmetric tridiagonal matrix, diagonal ``diag`` (c, j) and off-diagonal
    ``off`` (c, j - 1), by batched dense eigh of at most
    _DENSE_BATCH_ENTRIES entries per call."""
    c, j = diag.shape
    top, last = np.empty(c), np.empty(c)
    idx = np.arange(j)
    step = max(1, _DENSE_BATCH_ENTRIES // (j * j))
    for a in range(0, c, step):
        T = np.zeros((min(step, c - a), j, j))
        T[:, idx, idx] = diag[a:a + step]
        T[:, idx[:-1], idx[1:]] = T[:, idx[1:], idx[:-1]] = off[a:a + step]
        vals, vecs = np.linalg.eigh(T)
        top[a:a + step], last[a:a + step] = vals[:, -1], vecs[:, -1, -1]
    return top, last


def _lanczos_top(gram, start, c, tol, trace=None):
    """Top Ritz values of c symmetric positive semidefinite operators from
    the three-term Lanczos recurrence, every column started at ``start``.

    ``gram(live, Q)`` applies the operators indexed by ``live`` to the rows
    of Q, shape (len(live), dim).  No basis is stored and nothing is
    reorthogonalised: by Paige's analysis the extreme Ritz value and its
    residual stay reliable in finite precision; lost orthogonality only adds
    ghost copies of converged values.  Every _RITZ_EVERY steps the top
    eigenpairs (theta, s) of the columns' tridiagonal T come from batched
    eigh calls, and a column stops once the residual
    |G y - theta y| = beta_j |s_j| of its Ritz vector y is at most
    tol * theta, when its beta_j vanishes (an invariant subspace, where
    theta is exact), or after _LANCZOS_MAX_STEPS steps.  A
    stopped column leaves the live set; every operation is row-wise, so each
    column stops at the step and with the bits it would have alone.
    ``trace``, if a list, receives the checked columns' theta at every
    checkpoint.  Returns arrays (theta, steps, residual / theta, converged).
    """
    steps = _LANCZOS_MAX_STEPS
    q = np.tile(start / np.linalg.norm(start), (c, 1))
    q_prev = np.zeros_like(q)
    beta = np.zeros(c)
    # rows follow ``live``: T's diagonal and off-diagonal so far
    alphas = np.zeros((c, steps))
    betas = np.zeros((c, steps))
    theta = np.zeros(c)
    its = np.zeros(c, dtype=np.int64)
    resid = np.zeros(c)
    live = np.arange(c)
    for j in range(1, steps + 1):
        w = gram(live, q)
        w -= beta[:, None] * q_prev
        alpha = _row_dots(q, w)
        w -= alpha[:, None] * q
        beta_prev, beta = beta, np.sqrt(_row_dots(w, w))
        # |G q|^2 = beta_prev^2 + alpha^2 + beta^2 in exact arithmetic
        invariant = beta <= _BREAKDOWN * (np.abs(alpha) + beta_prev)
        alphas[:, j - 1] = alpha
        betas[:, j - 1] = beta
        if j % _RITZ_EVERY == 0 or j == steps:
            check = np.arange(live.size)
        else:
            check = np.flatnonzero(invariant)
        if check.size:
            top, last = _tridiagonal_tops(alphas[check, :j], betas[check, :j - 1])
            bound = beta[check] * np.abs(last)
            if trace is not None:
                trace.extend(top.tolist())
            done = invariant[check] | (bound <= tol * top) | (j == steps)
            if done.any():
                stop, top, bound = check[done], top[done], bound[done]
                theta[live[stop]] = np.maximum(top, 0.0)
                its[live[stop]] = j
                resid[live[stop]] = np.where(
                    bound == 0, 0.0, bound / np.maximum(top, np.finfo(float).tiny))
                keep = np.ones(live.size, dtype=bool)
                keep[stop] = False
                live, q, w, beta = live[keep], q[keep], w[keep], beta[keep]
                alphas, betas = alphas[keep], betas[keep]
                if not live.size:
                    break
        w /= beta[:, None]
        q_prev, q = q, w
    return theta, its, resid, resid <= tol


def block_spectral_norms(
    A, c: int, tol: float = DEFAULT_TOL, seed: int = 0,
    upper: float | None = None, trace=None,
) -> list[NormEstimate]:
    """Top singular values of the c diagonal blocks A_0 .. A_{c-1}, all of
    one shape, of the block-diagonal matrix ``A``, solved together.

    ``A`` is anything with ``@`` and ``.T`` on flat vectors.  Each Lanczos
    step is one product with it and one with its transpose, on the Gram
    operator of the smaller side (A_t^T A_t when A_t has no more columns
    than rows, A_t A_t^T otherwise), from the all-ones start and then one
    ``default_rng(seed)`` normal start shared by every column; per column
    the larger value is kept.  A stopped column enters each product as a
    zero row; every row and every column of ``A`` lies in one block, so a
    live column's sums keep their order, and their bits, in any block.
    ``residual`` bounds the relative error of value^2, so it bounds that of
    value with a factor two to spare.  _PROBES random bilinear forms per
    column (one block product each) and ``upper``, an upper bound on every
    |A_t| such as the L1 row/column bound, are asserted afterwards as sanity
    guards.  ``trace`` collects the top Ritz values of the first start at
    its checkpoints.
    """
    n_rows, n_cols = A.shape[0] // c, A.shape[1] // c
    # the smaller side's Gram operator: A^T A on columns, A A^T on rows
    first, second = (A, A.T) if n_cols <= n_rows else (A.T, A)

    def mul(mat, X):
        return (mat @ X.ravel()).reshape(c, -1)

    def gram(live, Q):
        if live.size == c:
            return mul(second, mul(first, Q))
        full = np.zeros((c, Q.shape[1]))  # stopped columns: zero rows
        full[live] = Q
        return mul(second, mul(first, full))[live]

    rng = np.random.default_rng(seed)
    dim = min(n_rows, n_cols)
    starts = [np.ones(dim), rng.standard_normal(dim)]
    best = (np.zeros(c), np.zeros(c, dtype=np.int64), np.zeros(c), np.ones(c, bool))
    for idx, st in enumerate(starts):
        got = _lanczos_top(gram, st, c, tol, trace=trace if idx == 0 else None)
        better = got[0] > best[0]
        best = tuple(np.where(better, g, b) for g, b in zip(got, best))
    theta, its, resid, conv = best
    val = np.sqrt(theta)

    cols = np.flatnonzero(val > 0)
    for _ in range(_PROBES if cols.size else 0):
        v, u = rng.standard_normal(n_cols), rng.standard_normal(n_rows)
        uAv = np.vecdot(mul(A, np.tile(v, (c, 1))), u)[cols]
        lower = np.abs(uAv) / (np.linalg.norm(u) * np.linalg.norm(v))
        if (lower > val[cols] * (1 + 1e-6) + 1e-12).any():
            raise AssertionError("norm estimate below a bilinear probe")
    if upper is not None and (val > upper * (1 + 1e-6) + 1e-12).any():
        raise AssertionError("norm estimate above the L1 bound")
    return [NormEstimate(float(val[t]), "lanczos", int(its[t]), float(resid[t]),
                         tol, bool(conv[t])) for t in range(c)]


def spectral_norm(A, tol: float = DEFAULT_TOL, seed: int = 0,
                  trace=None) -> NormEstimate:
    """Top singular value of a dense array or sparse matrix:
    ``block_spectral_norms`` on one matrix, with its L1 row/column bound as
    the upper guard.  ``trace``, if a list, collects the top Ritz values of
    the all-ones start, one per checkpoint.
    """
    if sp.issparse(A):
        A = A.tocsr()
        nnz = A.nnz
    else:
        nnz = int(np.count_nonzero(A))
    if min(A.shape) == 0 or nnz == 0:
        return NormEstimate(0.0, "empty", 0, 0.0, tol, True)
    absA = abs(A)
    upper = float(np.sqrt(float(absA.sum(axis=1).max())
                          * float(absA.sum(axis=0).max())))
    return block_spectral_norms(A, 1, tol=tol, seed=seed, upper=upper,
                                trace=trace)[0]


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


def _collatz_wielandt(mul, w, sizes, tol: float = _CW_TOL,
                      maxit: int = DEFAULT_MAXIT) -> np.ndarray:
    """Smallest Collatz-Wielandt bound max_j (S w)_j / w_j seen along power
    iteration, per diagonal block of a nonnegative block-diagonal S.

    ``w`` is the flat nonnegative start vector and ``sizes`` the lengths of
    its segments, one per block in order.  ``mul(live, w)`` returns S w for
    the blocks indexed by ``live``, ``w`` holding their segments one after
    another.  Every such max is an upper bound on the block's top eigenvalue
    (an entry w_j = 0 counts as infinite), so the result is one however far
    the loop got; a block stops once its bound meets its Rayleigh quotient, a
    lower bound, to ``tol``.  Power steps also repair eigenvector entries
    that are tiny and so carry large relative error.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    best = np.full(len(sizes), np.inf)
    live = np.arange(len(sizes))
    starts = np.cumsum(sizes) - sizes
    for _ in range(maxit):
        y = mul(live, w)
        with np.errstate(divide="ignore", invalid="ignore"):
            upper = np.maximum.reduceat(np.where(w > 0, y / w, np.inf), starts)
        best[live] = np.minimum(best[live], upper)
        rayleigh = np.add.reduceat(w * y, starts) / np.add.reduceat(w * w, starts)
        bound = best[live]
        unsettled = np.isinf(bound) | (bound - rayleigh > tol * bound)
        if not unsettled.any():
            break
        keep = np.repeat(unsettled, sizes[live])
        live, w, y = live[unsettled], w[keep], y[keep]
        starts = np.cumsum(sizes[live]) - sizes[live]
        w = y / np.repeat(np.maximum.reduceat(y, starts), sizes[live])
    return best


def _perron_dense(blocks) -> np.ndarray:
    """Collatz-Wielandt bound of each block of a (c, s, s) nonnegative
    symmetric array, started at the Perron vector from a batched eigh and
    capped by the max row sum (the bound at the all-ones vector)."""
    _, vecs = np.linalg.eigh(blocks)
    c, s, _ = blocks.shape
    cw = _collatz_wielandt(
        lambda live, w: np.einsum("cij,cj->ci", blocks[live],
                                  w.reshape(len(live), s)).ravel(),
        np.abs(vecs[:, :, -1]).ravel(), np.full(c, s),
    )
    return np.minimum(cw, blocks.sum(axis=2).max(axis=1))


def _perron_power(B) -> float:
    """Collatz-Wielandt bound of one sparse nonnegative symmetric block
    with a positive diagonal, by power iteration from the all-ones vector;
    the iterates of such a matrix stay strictly positive."""
    n = B.shape[0]
    return float(_collatz_wielandt(lambda live, w: B @ w, np.ones(n), [n])[0])


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


def _gram(mats, transpose: bool):
    """(S, margin): S = sum X X^T (sum X^T X with ``transpose``) over
    nonnegative CSR matrices X, and the factor 1 + steps * eps that lifts a
    Collatz-Wielandt bound computed on S over its rounding.

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
    return S, 1.0 + steps * float(np.finfo(float).eps)


def _gram_top(mats, transpose: bool) -> float:
    """Rigorous upper bound on the top eigenvalue of sum X X^T (of
    sum X^T X with ``transpose``) over nonnegative CSR matrices X."""
    S, margin = _gram(mats, transpose)
    return float(_top_eig_bound(S)) * margin


def component_norm_bounds(A, symmetric: bool = False):
    """Support components of a nonnegative sparse matrix A and a rigorous
    upper bound on the spectral norm of A restricted to each.

    The support graph joins row i to column j where A_ij != 0; with
    ``symmetric`` (A = A^T) row i and column i are one vertex, so a
    component whose graph is bipartite stays whole instead of splitting into
    two transposed halves of equal norm.  A component's bound is the square
    root of a Collatz-Wielandt bound on its block of the Gram matrix of A's
    smaller side, with ``_gram``'s rounding margin.  The power steps run on
    every component at once, from the all-ones vector, until each bound meets
    its Rayleigh quotient to _SCREEN_TOL.  A lone component, whose bound
    could never skip anything, gets +inf and no Gram matrix is formed.
    Returns (row_comp, bounds): each row's component index, -1 for an empty
    row, and one bound per component.
    """
    A = sp.csr_matrix(A)
    transpose = A.shape[1] <= A.shape[0]
    # the support graph with the Gram side's vertices first, so that a
    # component's label is its smallest Gram-side vertex
    G = A.T if transpose else A
    label = _components(A if symmetric else sp.bmat([[None, G], [G.T, None]],
                                                     format="csr"))
    filled = np.flatnonzero(np.diff(A.indptr))
    # with columns on the Gram side, a row takes its first entry's label
    row_label = label[A.indices[A.indptr[filled]]] if transpose else label[filled]
    labels = np.unique(row_label)
    row_comp = np.full(A.shape[0], -1, dtype=np.int64)
    row_comp[filled] = np.searchsorted(labels, row_label)
    if len(labels) < 2:
        return row_comp, np.full(len(labels), np.inf)
    S, margin = _gram([A], transpose)
    # Gram vertices holding an entry, grouped by component; every one of
    # them has a positive diagonal, so the power iterates stay positive
    used = np.flatnonzero(np.diff(S.indptr))
    _, comp, sizes = np.unique(label[used], return_inverse=True, return_counts=True)
    order = used[np.argsort(comp, kind="stable")]

    def mul(live, w):
        at = np.zeros(len(sizes), dtype=bool)
        at[live] = True
        at = order[np.repeat(at, sizes)]
        full = np.zeros(S.shape[0])  # settled components: zero entries
        full[at] = w
        return (S @ full)[at]

    cw = _collatz_wielandt(mul, np.ones(len(order)), sizes, tol=_SCREEN_TOL)
    return row_comp, np.sqrt(cw * margin)


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


def thread_map(fn, items, threads: int = 1) -> list:
    """[fn(x) for x in items], on a pool of ``threads`` threads when more
    than one; the order is kept."""
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            return list(ex.map(fn, items))
    return [fn(x) for x in items]


def average_over_signs(norms_of, k: int, trials: int, rng):
    """(mean, stderr, exhaustive?, draws) of norms over uniform b in {+-1}^k.

    ``norms_of`` maps a (c, k) array of sign rows to their c values.  The
    rows are every b with b_1 = +1 when k <= EXHAUSTIVE_SIGN_LIMIT, using
    the global-flip symmetry to halve the enumeration (stderr 0); otherwise
    ``trials`` rows drawn from ``rng``.  Values are reduced in row order.
    """
    if k <= EXHAUSTIVE_SIGN_LIMIT:
        rows = sign_rows(k, fix_first=True)
        exhaustive = True
    else:
        rows = 1 - 2 * rng.integers(0, 2, size=(trials, k)).astype(np.int8)
        exhaustive = False
    arr = np.asarray(norms_of(rows), dtype=float)
    stderr = 0.0 if exhaustive else float(arr.std(ddof=1) / np.sqrt(len(arr)))
    return float(arr.mean()), stderr, exhaustive, len(rows)


def estimate_expected_norm(
    group_mats, trials: int = 200, seed: int = 0, tol: float = DEFAULT_TOL,
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
        lambda rows: [norm_for(b) for b in rows], k, trials,
        np.random.default_rng(seed),
    )
    return mean, stderr
