"""Spectral norms for sparse and dense matrices and Rademacher-series bounds.

Signed norms |B(b)| come from one Lanczos recurrence run on a block of c
matrices at once (``block_spectral_norms``): the caller builds their
block-diagonal matrix once, and each step is one product with it and one
with its transpose, on the Gram operator of the smaller side (A^T A or
A A^T), from one seeded random start.  The recurrence keeps three (c, dim)
arrays and the tridiagonal T per column, not a basis, and a column stops
once its top Ritz pair's residual is below the tolerance; the Ritz value
approaches the top eigenvalue from below, and the residual bounds its
relative error.  A stopped column enters later products as a zero row.
Every operation is row-wise, so a column gets the same steps and bits in
any block; ``spectral_norm`` is the one-matrix case.  The solver is numpy
only: importing ``scipy.sparse.linalg`` would cost about 10 MB of resident
memory, and numpy's LAPACK SVD stays out so the test suite can keep it as
an independent oracle.

Expectations over uniform signs go through one loop, ``average_over_signs``:
exhaustive over b with b_1 = +1 up to EXHAUSTIVE_SIGN_LIMIT groups, Monte
Carlo above; it hands all rows to one batched callback.  Its one caller,
``refute``'s spectral route, feeds it the cached, block-solved norms of a
pruned graph (``refute.SignedFamily``).  The rows come from
``instances.sign_rows``, the enumerator the exact oracle uses too.

The support of a signed matrix does not depend on the signs, and its norm
is the largest over the support's connected components, each at most the
norm of the unsigned count matrix there.  ``ComponentBounds`` bounds every
component's at once by the first Collatz-Wielandt step from the all-ones
vector, one product with the Gram matrix, and tightens a bound by further
power steps only when asked, on the Gram rows of the components asked for.
A refined bound is never above the first-step one and has the same bits
whichever components are refined beside it, so callers can skip the
components that cannot reach a norm already found, and refine only those
whose first-step bound could.

The Matrix-Khintchine variance sigma^2 needs no iteration over signs: the
group matrices are sign-free, so both Gram matrices are built explicitly,
each by one sparse product on the groups stacked side by side or on top of
each other (``KikuchiGraph.group_stacks``), split into connected
components, and bounded per component by Collatz-Wielandt.  Components
up to DENSE_COMPONENT_MAX vertices start at the Perron vector of a batched
dense eigh; larger ones run together from the all-ones vector through
``_cw_from_ones``, the runner that the norm screen's ``refine`` uses, which
works row by row, so a component gets the same bits alone or in a batch.
That value is a rigorous upper bound and equal to the exact one up to
rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import sp
from .instances import sign_rows

DEFAULT_TOL = 1e-9
DEFAULT_MAXIT = 10_000
EXHAUSTIVE_SIGN_LIMIT = 12  # enumerate all 2^k sign vectors up to here
# Lanczos steps per solve: the error after m steps decays like
# exp(-2 m sqrt(gap)), power iteration's like exp(-m gap), so on any gap
# where 10^4 power steps would not have converged, 300 Lanczos steps reach
# further; a dense eigh of T also stays cheap at this size
_LANCZOS_MAX_STEPS = 300
_RITZ_EVERY = 4  # Lanczos steps between eigensolves of T
_BREAKDOWN = 1e-12  # beta below this share of |G q| ends the recurrence
DENSE_COMPONENT_MAX = 32  # larger Gram components run power steps from ones
_DENSE_BATCH_ENTRIES = 1 << 16  # float64 entries per batched eigh call
_CW_TOL = 1e-13  # relative gap between Collatz-Wielandt and Rayleigh to stop
_SCREEN_TOL = 1e-3  # that gap for the norm screen: its bounds only pick what is solved
_PROBES = 3  # random bilinear forms checked against each norm


@dataclass(frozen=True)
class NormEstimate:
    value: float
    method: str  # "lanczos" | "empty"
    iterations: int  # Lanczos steps taken
    residual: float  # relative error bound on value^2; <= tol on success
    tol: float
    converged: bool


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


def _lanczos_top(gram, start, c, tol):
    """Top Ritz values of c symmetric positive semidefinite operators from
    the three-term Lanczos recurrence, every column started at ``start``.

    ``gram(Q)`` applies the operators to the rows of Q, shape (c, dim), one
    row each.  No basis is stored and nothing is reorthogonalised: by
    Paige's analysis the extreme Ritz value and its residual stay reliable
    in finite precision; lost orthogonality only adds ghost copies of
    converged values.  Every _RITZ_EVERY steps the top eigenpairs (theta, s)
    of the live columns' tridiagonal T come from batched eigh calls, and a
    column stops once the residual |G y - theta y| = beta_j |s_j| of its
    Ritz vector y is at most tol * theta, when its beta_j vanishes (an
    invariant subspace, where theta is exact), or after _LANCZOS_MAX_STEPS
    steps.  A stopped column keeps its row, zeroed, and leaves the boolean
    ``live`` mask; every operation is row-wise, so each column stops at the
    step and with the bits it would have alone.
    Returns arrays (theta, steps, residual / theta, converged).
    """
    steps = _LANCZOS_MAX_STEPS
    q = np.tile(start / np.linalg.norm(start), (c, 1))
    q_prev = np.zeros_like(q)
    beta = np.zeros(c)
    # T's diagonal and off-diagonal so far, one row per column
    alphas = np.zeros((c, steps))
    betas = np.zeros((c, steps))
    theta = np.zeros(c)
    its = np.zeros(c, dtype=np.int64)
    resid = np.zeros(c)
    live = np.ones(c, dtype=bool)
    for j in range(1, steps + 1):
        w = gram(q)
        w -= beta[:, None] * q_prev
        # one BLAS dot per row, so a column keeps its bits in a block of any
        # size, the same as q[t] @ w[t]; an einsum over long rows does not
        alpha = np.vecdot(q, w)
        w -= alpha[:, None] * q
        beta_prev, beta = beta, np.sqrt(np.vecdot(w, w))
        # |G q|^2 = beta_prev^2 + alpha^2 + beta^2 in exact arithmetic
        invariant = live & (beta <= _BREAKDOWN * (np.abs(alpha) + beta_prev))
        alphas[:, j - 1] = alpha
        betas[:, j - 1] = beta
        if j % _RITZ_EVERY == 0 or j == steps:
            check = np.flatnonzero(live)
        else:
            check = np.flatnonzero(invariant)
        if check.size:
            top, last = _tridiagonal_tops(alphas[check, :j], betas[check, :j - 1])
            bound = beta[check] * np.abs(last)
            done = invariant[check] | (bound <= tol * top) | (j == steps)
            if done.any():
                stop, top, bound = check[done], top[done], bound[done]
                theta[stop] = np.maximum(top, 0.0)
                its[stop] = j
                resid[stop] = np.where(
                    bound == 0, 0.0, bound / np.maximum(top, np.finfo(float).tiny))
                live[stop] = False
                if not live.any():
                    break
                # a stopped column's q and q_prev rows stay zero from here
                # on, so it enters every later product as a zero row
                q[stop] = w[stop] = 0.0
        beta[~live] = 1.0  # a zero row over a zero beta would divide 0 by 0
        w /= beta[:, None]
        q_prev, q = q, w
    return theta, its, resid, resid <= tol


def block_spectral_norms(
    A, c: int, tol: float = DEFAULT_TOL, seed: int = 0,
    upper: float | None = None,
) -> list[NormEstimate]:
    """Top singular values of the c diagonal blocks A_0 .. A_{c-1}, all of
    one shape, of the block-diagonal matrix ``A``, solved together.

    ``A`` is anything with ``@`` and ``.T`` on flat vectors.  Each Lanczos
    step is one product with it and one with its transpose, on the Gram
    operator of the smaller side (A_t^T A_t when A_t has no more columns
    than rows, A_t A_t^T otherwise), from one ``default_rng(seed)`` normal
    start shared by every column.  A stopped column enters each product as a
    zero row; every row and every column of ``A`` lies in one block, so a
    live column's sums keep their order, and their bits, in any block.
    ``residual`` bounds the relative error of value^2, so it bounds that of
    value with a factor two to spare.  _PROBES random bilinear forms per
    column (one block product each) and ``upper``, an upper bound on every
    |A_t| such as the L1 row/column bound, are asserted afterwards as sanity
    guards; their draws follow the start's.
    """
    n_rows, n_cols = A.shape[0] // c, A.shape[1] // c
    # the smaller side's Gram operator: A^T A on columns, A A^T on rows
    first, second = (A, A.T) if n_cols <= n_rows else (A.T, A)

    def mul(mat, X):
        return (mat @ X.ravel()).reshape(c, -1)

    def gram(Q):
        return mul(second, mul(first, Q))

    rng = np.random.default_rng(seed)
    theta, its, resid, conv = _lanczos_top(
        gram, rng.standard_normal(min(n_rows, n_cols)), c, tol)
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


def spectral_norm(A, tol: float = DEFAULT_TOL, seed: int = 0) -> NormEstimate:
    """Top singular value of a dense array or sparse matrix:
    ``block_spectral_norms`` on one matrix, with its L1 row/column bound as
    the upper guard."""
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
    return block_spectral_norms(A, 1, tol=tol, seed=seed, upper=upper)[0]


def _components(S) -> np.ndarray:
    """Connected-component labels of the graph of a symmetric sparse matrix.

    Min-label hooking plus pointer jumping over the edge list, each edge
    read once from its entry above the diagonal: each round, every tree
    root takes the smallest root across any edge leaving its tree, then
    pointers are collapsed until every vertex points at a root, and the
    edges now inside one tree are dropped.  A pointer never rises above its
    vertex, so a component's label is its smallest vertex index.
    """
    label = np.arange(S.shape[0])
    u = np.repeat(label, np.diff(S.indptr))
    upper = u < S.indices
    u, v = u[upper], S.indices[upper]
    while True:
        lu, lv = label[u], label[v]
        apart = lu != lv
        if not apart.any():
            return label
        u, v, lu, lv = u[apart], v[apart], lu[apart], lv[apart]
        np.minimum.at(label, np.maximum(lu, lv), np.minimum(lu, lv))
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped


def _collatz_wielandt(mul, w, sizes, tol: float = _CW_TOL) -> np.ndarray:
    """Smallest Collatz-Wielandt bound max_j (S w)_j / w_j seen along power
    iteration, per diagonal block of a nonnegative block-diagonal S.

    ``w`` is the flat nonnegative start vector and ``sizes`` the lengths of
    its segments, one per block in order.  ``mul(live, w)`` returns S w for
    the blocks indexed by ``live``, ``w`` holding their segments one after
    another.  Every such max is an upper bound on the block's top eigenvalue
    (an entry w_j = 0 counts as infinite), so the result is one however far
    the loop got; a block stops once its bound meets its Rayleigh quotient, a
    lower bound, to ``tol``, or after DEFAULT_MAXIT steps.  Power steps also
    repair eigenvector entries that are tiny and so carry large relative
    error.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    best = np.full(len(sizes), np.inf)
    live = np.arange(len(sizes))
    starts = np.cumsum(sizes) - sizes
    for _ in range(DEFAULT_MAXIT):
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


def _cw_from_ones(S, verts, sizes, tol: float) -> np.ndarray:
    """Collatz-Wielandt bound of each diagonal block of S on the vertices
    ``verts``, grouped by block with ``sizes`` vertices each, by
    ``_collatz_wielandt`` power steps from the all-ones vector on those Gram
    rows alone.  S is nonnegative and symmetric, and every vertex in
    ``verts`` has a positive diagonal entry, so the iterates stay strictly
    positive.  A settled block's rows are masked out of each product by a
    per-row block index until the live rows fall below half of the matrix;
    then it is cut to them by indptr arithmetic.  A live row sums only its
    own block's entries, in S's order, so a block's bound has the same bits
    whichever blocks run beside it."""
    rows = S[verts]
    local = np.full(S.shape[0], -1, dtype=np.int64)
    local[verts] = np.arange(len(verts))
    R = sp.csr_matrix((rows.data, local[rows.indices], rows.indptr),
                      shape=(len(verts), len(verts)))
    block = np.repeat(np.arange(len(sizes)), sizes)  # R's row -> its block

    def mul(live, w):
        nonlocal R, block
        if len(w) < len(block):
            on = np.zeros(len(sizes), dtype=bool)
            on[live] = True
            at = on[block]
            if 2 * len(w) >= len(block):
                full = np.zeros(len(block))
                full[at] = w
                return (R @ full)[at]
            # a live block's entries lie in its own rows and columns
            entries = np.repeat(at, np.diff(R.indptr))
            R = sp.csr_matrix(
                (R.data[entries], (np.cumsum(at) - 1)[R.indices[entries]],
                 np.append(0, np.cumsum(np.diff(R.indptr)[at]))),
                shape=(len(w), len(w)))
            block = block[at]
        return R @ w

    return _collatz_wielandt(mul, np.ones(len(verts)), sizes, tol=tol)


def _top_eig_bound(S) -> float:
    """Upper bound on the top eigenvalue of a symmetric, entrywise
    nonnegative sparse matrix whose nonempty rows have a positive diagonal
    entry; rigorous in exact arithmetic and equal to the eigenvalue up to
    rounding.

    Maximum over connected components: a single vertex gives its diagonal
    entry, components up to DENSE_COMPONENT_MAX vertices are batched by
    size into dense eigh calls, larger ones all go to one ``_cw_from_ones``
    run.
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
    big = int(np.searchsorted(by_size, DENSE_COMPONENT_MAX + 1))
    if big < len(order):
        cw = _cw_from_ones(S, order[big:], by_size[first[first >= big]], _CW_TOL)
        best = max(best, float(cw.max()))
    pos = np.empty_like(order)
    pos[order] = np.arange(len(order)) - np.repeat(first, by_size[first])
    P = S[order]
    for s in np.unique(by_size[:big]).tolist():
        lo, hi = np.searchsorted(by_size, [s, s + 1])
        step = s * max(1, _DENSE_BATCH_ENTRIES // (s * s))
        for a in range(lo, hi, step):
            b = min(a + step, hi)
            e0, e1 = P.indptr[a], P.indptr[b]
            local = np.repeat(np.arange(b - a), np.diff(P.indptr[a:b + 1]))
            blocks = np.zeros(((b - a) // s, s, s))
            blocks[local // s, local % s, pos[P.indices[e0:e1]]] = P.data[e0:e1]
            best = max(best, float(_perron_dense(blocks).max()))
    return best


def _gram(X, transpose: bool):
    """(S, margin): S = X X^T (X^T X with ``transpose``) for a nonnegative
    CSR matrix X, and the factor 1 + steps * eps that lifts a
    Collatz-Wielandt bound computed on S over its rounding.  With
    ``transpose`` S is the transpose of the product X^T X, which sorts its
    indices in one linear pass; S is symmetric, so its entry (i, j) is the
    sum of X_ki X_kj over rows k in increasing k, as X^T X has it.  A
    product stores no zero sums.

    The margin covers the rounding of the Gram sums (at most ``terms``
    products per entry), of S w and of the final division.
    """
    if transpose:
        S = (X.T.tocsr() @ X).T.tocsr()
        terms = np.bincount(X.indices, minlength=X.shape[1])
    else:
        S = X @ X.T
        terms = np.diff(X.indptr)
    steps = int(terms.max(initial=0)) + int(np.diff(S.indptr).max(initial=0)) + 2
    return S, 1.0 + steps * float(np.finfo(float).eps)


def _gram_top(X, transpose: bool) -> float:
    """Rigorous upper bound on the top eigenvalue of X X^T (of X^T X with
    ``transpose``) for a nonnegative CSR matrix X."""
    S, margin = _gram(X, transpose)
    return float(_top_eig_bound(S)) * margin


class ComponentBounds:
    """Support components of a nonnegative sparse matrix A and a rigorous
    upper bound on the spectral norm of A restricted to each, refined on
    demand.

    The support graph joins row i to column j where A_ij != 0; with
    ``symmetric`` (A = A^T) row i and column i are one vertex, so a
    component whose graph is bipartite stays whole instead of splitting into
    two transposed halves of equal norm.  A component's bound is the square
    root of a Collatz-Wielandt bound on its block of the Gram matrix S of
    A's smaller side, with ``_gram``'s rounding margin.  Construction takes
    one product y = S 1: a component's bound starts from its largest Gram
    row sum (the first Collatz-Wielandt step), and ``lower``, the square
    root of |y|^2 / 1^T y over the component (the Rayleigh quotient of S at
    S^(1/2) 1), is a lower bound on its norm.  ``refine(mask)`` runs the
    power steps from the all-ones vector (``_cw_from_ones``) on the Gram
    rows of the masked components alone, until each bound meets its Rayleigh
    quotient to _SCREEN_TOL.  A refined bound is never above the first-step
    bound, and the steps are row-wise, so a component's refined bound has the
    same bits whichever components are refined beside it.  A lone component, whose
    bound could never skip anything, gets +inf, counts as refined, and no
    Gram matrix is formed.

    ``row_comp`` holds each row's component index, -1 for an empty row;
    ``bounds``, ``lower`` and ``refined`` one entry per component.
    """

    def __init__(self, A, symmetric: bool = False):
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
        # labels are vertex ids: a component's index is its label's rank
        # among the labels that hold a row
        held = np.bincount(row_label, minlength=len(label)) > 0
        index = np.cumsum(held) - 1
        n_comp = int(np.count_nonzero(held))
        self.row_comp = np.full(A.shape[0], -1, dtype=np.int64)
        self.row_comp[filled] = index[row_label]
        self.refined = np.full(n_comp, n_comp < 2)
        if n_comp < 2:
            self.bounds = np.full(n_comp, np.inf)
            self.lower = np.zeros(n_comp)
            return
        self._S, self._margin = _gram(A, transpose)
        # Gram vertices holding an entry, grouped by component; every one of
        # them has a positive diagonal, so the power iterates stay positive
        used = np.flatnonzero(np.diff(self._S.indptr))
        comp = index[label[used]]
        self._sizes = np.bincount(comp, minlength=n_comp)
        # in the narrowest dtype: a stable sort of 16-bit keys is a radix sort
        self._order = used[np.argsort(comp.astype(np.min_scalar_type(n_comp)),
                                      kind="stable")]
        y = (self._S @ np.ones(self._S.shape[0]))[self._order]
        starts = np.cumsum(self._sizes) - self._sizes
        self.bounds = np.sqrt(np.maximum.reduceat(y, starts) * self._margin)
        self.lower = np.sqrt(np.add.reduceat(y * y, starts) / np.add.reduceat(y, starts))

    def refine(self, mask) -> int:
        """Refine the bounds of the components in the boolean ``mask`` that
        are not refined yet; returns how many were."""
        todo = mask & ~self.refined
        if not todo.any():
            return 0
        verts = self._order[np.repeat(todo, self._sizes)]
        cw = _cw_from_ones(self._S, verts, self._sizes[todo], _SCREEN_TOL)
        self.bounds[todo] = np.sqrt(cw * self._margin)
        self.refined[todo] = True
        return int(todo.sum())


def khintchine_sigma(wide, tall) -> dict:
    """sigma^2 = max(|sum X X^T|, |sum X^T X|) for fixed group matrices
    X = A_g, plus the walk-counting proxy k * max_row_deg * max_col_deg.

    The groups come as two CSR matrices (``KikuchiGraph.group_stacks``):
    ``wide`` = [A_0 ... A_{k-1}] side by side and ``tall`` = [A_0; ...; A_{k-1}]
    on top of each other, so sum X X^T = wide wide^T and sum X^T X =
    tall^T tall.  Each Gram matrix is built once, explicitly, and its top
    eigenvalue is taken per connected component (``_gram_top``), so
    ``sigma_sq`` is a rigorous upper bound (``guarantee``) that equals the
    exact value to about 1e-13.  Negative entries enter as their absolute
    values, which can only raise sigma^2; the pipeline's counting matrices
    are nonnegative already.
    """
    wide, tall = (m if m.data.min(initial=0.0) >= 0 else abs(m) for m in (wide, tall))
    row_norm = _gram_top(wide, transpose=False)
    col_norm = _gram_top(tall, transpose=True)
    # a group's rows are rows of tall, its columns columns of wide
    k = wide.shape[1] // tall.shape[1] if tall.shape[1] else 0
    max_row = np.asarray(tall.sum(axis=1)).max(initial=0.0)
    max_col = np.asarray(wide.sum(axis=0)).max(initial=0.0)
    return {
        "sigma_sq": max(row_norm, col_norm),
        "row_norm": row_norm,
        "col_norm": col_norm,
        "proxy": k * float(max_row) * float(max_col),
        "guarantee": "rigorous",
    }


def khintchine_bound(sigma_sq: float, d1: int, d2: int) -> float:
    """sqrt(2 sigma^2 ln(d1 + d2)); natural log."""
    if sigma_sq < 0:
        raise ValueError("sigma^2 must be nonnegative")
    if d1 < 1 or d2 < 1:
        raise ValueError("dimensions must be >= 1")
    return float(np.sqrt(2.0 * sigma_sq * np.log(d1 + d2)))


def thread_map(fn, items, threads: int = 1) -> list:
    """[fn(x) for x in items], on a pool of ``threads`` threads when more
    than one; the order is kept."""
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

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
