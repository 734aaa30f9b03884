"""End-to-end refutation certificates for matching XOR instances.

One spectral route serves every Kikuchi graph: the graph is pruned to its
target degrees and the norms of its signed matrices B(b) are averaged over
b, and for every fixed b

    val  <=  (sqrt(N_L N_R) / D') |B(b)|_2  =  ratio |B(b)|_2,

N_L x N_R the graph's shape and D' the edges each label keeps.  Each route
returns a ``Refutation``, whose ``spectral(rows)`` is that bound per sign
row, or the route's trivial bound when pruning left no family; the two
subclasses differ only in how ``bounds`` transforms it.

Regular route (leftover instance): the square full pair graph (N_L = N_R)
bounds val(F_b), where F_b sums the derived pair constraints over all
ordered i != j and never exceeds its label count.  Squaring the polynomial
and Cauchy-Schwarz give, for every fixed b and every x,

    q^2 Psi_b(x)^2  <=  q n m  +  n F_b(x),      m = sum_i |H_i|,

which turns it into the regular ``bound``.  Alongside it the certificate
records a Matrix-Khintchine estimate over sampled partitions (L, R), each
graph a slice of the full one: F_b = 4 E f_{L,R} needs the mean over all
partitions, so the sampled mean is labelled ``khintchine_guarantee:
"estimate"`` and never enters a bound.  ``n_partitions=0`` skips it.

Bipartite route (decomposed pieces): z^T B w = D' Psi^(s)(x, y), so the
route bounds val(Psi^(s)_b) directly, no pair derivation needed.  The
measured total edge count of a piece is its trivial bound; it is sound for
every b, unlike the piece's asymptotic shorthand.

Per-b norms come from ``SignedFamily``: the distinct label-sign classes of
a certificate's sign rows are solved in blocks of sign columns, each block
one block-diagonal matrix built once and handed to one batched Lanczos
recurrence, with the L1 guard computed once per family.  B(b) is
block-diagonal over the b-independent components of its support, so a
family bounds each component's norm sign-free once (P_C), solves every
column on the component of largest P_C first, and then only on the other
components whose P_C lies above the norm found.  Per-b bounds are asked the
same way: each refutation's ``bounds(rows)`` takes a (c, k) array of sign
rows and makes one ``norms`` call per family.

Everything is deterministic under the master seed, whatever the block size
or thread count.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._version import __version__ as _version
from .decompose import (
    DecomposedInstance,
    Thresholds,
    compute_thresholds,
    decompose,
    heavy_sets,
)
from .graphs import (
    KikuchiGraph,
    assemble_bipartite,
    assemble_regular_cs,
    cs_pair_labels,
    pair_partition,
)
from .instances import (
    BipartiteXorInstance,
    XorInstance,
    brute_force_val,
    val_for_all_signs,
)
from .prune import (
    PrunedGraph,
    PruningError,
    analytic_degree_shapes,
    prune,
    target_degrees,
)
from .spectral import (
    average_over_signs,
    block_spectral_norms,
    component_norm_bounds,
    khintchine_bound,
    khintchine_sigma,
    sign_rows,
    spectral_norm,  # noqa: F401  perfbench's tracer wraps refute.spectral_norm
    thread_map,
)

BLOCK_ENTRIES = 1 << 16  # stored entries of one block-diagonal norm solve
SOUNDNESS_GUARD = 1e-6
# failures the pipeline raises on purpose: a norm solver guard, a graph too
# large for memory, pruning that empties a label, an invalid parameter
REFUTATION_ERRORS = (AssertionError, MemoryError, PruningError, ValueError)


class RegularityError(RuntimeError):
    """The instance still has heavy sets; decompose before refuting."""


@dataclass(frozen=True)
class Partition:
    left: tuple
    right: tuple
    seed: int

    def to_dict(self):
        return {"L": [i + 1 for i in self.left],
                "R": [i + 1 for i in self.right], "seed": self.seed}


def sample_partitions(k: int, count: int, seed: int) -> list[Partition]:
    """Uniform iid membership: each index lands in L with probability 1/2."""
    out = []
    for r in range(count):
        rng = np.random.default_rng((seed, 7001, r))
        mask = rng.integers(0, 2, size=k)
        left = tuple(int(i) for i in np.flatnonzero(mask == 1))
        right = tuple(int(i) for i in np.flatnonzero(mask == 0))
        out.append(Partition(left=left, right=right, seed=r))
    return out


def eval_f(inst: XorInstance, partition: Partition, b, x) -> int:
    """Direct evaluation of the pair polynomial f_{L,R}(x)."""
    total = 0
    for (i, j, u, c1, c2) in cs_pair_labels(inst, partition.left, partition.right):
        mono = int(b[i]) * int(b[j])
        for v in c1:
            mono *= int(x[v])
        for v in c2:
            mono *= int(x[v])
        total += mono
    return total


def eval_full_pairs(inst: XorInstance, b, x) -> int:
    """F_b(x): the pair polynomial over all ordered i != j."""
    everything = tuple(range(inst.k))
    return eval_f(inst, Partition(everything, everything, seed=0), b, x)


class SignedFamily:
    """Norm cache over a pruned graph's signed matrices B(b).

    Norms are cached by the realized label-sign vector up to a global flip,
    so distinct b hitting the same label signs or their negation (b and -b
    always do) share one solve.  The classes still missing are solved in
    blocks of BLOCK_ENTRIES // (entries solved per column) sign columns,
    blocks mapped over ``threads``; a column's value does not depend on its
    block.  Every stored entry is +-1 and duplicates are stored apart, so
    sqrt(max row count * max column count) bounds every |B(b)|: the L1
    guard, computed once here.

    The support of B(b) does not depend on b, and B(b) is block-diagonal
    over the support's connected components, so |B(b)| = max_C |B_C(b)| and
    |B_C(b)| <= P_C, a rigorous bound on the norm of the unsigned count
    matrix on C (``component_norm_bounds``), also computed once here.  A
    block is solved in two phases, each one ``block_spectral_norms`` run on
    the block-diagonal matrix of the columns' signed submatrices: first on
    the components of largest P_C (one, unless several tie), whose Ritz
    values L_t are lower bounds on |B(b_t)|; then on the other components
    with P_C > L_t, if any, one run per such set of components, so a
    column's value depends on its own L_t alone.  Each column reports the
    larger of its residual-inflated values; every component left out has
    |B_C(b_t)| <= P_C <= L_t.
    """

    def __init__(self, graph: PrunedGraph):
        self.graph = graph
        self.nnz = graph.n_edges
        # built once here, not racing in worker threads
        _, indices, indptr = graph._structure()
        self._row_entries = np.diff(indptr)
        self.upper = math.sqrt(float(self._row_entries.max(initial=0))
                               * float(np.bincount(indices).max(initial=0)))
        counts = graph.to_csr()
        counts.sum_duplicates()
        row_component, bounds = component_norm_bounds(counts, graph.symmetric)
        # components by decreasing bound: each row's place in that order, and
        # len(bounds) for an empty row
        order = np.argsort(-bounds, kind="stable")
        self.bounds = bounds[order]
        place = np.empty(len(bounds) + 1, dtype=np.int64)
        place[order] = np.arange(len(bounds))
        place[-1] = len(bounds)
        self.rank = place[row_component]
        # no Ritz value reaches the largest bound (L_t <= |A_top| < P_top), so
        # the components tied at it are never skipped: all are solved first
        self.first = int(np.count_nonzero(self.bounds == self.bounds[:1]))
        self._norm_cache: dict[bytes, float] = {}

    def norms(self, rows, seed: int = 0, threads: int = 1) -> np.ndarray:
        """Certificate-side norms for a (c, k) array of sign rows: each
        Lanczos estimate, a Ritz value from below, inflated by its residual
        (a relative error bound on the squared norm), so an unconverged
        solve loosens bounds instead of undercutting them."""
        signs = self.graph.signs_for(rows)
        if self.nnz == 0:
            return np.zeros(len(signs))
        # one key per +- class; the first row of a class is the one solved
        keys = [(row * row[0]).tobytes() for row in signs]
        todo = {}
        for i, key in enumerate(keys):
            if key not in self._norm_cache:
                todo.setdefault(key, i)
        if todo:
            missing = np.fromiter(todo.values(), dtype=np.int64, count=len(todo))
            size = self._block_size(self.rank < self.first)
            solved = thread_map(
                lambda a: self._solve(signs[missing[a:a + size]], seed),
                range(0, len(missing), size), threads)
            self._norm_cache.update(zip(todo, itertools.chain.from_iterable(solved)))
        return np.array([self._norm_cache[key] for key in keys])

    def norm(self, b, seed: int = 0) -> float:
        """``norms`` of the one sign vector b."""
        return float(self.norms(np.asarray(b)[None], seed=seed)[0])

    def _block_size(self, rows) -> int:
        """Sign columns per block when the submatrix on ``rows`` is solved."""
        return max(1, BLOCK_ENTRIES // int(self._row_entries[rows].sum()))

    def _solve(self, signs, seed) -> list[float]:
        lower, value = self._phase(signs, self.rank < self.first, seed)
        # per column, how many components have a bound above its Ritz value
        reach = np.searchsorted(-self.bounds, -lower)
        for n in np.unique(reach[reach > self.first]).tolist():
            cols = np.flatnonzero(reach == n)
            rest = self._phase(signs[cols],
                               (self.rank >= self.first) & (self.rank < n), seed)[1]
            value[cols] = np.maximum(value[cols], rest)
        return value.tolist()

    def _phase(self, signs, rows, seed):
        """(Ritz values, residual-inflated values) of the signed submatrices
        on ``rows``, solved in blocks of ``_block_size`` columns."""
        size = self._block_size(rows)
        ests = []
        for a in range(0, len(signs), size):
            part = signs[a:a + size]
            ests += block_spectral_norms(self.graph.to_csr(part, rows), len(part),
                                         seed=seed, upper=self.upper)
        return (np.array([est.value for est in ests]),
                np.array([est.value * (1.0 + est.residual) for est in ests]))


@dataclass
class Refutation:
    """One route's certificate, plus per-b bound machinery."""

    certificate: dict
    family: SignedFamily | None  # the pruned graph's family, None on fallback
    ratio: float | None  # sqrt(N_L N_R) / D'
    trivial: int  # bounds, for every b, what ratio |B(b)| bounds
    graph: KikuchiGraph | None = None
    pruned: PrunedGraph | None = None  # the graph actually used, if any

    def spectral(self, rows) -> np.ndarray:
        """ratio |B(b)| at each sign row of the (c, k) array ``rows``, or
        the trivial bound when there is no family."""
        if self.family is None:
            return np.full(len(rows), float(self.trivial))
        return self.ratio * self.family.norms(rows)


@dataclass(kw_only=True)
class RegularRefutation(Refutation):
    """Certificate for the leftover instance; ``spectral`` bounds val(F_b)
    and ``trivial`` is the label count, which |F_b(x)| never exceeds."""

    instance: XorInstance

    def bounds(self, rows, capped: bool = True) -> np.ndarray:
        """Certified bound on val of this instance's polynomial at each fixed
        sign row of the (c, k) array ``rows``.

        ``capped=False`` returns the bare spectral chain (also sound; the
        reported certificate takes the minimum with the trivial bound)."""
        chain = _chain(self.instance, self.spectral(rows))
        return np.minimum(float(self.instance.total_edges), chain) if capped else chain


@dataclass(kw_only=True)
class BipartiteRefutation(Refutation):
    """Certificate for one decomposed piece; ``trivial`` is its edge count."""

    fallback_applies: bool

    def bounds(self, rows, capped: bool = True) -> np.ndarray:
        """Certified bound on val of the piece at each sign row of ``rows``."""
        spectral = self.spectral(rows)
        if capped and self.fallback_applies:
            return np.minimum(spectral, float(self.trivial))
        return spectral


def _chain(inst: XorInstance, f):
    """Cauchy-Schwarz: val(Psi_b) <= sqrt(q n m + n f) / q when f bounds val(F_b)."""
    q, n = inst.q, inst.n
    return np.sqrt(q * n * inst.total_edges + n * f) / q


def _ratio(pruned: PrunedGraph) -> float:
    nl, nr = pruned.shape
    return math.sqrt(float(nl) * float(nr)) / pruned.D_prime


def _spectral_route(graph, gamma, d_left, d_right, k, trials, seed, threads,
                    cert, flags):
    """Prune ``graph`` to the target degrees and average its family's norms
    over b: (pruned graph, family, norm summary, ratio), all None with a
    ``pruning_failed:`` flag when pruning empties a label."""
    try:
        pruned = prune(graph, gamma, d_left, d_right)
    except PruningError as exc:
        flags.append(f"pruning_failed: {exc}")
        return None, None, None, None
    cert["pruned"] = pruned.report
    family = SignedFamily(pruned)
    mean, stderr, exhaustive, draws = average_over_signs(
        lambda rows: family.norms(rows, seed=seed, threads=threads), k,
        trials, np.random.default_rng((seed, 7103)),
    )
    norm = {"mean": mean, "stderr": stderr, "exhaustive": exhaustive, "draws": draws}
    return pruned, family, norm, _ratio(pruned)


def _khintchine(pruned: PrunedGraph) -> tuple[dict, float]:
    """The sigma^2 fields of the pruned graph's sign-free groups and its
    Matrix-Khintchine bound ratio * sqrt(2 sigma^2 ln(N_L + N_R))."""
    sig = khintchine_sigma(pruned.group_matrices())
    fields = {"sigma_sq": sig["sigma_sq"], "sigma_sq_guarantee": sig["guarantee"],
              "sigma_proxy": sig["proxy"]}
    return fields, _ratio(pruned) * khintchine_bound(sig["sigma_sq"], *pruned.shape)


def _check_trials(trials: int):
    """A Monte Carlo mean needs two draws for its standard error."""
    if trials < 2:
        raise ValueError(f"trials must be >= 2, got {trials}")


def check_regularity(inst: XorInstance, thr: Thresholds):
    """deg_H(Q) <= d_|Q| over the union multiset for 2 <= |Q| <= (q+1)/2."""
    for q_set, d, t in heavy_sets(inst, thr):
        raise RegularityError(f"set {q_set} has degree {d} > d_{t}; decompose first")


def refute_regular(
    inst: XorInstance,
    ell: int | None = None,
    gamma: float = 8.0,
    trials: int = 200,
    seed: int = 0,
    n_partitions: int = 4,
    thresholds: Thresholds | None = None,
    threads: int = 1,
) -> RegularRefutation:
    """Certify an upper bound on E_b[val(Psi_b)] for a regular instance.

    ``bound`` is the empirical variant: the full pair graph with realized
    norms, sound for each fixed b and (exhaustively averaged) for the
    expectation.  With ``n_partitions > 0`` the certificate also carries the
    Matrix-Khintchine variant over that many sampled partitions, whose
    graphs are slices of the unpruned full graph.  Each partition's
    ``f_bound_khintchine`` is a rigorous bound on E_b val(f_{L,R,b}), but
    their mean over sampled partitions only estimates the mean over all of
    them, so ``bound_khintchine`` is labelled an estimate.
    """
    q, n, k = inst.q, inst.n, inst.k
    if q % 2 == 0 or q < 3:
        raise ValueError("regular refutation requires odd q >= 3")
    if n_partitions < 0:
        raise ValueError(f"n_partitions must be >= 0, got {n_partitions}")
    _check_trials(trials)
    if thresholds is None:
        thresholds = compute_thresholds(
            n, k, q, inst.measured_delta() if inst.total_edges else Fraction(1, n),
            ell_override=ell,
        )
    ell = thresholds.ell if ell is None else ell
    check_regularity(inst, thresholds)

    m_total = inst.total_edges
    delta_n = max(inst.edge_counts, default=0)
    cert: dict = {
        "kind": "regular",
        "params": {
            "n": n, "k": k, "q": q, "ell": ell, "gamma": gamma,
            "seed": seed, "trials": trials, "n_partitions": n_partitions,
        },
        "m_total": m_total,
        "delta_n_measured": delta_n,
        "trivial_bound": float(m_total),
    }
    if m_total == 0:
        cert.update({"bound": 0.0, "bound_empirical": 0.0, "flags": ["empty"]})
        return RegularRefutation(cert, None, None, 0, instance=inst)

    flags = []
    full = assemble_regular_cs(inst, ell) if ell >= (q - 1) // 2 and n >= q - 1 else None
    pruned = family = norm = ratio = d = None
    if full is None:
        flags.append("ell_too_small")
    elif full.D:
        # the target degree d = delta*n*k*D / N; partition slices share D and N
        d = target_degrees(full, delta_n, k)["d"]
        pruned, family, norm, ratio = _spectral_route(
            full, gamma, d, d, k, trials, seed, threads, cert, flags)
    else:
        flags.append("degenerate_D_zero" if full.n_labels else "no_shared_pairs")

    trivial = full.n_labels if full is not None else 0
    cert["graph"] = {
        "n_labels": trivial,
        "D": full.D if full is not None else None,
        "N": full.shape[0] if full is not None else None,
        "target_d": float(d) if d is not None else None,
    }
    shape = analytic_degree_shapes("regular_cs", n, ell, q, delta_n, k)["d"]
    cert["degree_analytic"] = {
        "shape_d": shape,
        "ratio": (cert["graph"]["target_d"] / shape)
        if cert["graph"]["target_d"] and shape > 0 else None,
    }

    # empirical variant: the full pair graph's norms averaged over signs
    f_mean = ratio * norm["mean"] if family is not None else float(trivial)
    bound_emp = min(float(m_total), float(_chain(inst, f_mean)))
    cert.update({"full_graph_norm": norm, "bound_empirical": bound_emp,
                 "bound": bound_emp, "flags": flags})

    # Khintchine estimate over sampled partitions, each a slice of the full graph
    per_partition = []
    for part in sample_partitions(k, n_partitions, seed):
        entry: dict = {"partition": part.to_dict(), "L_size": len(part.left)}
        per_partition.append(entry)
        pgraph = pair_partition(full, part.left, part.right) if full is not None else None
        entry["n_labels"] = 0 if pgraph is None else pgraph.n_labels
        if pgraph is None or not pgraph.D:
            entry["f_bound_khintchine"] = 0.0
            continue
        try:
            ppruned = prune(pgraph, gamma, d, d)
        except PruningError:
            entry.update({"f_bound_khintchine": float(pgraph.n_labels),
                          "pruning_failed": True})
            continue
        fields, khin = _khintchine(ppruned)
        entry.update({"D": pgraph.D, "D_prime": ppruned.D_prime, **fields,
                      "f_bound_khintchine": khin})

    if per_partition:
        khin_f_bounds = [e["f_bound_khintchine"] for e in per_partition]
        f_khin_mean = float(np.mean(khin_f_bounds))
        cert.update({
            "partitions": per_partition,
            "f_bound_khintchine_mean": f_khin_mean,
            "f_bound_khintchine_min": float(np.min(khin_f_bounds)),
            # F_b = 4 E f_{L,R}
            "bound_khintchine": min(float(m_total), float(_chain(inst, 4 * f_khin_mean))),
            "khintchine_guarantee": "estimate",
        })
    return RegularRefutation(cert, family, ratio, trivial, full, pruned, instance=inst)


def _piece_header(piece: BipartiteXorInstance, ell, gamma, trials, seed) -> dict:
    """The certificate fields a piece has whether or not its refutation ran."""
    return {
        "kind": "bipartite",
        "params": {"n": piece.n, "k": piece.k, "q": piece.q, "s": piece.s,
                   "ell": ell, "gamma": gamma, "seed": seed, "trials": trials},
        "P_size": piece.p_size,
        "m_total": piece.total_edges,
        "trivial_bound": float(piece.total_edges),
    }


def refute_bipartite(
    piece: BipartiteXorInstance,
    ell: int,
    gamma: float = 8.0,
    trials: int = 200,
    seed: int = 0,
    thresholds: Thresholds | None = None,
    threads: int = 1,
) -> BipartiteRefutation:
    """Certify E_b[val(Psi^(s)_b)] <= (sqrt(N_L N_R)/D') E_b|B|_2.

    No partition and no pair derivation: the groups A_i are sign-free, so
    sigma^2 is exact and the Khintchine variant is rigorous.  When
    |P_s| < 4*ell (or the graph degenerates) the measured trivial bound
    sum_i |H_i^(s)| is taken as the fallback and the minimum is used.
    """
    _check_trials(trials)
    n, k, q, s = piece.n, piece.k, piece.q, piece.s
    m_total = piece.total_edges
    delta_n = max(piece.edge_counts, default=0)
    cert = _piece_header(piece, ell, gamma, trials, seed)
    cert["delta_n_measured"] = delta_n
    if thresholds is not None:
        d_s = thresholds.d_float(s)
        cert["analytic_shapes"] = {
            "ell_times_d_s": ell * d_s,
            "P_times_d_s": piece.p_size * d_s,
        }
    if m_total == 0:
        cert.update({"bound": 0.0, "bound_empirical": 0.0,
                     "bound_khintchine": 0.0, "flags": ["empty"],
                     "fallback_applies": True})
        return BipartiteRefutation(cert, None, None, 0, fallback_applies=True)

    flags = []
    graph = assemble_bipartite(piece, ell)
    tg = target_degrees(graph, delta_n, k)
    pruned = family = norm = ratio = None
    if graph.D:
        pruned, family, norm, ratio = _spectral_route(
            graph, gamma, tg["d_left"], tg["d_right"], k, trials, seed, threads,
            cert, flags)
    else:
        flags.append("degenerate_D_zero")
    fallback = piece.p_size < 4 * ell or family is None

    cert["graph"] = {
        "n_labels": graph.n_labels,
        "D": graph.D,
        "N_L": graph.shape[0],
        "N_R": graph.shape[1],
    }
    shapes = analytic_degree_shapes("bipartite", n, ell, q, delta_n, k,
                                    s=s, p_size=piece.p_size)
    cert["degree_analytic"] = {
        "shape_d_left": shapes["d_left"],
        "shape_d_right": shapes["d_right"],
        "measured_d_left": float(tg["d_left"]),
        "measured_d_right": float(tg["d_right"]),
        "ratio_left": float(tg["d_left"]) / shapes["d_left"]
        if shapes["d_left"] > 0 else None,
        "ratio_right": float(tg["d_right"]) / shapes["d_right"]
        if shapes["d_right"] > 0 else None,
    }

    if family is not None:
        # sigma^2 on the actual sign-free pruned groups
        fields, bound_khin = _khintchine(pruned)
        bound_emp = ratio * norm["mean"]
        # every label keeps D' >= 1 edges, so a group is nonempty iff it has a label
        nonempty = len(np.unique(pruned.label_group))
        cert.update({**fields, "norm_mc": {**norm, "nonempty_groups": nonempty},
                     "bound_khintchine": bound_khin, "bound_empirical": bound_emp})
        bound = min(bound_khin, bound_emp)
        if fallback:
            bound = min(bound, float(m_total))
    else:
        cert.update({"bound_khintchine": float(m_total),
                     "bound_empirical": float(m_total)})
        bound = float(m_total)

    cert.update({"bound": bound, "fallback_applies": fallback, "flags": flags})
    return BipartiteRefutation(cert, family, ratio, m_total, graph, pruned,
                               fallback_applies=fallback)


@dataclass
class FullRefutation:
    """Combined certificate: regular leftover + every bipartite piece."""

    instance: XorInstance
    epsilon: float
    decomposition: DecomposedInstance
    regular: RegularRefutation
    pieces: dict  # s -> BipartiteRefutation
    certificate: dict

    def bounds(self, rows, capped: bool = True) -> np.ndarray:
        """Combined certified bound at each sign row: the regular bound plus
        the piece bounds, summed in increasing s."""
        total = self.regular.bounds(rows, capped=capped)
        for s in sorted(self.pieces):
            total = total + self.pieces[s].bounds(rows, capped=capped)
        return total

    def soundness_check(self, signs_list=None, guard: float = SOUNDNESS_GUARD):
        """Per fixed b: realized certified bound >= brute-force val(Phi_b).

        ``signs_list=None`` enumerates all 2^k sign vectors.  Both the
        reported (trivially capped) bound and the bare spectral chain are
        checked, each by one ``bounds`` call over all the rows; each holds
        unconditionally per fixed b, and checking the uncapped chain keeps
        the norm and D' bookkeeping on the hook even where the trivial bound
        happens to be smaller."""
        inst = self.instance
        if signs_list is None:
            rows = sign_rows(inst.k)
            vals = val_for_all_signs(inst).tolist()
        else:
            rows = np.asarray(signs_list).reshape(len(signs_list), inst.k)
            vals = [brute_force_val(inst, b)[0] for b in signs_list]
        log = []
        for b, val, bound, spectral in zip(rows.tolist(), vals,
                                           self.bounds(rows).tolist(),
                                           self.bounds(rows, capped=False).tolist()):
            ok = (
                bound + guard * max(1.0, abs(bound)) >= val
                and spectral + guard * max(1.0, abs(spectral)) >= val
            )
            log.append({
                "b": b,
                "val": int(val),
                "bound": bound,
                "spectral_bound": spectral,
                "ok": bool(ok),
            })
        return log


def refute_full(
    inst: XorInstance,
    epsilon: float = 0.5,
    gamma: float = 8.0,
    trials: int = 200,
    seed: int = 0,
    ell: int | None = None,
    n_partitions: int = 4,
    threads: int = 1,
) -> FullRefutation:
    """Decompose, refute the leftover and every piece, and combine.

    The combined bound on E_b[val(Phi_b)] is the regular bound plus the
    piece bounds (summed in increasing s).  Verdict: the instance cannot be
    the query structure of a (q, delta, epsilon)-normal LDC when the bound
    is below epsilon * delta*n * k, with delta*n measured as max_i |H_i|.
    """
    if inst.q % 2 == 0 or inst.q < 3:
        raise ValueError("the pipeline requires odd q >= 3")
    if n_partitions < 0:
        raise ValueError(f"n_partitions must be >= 0, got {n_partitions}")
    _check_trials(trials)
    delta_meas = inst.measured_delta() if inst.total_edges else Fraction(1, inst.n)
    thr = compute_thresholds(inst.n, inst.k, inst.q, delta_meas, ell_override=ell)
    dec = decompose(inst, thr)
    regular = refute_regular(
        dec.leftover, thr.ell, gamma=gamma, trials=trials, seed=seed,
        n_partitions=n_partitions, thresholds=thr, threads=threads,
    )
    pieces = {}
    piece_failures = {}
    for s in sorted(dec.pieces):
        piece = dec.pieces[s]
        try:
            pieces[s] = refute_bipartite(
                piece, thr.ell, gamma=gamma, trials=trials,
                seed=seed * 131 + s, thresholds=thr, threads=threads,
            )
        except REFUTATION_ERRORS as exc:  # partial results kept; trivial bound is sound
            piece_failures[s] = str(exc)
            cert = _piece_header(piece, thr.ell, gamma, trials, seed * 131 + s)
            cert.update({"bound": cert["trivial_bound"], "fallback_applies": True,
                         "flags": [f"refutation_failed: {exc}"]})
            pieces[s] = BipartiteRefutation(cert, None, None, piece.total_edges,
                                            fallback_applies=True)

    combined = regular.certificate["bound"]
    for s in sorted(pieces):
        combined += pieces[s].certificate["bound"]
    delta_n = max(inst.edge_counts, default=0)
    eps_delta_nk = float(epsilon) * delta_n * inst.k
    refuted = combined < eps_delta_nk

    certificate = {
        "schema_version": 1,
        "tool_version": _version,
        "kind": "combined",
        "params": {
            "n": inst.n, "k": inst.k, "q": inst.q, "epsilon": epsilon,
            "gamma": gamma, "trials": trials, "seed": seed,
            "ell": thr.ell, "n_partitions": n_partitions,
        },
        "thresholds": thr.to_dict(),
        "decomposition": {
            "leftover_edges": dec.leftover.total_edges,
            "pieces": {
                str(s): {"edges": p.total_edges, "P_size": p.p_size}
                for s, p in dec.pieces.items()
            },
        },
        "regular": regular.certificate,
        "pieces": {str(s): pieces[s].certificate for s in sorted(pieces)},
        "combined_bound": combined,
        "eps_delta_nk": eps_delta_nk,
        "delta_n_measured": delta_n,
        "refuted": bool(refuted),
        "verdict": "refuted" if refuted else "not refuted",
    }
    if piece_failures:
        certificate["piece_failures"] = piece_failures
    return FullRefutation(
        instance=inst, epsilon=epsilon, decomposition=dec,
        regular=regular, pieces=pieces, certificate=certificate,
    )


def dump_certificate(cert: dict, path, extra_meta: dict | None = None):
    """Certificates are reproducible except the 'meta' block (timestamps)."""
    out = dict(cert)
    if extra_meta:
        out["meta"] = extra_meta
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True, default=float)
        fh.write("\n")


def load_certificate(path) -> dict:
    """A combined certificate; ValueError names a key ``kikuchi verify``
    reads that it lacks."""
    with open(path) as fh:
        cert = json.load(fh)
    missing = [key for key in ("params", "combined_bound", "verdict") if key not in cert]
    missing += [f"params.{key}" for key in ("epsilon", "gamma", "trials", "seed")
                if key not in cert.get("params", {})]
    if missing:
        raise ValueError(f"{path}: certificate has no key {missing[0]!r}")
    return cert
