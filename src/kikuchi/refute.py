"""End-to-end refutation certificates for matching XOR instances.

One spectral route serves every Kikuchi graph: the graph is pruned to its
target degrees and the norms of its signed matrices B(b) are averaged over
b, and for every fixed b

    val  <=  (sqrt(N_L N_R) / D') |B(b)|_2  =  ratio |B(b)|_2,

N_L x N_R the graph's shape and D' the edges each label keeps.  Each route
returns a ``Refutation``, whose ``spectral(rows)`` is that bound per sign
row, or the route's trivial bound when pruning left no family.  One rule
turns it into a bound on val: ``min(cap, chain(spectral))``, with ``cap``
a bound on val that holds for every b.  The certificate's ``bound`` is the
same rule applied to the mean over b.

Regular route (leftover instance): the square full pair graph (N_L = N_R)
bounds val(F_b), where F_b sums the derived pair constraints over all
ordered i != j and never exceeds its label count.  Squaring the polynomial
and Cauchy-Schwarz give, for every fixed b and every x,

    q^2 Psi_b(x)^2  <=  q n m  +  n F_b(x),      m = sum_i |H_i|,

the chain, and m caps it.  The route records no Matrix-Khintchine
estimate: F_b = 4 E f_{L,R} needs the mean over all partitions (L, R), and
a mean over sampled ones would bound nothing.

Bipartite route (decomposed pieces): z^T B w = D' Psi^(s)(x, y), so the
route bounds val(Psi^(s)_b) directly: the chain is the identity, and the
piece's edge count sum_i |H_i^(s)| caps it.

Per-b norms come from ``SignedFamily``, which solves each missing
label-sign class on the support component of largest norm bound first and
then only on the components whose bound lies above the norm found, in
blocks of sign columns handed to one batched Lanczos recurrence each.
Per-b bounds are asked the same way: each refutation's ``bounds(rows)``
takes a (c, k) array of sign rows and makes one ``norms`` call per family.

Everything is deterministic under the master seed, whatever the block size
or thread count.
"""

from __future__ import annotations

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
)
from .instances import (
    BipartiteXorInstance,
    XorInstance,
    brute_force_val,  # noqa: F401  perfbench's tracer wraps refute.brute_force_val
    dump_json,
    load_json_object,
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
    ComponentBounds,
    average_over_signs,
    block_spectral_norms,
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


def eval_full_pairs(inst: XorInstance, b, x) -> int:
    """F_b(x): the pair polynomial over all ordered i != j, evaluated
    label by label from ``cs_pair_labels``."""
    total = 0
    for (i, j, u, c1, c2) in cs_pair_labels(inst):
        mono = int(b[i]) * int(b[j])
        for v in c1 + c2:
            mono *= int(x[v])
        total += mono
    return total


class SignedFamily:
    """Norm cache over a pruned graph's signed matrices B(b).

    Norms are cached by the realized label-sign vector up to a global flip,
    so distinct b hitting the same label signs or their negation (b and -b
    always do) share one solve.  Every stored entry is +-1 and duplicates
    are stored apart, so sqrt(max row count * max column count) bounds every
    |B(b)|: the L1 guard, computed once here.

    The support of B(b) does not depend on b, and B(b) is block-diagonal
    over the support's connected components, so |B(b)| = max_C |B_C(b)| and
    |B_C(b)| <= P_C, a rigorous bound on the norm of the unsigned count
    matrix on C (``ComponentBounds``).  The missing classes are solved in
    ``_phase`` runs: first all of them on the components of largest P_C
    (one, unless several tie), whose Ritz values L_t are lower bounds on
    |B(b_t)|; then, once per distinct set of other components with
    P_C > L_t, the classes that reach that set, so a column's value depends
    on its own L_t alone.  Each column reports the larger of its
    residual-inflated values; every component left out has
    |B_C(b_t)| <= P_C <= L_t.

    P_C starts as every component's first-step Collatz-Wielandt bound, and
    is refined only where that can change what is solved.  Here: the
    component of largest lower bound, then every component whose bound
    reaches the largest refined one, until the largest bound is a refined
    one; an unrefined bound below it cannot tie, so this fixes the top set.
    After each first phase: the components whose bound exceeds that call's
    smallest L_t, so later calls (``soundness_check``) refine further as
    they need.  Refining cannot change which components a column is solved
    on: a refined bound is never above the first-step bound and has the
    same bits whichever components are refined with it, and a component is
    solved only when its bound exceeds some L_t, which an unrefined bound
    never does.  So certificates are those of refining every P_C up front.
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
        self.screen = screen = ComponentBounds(counts, graph.symmetric)
        # an unrefined bound below a refined one can never tie with it: refine
        # from the largest lower bound on until the largest bound is refined
        screen.refine(screen.lower == screen.lower.max(initial=0.0))
        while screen.refine(screen.bounds >= screen.bounds[screen.refined].max(initial=0.0)):
            pass
        self._rank_components()
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
        # one key per +- class, the labels whose sign differs from the first
        # label's packed to bits; the first row of a class is the one solved
        keys = [key.tobytes() for key in np.packbits(signs != signs[:, :1], axis=1)]
        todo = {}
        for i, key in enumerate(keys):
            if key not in self._norm_cache:
                todo.setdefault(key, i)
        if todo:
            signs = signs[list(todo.values())]  # rebinding frees the full array
            lower, value = self._phase(signs, 0, self.first, seed, threads)
            # only a component whose bound lies above some Ritz value is solved
            if self.screen.refine(self.screen.bounds > lower.min()):
                self._rank_components()
            # per column, how many components have a bound above its Ritz value
            reach = np.searchsorted(-self.bounds, -lower)
            for n in np.unique(reach[reach > self.first]).tolist():
                cols = np.flatnonzero(reach == n)
                rest = self._phase(signs[cols], self.first, n, seed, threads)[1]
                value[cols] = np.maximum(value[cols], rest)
            self._norm_cache.update(zip(todo, value.tolist()))
        return np.array([self._norm_cache[key] for key in keys])

    def norm(self, b, seed: int = 0) -> float:
        """``norms`` of the one sign vector b."""
        return float(self.norms(np.asarray(b)[None], seed=seed)[0])

    def _rank_components(self):
        """Components by decreasing bound: ``bounds`` in that order, and
        ``rank``, each row's place in it (len(bounds) for an empty row).
        Refining keeps the top set first: its bounds are refined already,
        and every other bound lies below them."""
        order = np.argsort(-self.screen.bounds, kind="stable")
        self.bounds = self.screen.bounds[order]
        place = np.empty(len(order) + 1, dtype=np.int64)
        place[order] = np.arange(len(order))
        place[-1] = len(order)  # an empty row's component index is -1
        self.rank = place[self.screen.row_comp]

    def _phase(self, signs, lo, hi, seed, threads):
        """(Ritz values, residual-inflated values) of the signed submatrices
        on the components of rank lo <= r < hi, in blocks of BLOCK_ENTRIES //
        (their entries) columns, each one ``block_spectral_norms`` run, mapped
        over ``threads``; a column's value does not depend on its block."""
        rows = (self.rank >= lo) & (self.rank < hi)
        size = max(1, BLOCK_ENTRIES // int(self._row_entries[rows].sum()))

        def solve(a):
            part = signs[a:a + size]
            ests = block_spectral_norms(self.graph.to_csr(part, rows), len(part),
                                        seed=seed, upper=self.upper)
            return np.array([(est.value, est.value * (1.0 + est.residual)) for est in ests])

        return np.vstack(thread_map(solve, range(0, len(signs), size), threads)).T


@dataclass
class Refutation:
    """One route's certificate, plus per-b bound machinery; as is, a
    decomposed piece's, whose chain is the identity and whose ``cap`` is
    ``trivial``, its edge count."""

    certificate: dict
    family: SignedFamily | None  # the pruned graph's family, None without one
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

    @property
    def cap(self) -> float:
        """Bounds val of the route's polynomial for every b."""
        return float(self.trivial)

    def _chain(self, f):
        return f

    def bound_of(self, f):
        """The one bound rule: the chain of f, a bound on what ``spectral``
        bounds, capped at ``cap``."""
        return np.minimum(self.cap, self._chain(f))

    def bounds(self, rows, capped: bool = True) -> np.ndarray:
        """``bound_of`` the spectral bound at each sign row of the (c, k)
        array ``rows``; ``capped=False`` leaves out the cap (also sound)."""
        f = self.spectral(rows)
        return self.bound_of(f) if capped else self._chain(f)


@dataclass(kw_only=True)
class RegularRefutation(Refutation):
    """Certificate for the leftover instance; ``spectral`` bounds val(F_b)
    and ``trivial`` is the label count, which |F_b(x)| never exceeds."""

    instance: XorInstance

    @property
    def cap(self) -> float:
        return float(self.instance.total_edges)

    def _chain(self, f):
        """Cauchy-Schwarz: val(Psi_b) <= sqrt(q n m + n f) / q."""
        q, n = self.instance.q, self.instance.n
        return np.sqrt(q * n * self.instance.total_edges + n * f) / q


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


def _check_positive(name: str, value: float):
    """A finite value above zero, checked before any work is done."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and > 0, got {value}")


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
    thresholds: Thresholds | None = None,
    threads: int = 1,
) -> RegularRefutation:
    """Certify an upper bound on E_b[val(Psi_b)] for a regular instance.

    ``bound`` is the empirical variant: the full pair graph with realized
    norms, sound for each fixed b and (exhaustively averaged) for the
    expectation.  No Matrix-Khintchine estimate over sampled partitions is
    computed or recorded.
    """
    q, n, k = inst.q, inst.n, inst.k
    if q % 2 == 0 or q < 3:
        raise ValueError("regular refutation requires odd q >= 3")
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
            "seed": seed, "trials": trials,
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
        # the target degree d = delta*n*k*D / N
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

    # the full pair graph's norms averaged over signs; bound_empirical is
    # the chain before the cap, as on a piece
    ref = RegularRefutation(cert, family, ratio, trivial, full, pruned, instance=inst)
    f_mean = ratio * norm["mean"] if family is not None else float(trivial)
    cert.update({"full_graph_norm": norm, "bound_empirical": float(ref._chain(f_mean)),
                 "bound": float(ref.bound_of(f_mean)), "flags": flags})
    return ref


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
) -> Refutation:
    """Certify E_b[val(Psi^(s)_b)] <= (sqrt(N_L N_R)/D') E_b|B|_2.

    No partition and no pair derivation: the groups A_i are sign-free, so
    sigma^2 is exact and the Khintchine variant is rigorous.  The bound is
    capped at the piece's edge count sum_i |H_i^(s)|, which bounds val for
    every b; it alone is the bound when the graph degenerates or pruning
    fails.
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
                     "bound_khintchine": 0.0, "flags": ["empty"]})
        return Refutation(cert, None, None, 0)

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

    bound_khin = bound_emp = float(m_total)
    if family is not None:
        # sigma^2 on the actual sign-free pruned groups
        fields, bound_khin = _khintchine(pruned)
        bound_emp = ratio * norm["mean"]
        # every label keeps D' >= 1 edges, so a group is nonempty iff it has a label
        nonempty = len(np.unique(pruned.label_group))
        cert.update({**fields, "norm_mc": {**norm, "nonempty_groups": nonempty}})
    ref = Refutation(cert, family, ratio, m_total, graph, pruned)
    cert.update({"bound_khintchine": bound_khin, "bound_empirical": bound_emp,
                 "bound": float(ref.bound_of(min(bound_khin, bound_emp))),
                 "flags": flags})
    return ref


@dataclass
class FullRefutation:
    """Combined certificate: regular leftover + every bipartite piece."""

    instance: XorInstance
    epsilon: float
    decomposition: DecomposedInstance
    regular: RegularRefutation
    pieces: dict  # s -> Refutation
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
        happens to be smaller.

        The values val(Phi_b) come from one values-only oracle call over all
        the rows (``val_for_all_signs``), which scans the GF(2) quotient of
        the assignment space and, for odd q, only half of it (see
        ``kikuchi.instances``).  That call checks the variable and sign
        limits before any sign row is built."""
        inst = self.instance
        if signs_list is None:
            vals = val_for_all_signs(inst).tolist()
            rows = sign_rows(inst.k)
        else:
            rows = np.asarray(signs_list).reshape(len(signs_list), inst.k)
            vals = val_for_all_signs(inst, signs=rows).tolist()
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
    n_partitions: int = 0,
    threads: int = 1,
) -> FullRefutation:
    """Decompose, refute the leftover and every piece, and combine.

    The combined bound on E_b[val(Phi_b)] is the regular bound plus the
    piece bounds (summed in increasing s).  Verdict: the instance cannot be
    the query structure of a (q, delta, epsilon)-normal LDC when the bound
    is below epsilon * delta*n * k, with delta*n measured as max_i |H_i|.

    ``n_partitions`` is accepted for older callers and ignored: no
    partition is sampled and nothing records it.  It must still be >= 0.
    """
    if inst.q % 2 == 0 or inst.q < 3:
        raise ValueError("the pipeline requires odd q >= 3")
    if n_partitions < 0:
        raise ValueError(f"n_partitions must be >= 0, got {n_partitions}")
    _check_positive("epsilon", epsilon)
    _check_positive("gamma", gamma)
    _check_trials(trials)
    delta_meas = inst.measured_delta() if inst.total_edges else Fraction(1, inst.n)
    thr = compute_thresholds(inst.n, inst.k, inst.q, delta_meas, ell_override=ell)
    dec = decompose(inst, thr)
    regular = refute_regular(
        dec.leftover, thr.ell, gamma=gamma, trials=trials, seed=seed,
        thresholds=thr, threads=threads,
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
            cert.update({"bound": cert["trivial_bound"],
                         "flags": [f"refutation_failed: {exc}"]})
            pieces[s] = Refutation(cert, None, None, piece.total_edges)

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
            "ell": thr.ell,
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
    dump_json(out, path, default=float)


def load_certificate(path) -> dict:
    """A combined certificate; ValueError names a key ``kikuchi verify``
    reads that it lacks, or ``params`` when that is not an object."""
    cert = load_json_object(path, "certificate")
    params = cert.get("params", {})
    if not isinstance(params, dict):
        raise ValueError(f"{path}: certificate field 'params' must be an object, "
                         f"not {type(params).__name__}")
    missing = [key for key in ("params", "combined_bound", "verdict") if key not in cert]
    missing += [f"params.{key}" for key in ("epsilon", "gamma", "trials", "seed")
                if key not in params]
    if missing:
        raise ValueError(f"{path}: certificate has no key {missing[0]!r}")
    return cert
