"""End-to-end refutation certificates for matching XOR instances.

Regular route (leftover instance): squaring the polynomial and
Cauchy-Schwarz give, for every fixed sign vector b and every x,

    q^2 Psi_b(x)^2  <=  q n m  +  n F_b(x),      m = sum_i |H_i|,

where F_b sums the derived pair constraints over all ordered i != j.  The
full pair Kikuchi graph certifies val(F_b) <= (N / D') |B(b)|_2 for the
realized signs, which is sound per fixed b.  Averaging over random
partitions (L, R) recovers F_b = 4 E f_{L,R}; per-partition graphs feed the
Matrix-Khintchine (analytic) variant, whose expectation bound needs the
independence that only the partition split provides.

Bipartite route (decomposed pieces): z^T B w = D' Psi^(s)(x, y) gives
val(Psi^(s)_b) <= (sqrt(N_L N_R) / D') |B(b)|_2 directly, no pair
derivation needed.  The measured total edge count of a piece is kept as the
trivial fallback bound; it is sound for every b, unlike the piece's
asymptotic shorthand.

Everything is deterministic under the master seed.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

from ._version import __version__ as _version
from .decompose import DecomposedInstance, Thresholds, compute_thresholds, decompose
from .graphs import (
    KikuchiGraph,
    assemble_bipartite,
    assemble_regular_cs,
    cs_pair_labels,
)
from .instances import (
    BipartiteXorInstance,
    XorInstance,
    brute_force_val,
    val_for_all_signs,
)
from .prune import PruningError, analytic_degree_shapes, prune, target_degrees
from .spectral import khintchine_bound, khintchine_sigma, sign_rows, spectral_norm

REFUTE_TOL = 1e-9
SOUNDNESS_GUARD = 1e-6
EXHAUSTIVE_SIGN_LIMIT = 12


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
    total = 0
    all_idx = list(range(inst.k))
    for (i, j, u, c1, c2) in cs_pair_labels(inst, all_idx, all_idx):
        mono = int(b[i]) * int(b[j])
        for v in c1:
            mono *= int(x[v])
        for v in c2:
            mono *= int(x[v])
        total += mono
    return total


class SignedFamily:
    """Pruned edge family with a per-sign-vector sparse matrix view.

    Norms are cached by the realized label-sign vector; distinct b hitting
    the same label signs (b and -b always do) share one power iteration.
    """

    def __init__(self, left, right, edge_label, sign_factors, shape):
        self.shape = shape
        self.sign_factors = sign_factors
        self.n_labels = len(sign_factors)
        order = np.lexsort((right, left))
        rows = left[order]
        self._indptr = np.searchsorted(rows, np.arange(shape[0] + 1))
        self._indices = right[order].astype(np.int64)
        self._label_seq = edge_label[order]
        self.nnz = len(rows)
        self._norm_cache: dict[bytes, float] = {}

    def label_signs(self, b) -> np.ndarray:
        out = np.ones(self.n_labels, dtype=np.int8)
        for j, factors in enumerate(self.sign_factors):
            s = 1
            for i in factors:
                s *= int(b[i])
            out[j] = s
        return out

    def csr(self, b) -> sp.csr_matrix:
        data = self.label_signs(b).astype(np.float64)[self._label_seq]
        return sp.csr_matrix(
            (data, self._indices, self._indptr), shape=self.shape
        )

    def norm(self, b, tol=REFUTE_TOL, seed: int = 0) -> float:
        """Certificate-side norm: the power-iteration estimate inflated by
        its residual and raw-quotient lag, so slow-spectrum cases loosen
        bounds instead of undercutting them."""
        if self.nnz == 0:
            return 0.0
        signs = self.label_signs(b)
        for key in (signs.tobytes(), (-signs).tobytes()):
            if key in self._norm_cache:
                return self._norm_cache[key]
        data = signs.astype(np.float64)[self._label_seq]
        mat = sp.csr_matrix((data, self._indices, self._indptr), shape=self.shape)
        est = spectral_norm(mat, tol=tol, seed=seed)
        val = est.value * (1.0 + est.residual + est.lag)
        self._norm_cache[signs.tobytes()] = val
        return val


def _mean_norm_over_signs(family: SignedFamily, k: int, trials: int, seed: int,
                          threads: int = 1):
    """(mean, stderr, exhaustive?, draws) of |B(b)| over uniform signs."""
    if family.nnz == 0:
        return 0.0, 0.0, True, 0
    if k <= EXHAUSTIVE_SIGN_LIMIT:
        rows = sign_rows(k, fix_first=True)
        exhaustive = True
    else:
        rng = np.random.default_rng((seed, 7103))
        rows = 1 - 2 * rng.integers(0, 2, size=(trials, k)).astype(np.int8)
        exhaustive = False
    fn = lambda b: family.norm(b, seed=seed)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            vals = list(ex.map(fn, rows))
    else:
        vals = [fn(b) for b in rows]
    arr = np.asarray(vals)
    stderr = 0.0 if exhaustive else float(arr.std(ddof=1) / np.sqrt(len(arr)))
    return float(arr.mean()), stderr, exhaustive, len(rows)


@dataclass
class RegularRefutation:
    """Certificate for the leftover instance, plus per-b bound machinery."""

    instance: XorInstance
    thresholds: Thresholds
    ell: int
    gamma: float
    certificate: dict
    family: SignedFamily | None  # pruned full-pair family, None if degenerate
    ratio_N_over_Dp: float | None
    f_trivial: int  # label count; |F_b(x)| never exceeds it
    used_trivial_f: bool
    graph: KikuchiGraph | None = None
    pruned: object | None = None  # PrunedGraph actually used, if any

    def f_bound_for_signs(self, b) -> float:
        if self.family is None or self.used_trivial_f:
            return float(self.f_trivial)
        return self.ratio_N_over_Dp * self.family.norm(b)

    def bound_for_signs(self, b, capped: bool = True) -> float:
        """Certified bound on val of this instance's polynomial at fixed b.

        ``capped=False`` returns the bare spectral chain (also sound; the
        reported certificate takes the minimum with the trivial bound)."""
        m = self.instance.total_edges
        if m == 0:
            return 0.0
        q, n = self.instance.q, self.instance.n
        chain = math.sqrt(q * n * m + n * self.f_bound_for_signs(b)) / q
        return chain if not capped else min(float(m), chain)


def check_regularity(inst: XorInstance, thr: Thresholds):
    """deg_H(Q) <= d_|Q| over the union multiset for 2 <= |Q| <= (q+1)/2."""
    from .setops import mask_of, subsets_of_mask, verts_of

    union = [e for h in inst.hypergraphs for e in h]
    for t in thr.t_range:
        counts = {}
        for e in union:
            for sub in subsets_of_mask(mask_of(e), t):
                counts[sub] = counts.get(sub, 0) + 1
        for sub, d in counts.items():
            if thr.is_heavy(d, t):
                raise RegularityError(
                    f"set {verts_of(sub)} has degree {d} > d_{t}; decompose first"
                )


def refute_regular(
    inst: XorInstance,
    ell: int | None = None,
    gamma: float = 8.0,
    trials: int = 200,
    seed: int = 0,
    n_partitions: int = 4,
    thresholds: Thresholds | None = None,
    threads: int = 1,
    partition_empirical_draws: int = 16,
) -> RegularRefutation:
    """Certify an upper bound on E_b[val(Psi_b)] for a regular instance.

    The certificate carries (a) the empirical variant from the full-pair
    graph with realized norms, sound for each fixed b and (exhaustively
    averaged) for the expectation, and (b) the analytic Matrix-Khintchine
    variant averaged over sampled partitions, which is the form the
    expectation argument needs.
    """
    q, n, k = inst.q, inst.n, inst.k
    if q % 2 == 0 or q < 3:
        raise ValueError("regular refutation requires odd q >= 3")
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
        cert.update({"bound": 0.0, "bound_empirical": 0.0,
                     "bound_khintchine": 0.0, "flags": ["empty"]})
        return RegularRefutation(inst, thresholds, ell, gamma, cert,
                                 None, None, 0, True)

    flags = []
    graph_feasible = ell >= (q - 1) // 2 and n >= q - 1
    full = assemble_regular_cs(inst, ell) if graph_feasible else None
    if not graph_feasible:
        flags.append("ell_too_small")

    family = None
    ratio = None
    f_trivial = full.n_labels if full is not None else 0
    used_trivial_f = True
    pruned_obj = None
    if full is not None and full.n_labels > 0 and (full.D or 0) > 0:
        N = full.shape[0]
        tg = target_degrees(full, delta_n, k)
        d = tg["d"]
        try:
            pruned_obj = prune(full, gamma, d, d)
            family = SignedFamily(
                pruned_obj.left, pruned_obj.right, pruned_obj.edge_label,
                full.label_sign_factors, full.shape,
            )
            ratio = N / pruned_obj.D_prime
            used_trivial_f = False
            cert["pruned"] = pruned_obj.report
        except PruningError as exc:
            flags.append(f"pruning_failed: {exc}")
    elif full is not None and full.n_labels == 0:
        flags.append("no_shared_pairs")
    elif full is not None:
        flags.append("degenerate_D_zero")

    cert["graph"] = {
        "n_labels": f_trivial,
        "D": full.D if full is not None else None,
        "N": full.shape[0] if full is not None else None,
        "target_d": float(target_degrees(full, delta_n, k)["d"]) if full is not None and full.D else None,
    }
    shape = analytic_degree_shapes("regular_cs", n, ell, q, delta_n, k)["d"]
    cert["degree_analytic"] = {
        "shape_d": shape,
        "ratio": (cert["graph"]["target_d"] / shape)
        if cert["graph"]["target_d"] and shape > 0 else None,
    }

    # empirical variant: full-pair graph, realized norms averaged over signs
    if family is not None and not used_trivial_f:
        mean_norm, stderr, exhaustive, draws = _mean_norm_over_signs(
            family, k, trials, seed, threads=threads
        )
        f_emp_mean = ratio * mean_norm
        cert["full_graph_norm"] = {
            "mean": mean_norm, "stderr": stderr,
            "exhaustive": exhaustive, "draws": draws,
        }
    else:
        f_emp_mean = float(f_trivial)
        cert["full_graph_norm"] = None
    bound_emp = min(
        float(m_total), math.sqrt(q * n * m_total + n * f_emp_mean) / q
    )

    # analytic variant: Khintchine over sampled partitions
    partitions = sample_partitions(k, n_partitions, seed)
    per_partition = []
    khin_f_bounds = []
    for r, part in enumerate(partitions):
        entry: dict = {"partition": part.to_dict(), "L_size": len(part.left)}
        pgraph = (
            assemble_regular_cs(inst, ell, list(part.left), list(part.right))
            if graph_feasible
            else None
        )
        if pgraph is None or pgraph.n_labels == 0 or (pgraph.D or 0) == 0:
            entry.update({"n_labels": 0 if pgraph is None else pgraph.n_labels,
                          "f_bound_khintchine": 0.0})
            khin_f_bounds.append(0.0)
            per_partition.append(entry)
            continue
        N = pgraph.shape[0]
        d = target_degrees(pgraph, delta_n, k)["d"]
        try:
            ppruned = prune(pgraph, gamma, d, d)
        except PruningError:
            entry.update({"n_labels": pgraph.n_labels,
                          "f_bound_khintchine": float(pgraph.n_labels),
                          "pruning_failed": True})
            khin_f_bounds.append(float(pgraph.n_labels))
            per_partition.append(entry)
            continue
        groups = ppruned.group_matrices()
        sig = khintchine_sigma(groups)
        kb = khintchine_bound(sig["sigma_sq"], N, N)
        f_khin = (N / ppruned.D_prime) * kb
        pfam = SignedFamily(
            ppruned.left, ppruned.right, ppruned.edge_label,
            pgraph.label_sign_factors, pgraph.shape,
        )
        rng = np.random.default_rng((seed, 7207, r))
        draws = 1 - 2 * rng.integers(
            0, 2, size=(min(partition_empirical_draws, 1 << min(k, 20)), k)
        ).astype(np.int8)
        nv = [pfam.norm(bb, seed=seed) for bb in draws]
        entry.update({
            "n_labels": pgraph.n_labels,
            "D": pgraph.D,
            "D_prime": ppruned.D_prime,
            "sigma_sq": sig["sigma_sq"],
            "sigma_sq_guarantee": sig["guarantee"],
            "sigma_proxy": sig["proxy"],
            "f_bound_khintchine": f_khin,
            "f_bound_empirical_mean": (N / ppruned.D_prime) * float(np.mean(nv)),
            "empirical_draws": len(draws),
        })
        khin_f_bounds.append(f_khin)
        per_partition.append(entry)

    f_khin_mean = float(np.mean(khin_f_bounds)) if khin_f_bounds else 0.0
    f_khin_min = float(np.min(khin_f_bounds)) if khin_f_bounds else 0.0
    bound_khin = min(
        float(m_total),
        math.sqrt(q * n * m_total + 4 * n * f_khin_mean) / q,
    )
    cert.update({
        "partitions": per_partition,
        "f_bound_khintchine_mean": f_khin_mean,
        "f_bound_khintchine_min": f_khin_min,
        "bound_khintchine": bound_khin,
        "bound_empirical": bound_emp,
        "bound": bound_emp,
        "flags": flags,
    })
    return RegularRefutation(
        instance=inst, thresholds=thresholds, ell=ell, gamma=gamma,
        certificate=cert, family=family, ratio_N_over_Dp=ratio,
        f_trivial=f_trivial, used_trivial_f=used_trivial_f,
        graph=full, pruned=pruned_obj,
    )


@dataclass
class BipartiteRefutation:
    """Certificate for one decomposed piece, plus per-b bound machinery."""

    piece: BipartiteXorInstance
    ell: int
    gamma: float
    certificate: dict
    family: SignedFamily | None
    ratio: float | None  # sqrt(N_L N_R) / D'
    trivial_bound: int
    fallback_applies: bool
    graph: KikuchiGraph | None = None
    pruned: object | None = None

    def bound_for_signs(self, b, capped: bool = True) -> float:
        if self.family is None:
            return float(self.trivial_bound)
        spectral = self.ratio * self.family.norm(b)
        if capped and self.fallback_applies:
            return min(spectral, float(self.trivial_bound))
        return spectral


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
    n, k, q, s = piece.n, piece.k, piece.q, piece.s
    m_total = piece.total_edges
    delta_n = max(piece.edge_counts, default=0)
    cert: dict = {
        "kind": "bipartite",
        "params": {"n": n, "k": k, "q": q, "s": s, "ell": ell, "gamma": gamma,
                   "seed": seed, "trials": trials},
        "P_size": piece.p_size,
        "m_total": m_total,
        "delta_n_measured": delta_n,
        "trivial_bound": float(m_total),
    }
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
        return BipartiteRefutation(piece, ell, gamma, cert, None, None, 0, True)

    fallback = piece.p_size < 4 * ell
    flags = []
    graph = assemble_bipartite(piece, ell)
    family = None
    ratio = None
    pruned_obj = None
    if (graph.D or 0) == 0:
        flags.append("degenerate_D_zero")
        fallback = True
    else:
        nl, nr = graph.shape
        tg = target_degrees(graph, delta_n, k)
        try:
            pruned_obj = prune(graph, gamma, tg["d_left"], tg["d_right"])
            family = SignedFamily(
                pruned_obj.left, pruned_obj.right, pruned_obj.edge_label,
                graph.label_sign_factors, graph.shape,
            )
            ratio = math.sqrt(float(nl) * float(nr)) / pruned_obj.D_prime
            cert["pruned"] = pruned_obj.report
        except PruningError as exc:
            flags.append(f"pruning_failed: {exc}")
            fallback = True

    cert["graph"] = {
        "n_labels": graph.n_labels,
        "D": graph.D,
        "N_L": graph.shape[0],
        "N_R": graph.shape[1],
    }
    shapes = analytic_degree_shapes("bipartite", n, ell, q, delta_n, k,
                                    s=s, p_size=piece.p_size)
    tg_rep = target_degrees(graph, delta_n, k)
    cert["degree_analytic"] = {
        "shape_d_left": shapes["d_left"],
        "shape_d_right": shapes["d_right"],
        "measured_d_left": float(tg_rep["d_left"]),
        "measured_d_right": float(tg_rep["d_right"]),
        "ratio_left": float(tg_rep["d_left"]) / shapes["d_left"]
        if shapes["d_left"] > 0 else None,
        "ratio_right": float(tg_rep["d_right"]) / shapes["d_right"]
        if shapes["d_right"] > 0 else None,
    }

    if family is not None:
        # sigma^2 on the actual sign-free pruned groups
        gm = pruned_obj.group_matrices()
        sig = khintchine_sigma(gm)
        kb = khintchine_bound(sig["sigma_sq"], graph.shape[0], graph.shape[1])
        bound_khin = ratio * kb if family.nnz else 0.0
        nonempty = sum(1 for m in gm if m.nnz)
        mean_norm, stderr, exhaustive, draws = _mean_norm_over_signs(
            family, k, trials, seed, threads=threads
        )
        bound_emp = ratio * mean_norm
        cert.update({
            "sigma_sq": sig["sigma_sq"],
            "sigma_sq_guarantee": sig["guarantee"],
            "sigma_proxy": sig["proxy"],
            "norm_mc": {"mean": mean_norm, "stderr": stderr,
                        "exhaustive": exhaustive, "draws": draws,
                        "nonempty_groups": nonempty},
            "bound_khintchine": bound_khin,
            "bound_empirical": bound_emp,
        })
        bound = min(bound_khin, bound_emp)
        if fallback:
            bound = min(bound, float(m_total))
    else:
        cert.update({"bound_khintchine": float(m_total),
                     "bound_empirical": float(m_total)})
        bound = float(m_total)

    cert.update({
        "bound": bound,
        "fallback_applies": fallback,
        "flags": flags,
    })
    return BipartiteRefutation(
        piece=piece, ell=ell, gamma=gamma, certificate=cert, family=family,
        ratio=ratio, trivial_bound=m_total, fallback_applies=fallback,
        graph=graph, pruned=pruned_obj,
    )


@dataclass
class FullRefutation:
    """Combined certificate: regular leftover + every bipartite piece."""

    instance: XorInstance
    epsilon: float
    decomposition: DecomposedInstance
    regular: RegularRefutation
    pieces: dict  # s -> BipartiteRefutation
    certificate: dict

    def bound_for_signs(self, b, capped: bool = True) -> float:
        total = self.regular.bound_for_signs(b, capped=capped)
        for s in sorted(self.pieces):
            total += self.pieces[s].bound_for_signs(b, capped=capped)
        return total

    def soundness_check(self, signs_list=None, guard: float = SOUNDNESS_GUARD):
        """Per fixed b: realized certified bound >= brute-force val(Phi_b).

        ``signs_list=None`` enumerates all 2^k sign vectors.  Both the
        reported (trivially capped) bound and the bare spectral chain are
        checked; each holds unconditionally per fixed b, and checking the
        uncapped chain keeps the norm and D' bookkeeping on the hook even
        where the trivial bound happens to be smaller."""
        inst = self.instance
        log = []
        if signs_list is None:
            vals = val_for_all_signs(inst)
            rows = sign_rows(inst.k)
            pairs = zip(rows, vals.tolist())
        else:
            pairs = (
                (b, brute_force_val(inst, b)[0]) for b in signs_list
            )
        for b, val in pairs:
            bound = self.bound_for_signs(b)
            spectral = self.bound_for_signs(b, capped=False)
            ok = (
                bound + guard * max(1.0, abs(bound)) >= val
                and spectral + guard * max(1.0, abs(spectral)) >= val
            )
            log.append({
                "b": [int(s) for s in b],
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
    delta_meas = inst.measured_delta() if inst.total_edges else Fraction(1, inst.n)
    thr = compute_thresholds(inst.n, inst.k, inst.q, delta_meas, ell_override=ell)
    dec = decompose(inst, thr)
    regular = refute_regular(
        dec.leftover, thr.ell, gamma=gamma, trials=trials, seed=seed,
        n_partitions=n_partitions, thresholds=thr, threads=threads,
    )
    pieces = {}
    piece_bounds = {}
    piece_failures = {}
    for s in sorted(dec.pieces):
        piece = dec.pieces[s]
        try:
            pieces[s] = refute_bipartite(
                piece, thr.ell, gamma=gamma, trials=trials,
                seed=seed * 131 + s, thresholds=thr, threads=threads,
            )
        except Exception as exc:  # partial results retained; trivial bound is sound
            piece_failures[s] = str(exc)
            trivial = piece.total_edges
            pieces[s] = BipartiteRefutation(
                piece=piece, ell=thr.ell, gamma=gamma,
                certificate={
                    "kind": "bipartite",
                    "params": {"n": piece.n, "k": piece.k, "q": piece.q,
                               "s": s, "ell": thr.ell, "gamma": gamma,
                               "seed": seed * 131 + s, "trials": trials},
                    "P_size": piece.p_size,
                    "m_total": trivial,
                    "trivial_bound": float(trivial),
                    "bound": float(trivial),
                    "fallback_applies": True,
                    "flags": [f"refutation_failed: {exc}"],
                },
                family=None, ratio=None, trivial_bound=trivial,
                fallback_applies=True,
            )
        piece_bounds[s] = pieces[s].certificate["bound"]

    combined = regular.certificate["bound"]
    for s in sorted(pieces):
        combined += piece_bounds[s]
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
    with open(path) as fh:
        return json.load(fh)
