"""Row pruning to approximately regular subgraphs, plus degree diagnostics.

Per Rademacher group, vertices whose (multiplicity) degree exceeds Gamma
times the target are marked heavy and their edges dropped; afterwards every
label is trimmed to the common survivor minimum D' so quadratic forms stay
an exact multiple of the instance polynomial.  Degrees count incident
label-edges, so pruning is independent of any sign assignment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np

from .graphs import KikuchiGraph


class PruningError(RuntimeError):
    """No edges survive pruning; no certificate is possible at this Gamma."""


@dataclass
class DegreeProfile:
    """Per-group vertex -> degree maps (multiplicity counts), split by side."""

    left: list  # per group, dict rank -> degree
    right: list
    group_edge_counts: list


def degree_profile(graph: KikuchiGraph) -> DegreeProfile:
    lefts, rights, counts = [], [], []
    for g in range(graph.n_groups):
        mask = graph.label_group[graph.edge_label] == g
        lv, lc = np.unique(graph.left[mask], return_counts=True)
        rv, rc = np.unique(graph.right[mask], return_counts=True)
        lefts.append(dict(zip(lv.tolist(), lc.tolist())))
        rights.append(dict(zip(rv.tolist(), rc.tolist())))
        counts.append(int(mask.sum()))
    return DegreeProfile(left=lefts, right=rights, group_edge_counts=counts)


def target_degrees(graph: KikuchiGraph, delta_n: int, k: int) -> dict:
    """Exact rational degree targets, with the analytic shape values.

    regular_cs: d = delta*n*k*D / N;  bipartite: d_L = delta*n*D / N_L and
    d_R = delta*n*D / N_R.  The analytic lower-bound shapes (powers of l/n)
    are evaluated with constant 1 and reported as measured/analytic ratios.
    """
    nl, nr = graph.shape
    D = graph.D or 0
    out = {"D": D, "N_L": nl, "N_R": nr}
    if graph.variant == "regular_cs":
        d = Fraction(delta_n * k * D, nl) if nl else Fraction(0)
        out["d"] = d
        out["d_left"] = d
        out["d_right"] = d
    else:
        out["d_left"] = Fraction(delta_n * D, nl) if nl else Fraction(0)
        out["d_right"] = Fraction(delta_n * D, nr) if nr else Fraction(0)
    return out


def analytic_degree_shapes(
    variant: str, n: int, ell: int, q: int, delta_n: int, k: int,
    s: int = 0, p_size: int = 0,
) -> dict:
    """The constant-free degree lower-bound expressions (constant = 1)."""
    r = Fraction(ell, n)
    if variant == "regular_cs":
        return {"d": float(r ** (q - 1) * delta_n * k)}
    return {
        "d_left": float(r ** Fraction(q - 1, 2) * delta_n),
        "d_right": float(
            r ** ((q + 1) // 2 - s) * Fraction(ell, p_size) * delta_n
        )
        if p_size
        else 0.0,
    }


@dataclass(kw_only=True)
class PrunedGraph(KikuchiGraph):
    """The kept edges of ``parent`` as a graph of their own: every label owns
    D = D' edges and group degrees are capped at gamma times the targets."""

    parent: KikuchiGraph
    D_prime: int
    gamma: float
    d_left: Fraction
    d_right: Fraction
    report: dict


def prune(graph: KikuchiGraph, gamma, d_left: Fraction, d_right: Fraction) -> PrunedGraph:
    """Drop group-heavy endpoints, then equalize every label to D' edges.

    Heavy means degree strictly above gamma * d (exact rational compare);
    symmetric variants drop in endpoint-swapped pairs so every per-label
    subgraph remains symmetric.  Trimming removes the lexicographically
    largest surviving entries.  ``PruningError`` when no edge survives in
    some label, or when the graph has no label at all.
    """
    # an integer degree exceeds the exact rational cap gamma * d iff it
    # exceeds the cap's floor
    limit_l = math.floor(Fraction(gamma) * d_left)
    limit_r = math.floor(Fraction(gamma) * d_right)
    # one pass over (group, endpoint) keys: an endpoint is heavy in a group
    # when more of the group's edges hold it than the limit
    n_groups = graph.n_groups
    group = graph.label_group[graph.edge_label].astype(np.int64)
    keys, at, degree = np.unique(group * graph.shape[0] + graph.left,
                                 return_inverse=True, return_counts=True)
    heavy = degree > limit_l
    keep_mask = ~heavy[at]
    heavy_left = np.bincount(keys[heavy] // graph.shape[0], minlength=n_groups)
    if graph.symmetric:
        # entries come in swapped pairs, so row and column degrees agree
        keep_mask &= ~np.isin(group * graph.shape[0] + graph.right, keys[heavy])
        heavy_right = heavy_left
    else:
        keys, at, degree = np.unique(group * graph.shape[1] + graph.right,
                                     return_inverse=True, return_counts=True)
        heavy = degree > limit_r
        keep_mask &= ~heavy[at]
        heavy_right = np.bincount(keys[heavy] // graph.shape[1], minlength=n_groups)
    heavy_l_total = int(heavy_left.sum())
    heavy_r_total = int(heavy_right.sum())
    per_group = [{"group": g, "heavy_left": int(hl), "heavy_right": int(hr)}
                 for g, (hl, hr) in enumerate(zip(heavy_left, heavy_right))]

    surviving = np.flatnonzero(keep_mask)
    counts = np.bincount(graph.edge_label[surviving], minlength=graph.n_labels)
    D_prime = int(counts.min()) if graph.n_labels else 0
    if D_prime == 0:
        raise PruningError(
            f"pruning at gamma={gamma} left an empty label "
            f"(survivor counts {counts.min(initial=0)}..{counts.max(initial=0)})"
        )

    # equalize: sort the survivors of labels above D' by (label, edge key)
    # and keep each such label's first D'.  Symmetric variants sort by the
    # unordered pair key, which makes the two entries of a pair adjacent, so
    # an even-length prefix never splits a pair and B_i stays symmetric.
    lab_surv = graph.edge_label[surviving]
    over = counts[lab_surv] > D_prime
    trim, lab_trim = surviving[over], lab_surv[over]
    if graph.symmetric:
        lo = np.minimum(graph.left[trim], graph.right[trim])
        hi = np.maximum(graph.left[trim], graph.right[trim])
        order = np.lexsort((hi, lo, lab_trim))
    else:
        order = np.lexsort((graph.right[trim], graph.left[trim], lab_trim))
    trim_sorted = trim[order]
    lab_sorted = lab_trim[order]
    # each survivor's rank within its label
    rank = np.arange(len(lab_sorted)) - np.searchsorted(lab_sorted, lab_sorted)
    keep = np.sort(np.concatenate([surviving[~over], trim_sorted[rank < D_prime]]))

    report = {
        "gamma": float(gamma),
        "D": graph.D,
        "D_prime": D_prime,
        "ratio": D_prime / graph.D,
        "d_left": float(d_left),
        "d_right": float(d_right),
        "heavy_left": heavy_l_total,
        "heavy_right": heavy_r_total,
        "meets_half_D": 2 * D_prime >= graph.D,
        "per_group": per_group,
    }
    # the parent's edges at ``keep``, with every other graph field shared
    shared = {f.name: getattr(graph, f.name) for f in fields(KikuchiGraph) if f.init}
    shared.update(left=graph.left[keep], right=graph.right[keep],
                  edge_label=graph.edge_label[keep], D=D_prime)
    return PrunedGraph(**shared, parent=graph, D_prime=D_prime,
                       gamma=float(gamma), d_left=d_left, d_right=d_right, report=report)


def verify_pruned(pruned: PrunedGraph) -> dict:
    """Exact pruning-contract checks: subset, equalized counts, degree caps,
    and symmetry preservation for symmetric variants."""
    graph = pruned.parent
    violations = []
    parent_edges = set(
        zip(graph.left.tolist(), graph.right.tolist(), graph.edge_label.tolist())
    )
    kept = list(
        zip(pruned.left.tolist(), pruned.right.tolist(), pruned.edge_label.tolist())
    )
    if not set(kept) <= parent_edges:
        violations.append("pruned edge set is not a subset of the original")
    if not pruned.verify_label_counts():
        violations.append("labels not equalized to D'")
    cap_l = Fraction(pruned.gamma) * pruned.d_left
    cap_r = Fraction(pruned.gamma) * pruned.d_right
    for g in range(graph.n_groups):
        m = graph.label_group[pruned.edge_label] == g
        if not m.any():
            continue
        _, lc = np.unique(pruned.left[m], return_counts=True)
        _, rc = np.unique(pruned.right[m], return_counts=True)
        if graph.symmetric:
            if lc.size and Fraction(int(lc.max())) > cap_l:
                violations.append(f"group {g}: row degree above Gamma*d")
            if rc.size and Fraction(int(rc.max())) > cap_l:
                violations.append(f"group {g}: column degree above Gamma*d")
        else:
            if lc.size and Fraction(int(lc.max())) > cap_l:
                violations.append(f"group {g}: row degree above Gamma*d_L")
            if rc.size and Fraction(int(rc.max())) > cap_r:
                violations.append(f"group {g}: column degree above Gamma*d_R")
    if graph.symmetric:
        for j in range(graph.n_labels):
            m = pruned.edge_label == j
            pairs = set(zip(pruned.left[m].tolist(), pruned.right[m].tolist()))
            if {(r, l) for l, r in pairs} != pairs:
                violations.append(f"label {j}: pruned subgraph not symmetric")
                break
    return {"ok": not violations, "violations": violations}
