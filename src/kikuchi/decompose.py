"""Greedy heavy-set decomposition of matching instances.

A set Q with 2 <= |Q| <= (q+1)/2 is *heavy* when more than d_|Q| hyperedges
of the combined multiset H = union_i H_i contain it.  Heavy sets are
promoted to labels; their hyperedges move into bipartite pieces, largest
set size first, until no heavy set remains in the leftover.

The thresholds d_t = (l/n)^(t - 3/2) * k are irrational in general; all
heaviness comparisons are done exactly via d_t^2 = k^2 l^(2t-3) / n^(2t-3)
(deg > d_t  <=>  deg^2 > d_t^2 for deg >= 0), floats appear only in reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .instances import BipartiteXorInstance, XorInstance, dump_json, eval_phi, \
    eval_psi_bipartite, validate_matching
from .setops import integer_root, mask_of, subsets_of_mask, verts_of


@dataclass(frozen=True)
class Thresholds:
    """Subset-degree thresholds d_t for t in 2..(q+1)/2, plus the scale l."""

    ell: int
    n: int
    k: int
    q: int
    d_sq: dict  # t -> Fraction, the exact square of d_t

    @property
    def t_range(self):
        return range(2, (self.q + 1) // 2 + 1)

    @property
    def k_ge_4ell(self) -> bool:
        return self.k >= 4 * self.ell

    @property
    def d_min_ge_1(self) -> bool:
        """d_t >= 1 at the largest t, (q+1)/2 (true when d_sq leaves it out)."""
        return self.d_sq.get((self.q + 1) // 2, Fraction(1)) >= 1

    def d_float(self, t: int) -> float:
        return math.sqrt(float(self.d_sq[t]))

    def is_heavy(self, deg: int, t: int) -> bool:
        return deg >= 0 and Fraction(deg * deg) > self.d_sq[t]

    def move_count(self, t: int) -> int:
        """floor(d_t) + 1 hyperedges move per promotion."""
        f = self.d_sq[t]
        return math.isqrt(f.numerator // f.denominator) + 1

    def to_dict(self) -> dict:
        return {
            "ell": self.ell,
            "n": self.n,
            "k": self.k,
            "q": self.q,
            "d": {str(t): self.d_float(t) for t in self.t_range},
            "d_sq": {
                str(t): [self.d_sq[t].numerator, self.d_sq[t].denominator]
                for t in self.t_range
            },
            "k_ge_4ell": self.k_ge_4ell,
            "d_min_ge_1": self.d_min_ge_1,
        }


def compute_thresholds(
    n: int, k: int, q: int, delta, ell_override: int | None = None
) -> Thresholds:
    """l = floor(n^(1-2/q) delta^(-2/q)) clamped to [1, n], or
    ``ell_override``, which must lie in [1, n]; d_t per formula.

    This is the one place a Kikuchi level is accepted.  Infeasible-parameter
    situations are flagged, not raised: the pipeline remains sound for any
    thresholds, only tightness depends on them.
    """
    if n < 1 or k < 1:
        raise ValueError("n, k must be positive")
    if q < 3 or q % 2 == 0:
        raise ValueError("main pipeline requires odd q >= 3")
    dl = Fraction(delta).limit_denominator(10**9) if not isinstance(delta, Fraction) else delta
    if not (0 < dl <= 1):
        raise ValueError("delta must lie in (0, 1]")
    if ell_override is None:
        # l^q <= n^(q-2) / delta^2, exact integer q-th root
        x = (n ** (q - 2)) * (dl.denominator**2)
        ell = max(1, min(integer_root(x // (dl.numerator**2), q), n))
    elif 1 <= ell_override <= n:
        ell = ell_override
    else:
        raise ValueError(f"ell must lie in [1, n] = [1, {n}], got {ell_override}")
    d_sq = {
        t: Fraction(k * k * ell ** (2 * t - 3), n ** (2 * t - 3))
        for t in range(2, (q + 1) // 2 + 1)
    }
    return Thresholds(ell=ell, n=n, k=k, q=q, d_sq=d_sq)


def instance_thresholds(inst: XorInstance, ell: int | None = None) -> Thresholds:
    """``compute_thresholds`` at the instance's measured delta, max_i |H_i| / n,
    or at 1/n when it has no edge, since the formula needs delta > 0."""
    delta = inst.measured_delta() if inst.total_edges else Fraction(1, inst.n)
    return compute_thresholds(inst.n, inst.k, inst.q, delta, ell_override=ell)


@dataclass(frozen=True)
class DecomposedInstance:
    """Leftover matchings plus one bipartite piece per promoted set size."""

    original: XorInstance
    leftover: XorInstance
    pieces: dict  # s -> BipartiteXorInstance (only s with a nonempty registry)
    provenance: tuple  # sorted ((i, pos), ("leftover",) or ("piece", s, label index))
    thresholds: Thresholds

    def to_dict(self) -> dict:
        return {
            "instance": self.original.to_dict(),
            "leftover": self.leftover.to_dict(),
            "pieces": {str(s): p.to_dict() for s, p in self.pieces.items()},
            "registries": {
                str(s): [[v + 1 for v in p] for p in piece.registry]
                for s, piece in self.pieces.items()
            },
            "provenance": [[i, pos, list(dest)] for (i, pos), dest in self.provenance],
            "thresholds": self.thresholds.to_dict(),
        }


def decompose(inst: XorInstance, thr: Thresholds) -> DecomposedInstance:
    """Run the greedy promotion loop, set size descending from (q+1)/2 to 2.

    Deterministic choices: the lexicographically smallest heavy set is
    promoted, and the floor(d_t)+1 moved hyperedges are those with smallest
    (i, original position).  A set's degree is the size of its incidence
    set, kept up to date as edges move; a promotion only ever lowers
    degrees, so within one size stage the heavy pool only shrinks.
    """
    q = inst.q
    tmax = (q + 1) // 2
    alive = {}  # (i, pos) -> edge mask
    for i, h in enumerate(inst.hypergraphs):
        for pos, e in enumerate(h):
            alive[(i, pos)] = mask_of(e)

    # incidence[t][Q]: the live edges containing Q, for every size t in 2..tmax
    incidence = {t: {} for t in range(2, tmax + 1)}
    for key, em in alive.items():
        for t in range(2, tmax + 1):
            for sub in subsets_of_mask(em, t):
                incidence[t].setdefault(sub, set()).add(key)

    labels = {t: {} for t in range(2, tmax + 1)}  # promoted mask -> label index
    piece_edges = {t: [[] for _ in range(inst.k)] for t in range(2, tmax + 1)}
    provenance = {}

    def remove_edge(key):
        em = alive.pop(key)
        for t in range(2, tmax + 1):
            for sub in subsets_of_mask(em, t):
                incidence[t][sub].discard(key)
        return em

    for t in range(tmax, 1, -1):
        heavy = {s for s, keys in incidence[t].items() if thr.is_heavy(len(keys), t)}
        while heavy:
            qmask = min(heavy, key=verts_of)
            chosen = sorted(incidence[t][qmask])[:thr.move_count(t)]
            p_idx = labels[t].setdefault(qmask, len(labels[t]))
            for key in chosen:
                em = remove_edge(key)
                left = verts_of(em & ~qmask)
                i, pos = key
                piece_edges[t][i].append((left, p_idx))
                provenance[key] = ("piece", t, p_idx)
            heavy = {s for s in heavy if thr.is_heavy(len(incidence[t][s]), t)}

    leftover_h = []
    for i, h in enumerate(inst.hypergraphs):
        kept = []
        for pos, e in enumerate(h):
            if (i, pos) in alive:
                kept.append(e)
                provenance[(i, pos)] = ("leftover",)
        leftover_h.append(kept)

    leftover = XorInstance(
        n=inst.n, k=inst.k, q=inst.q, delta=inst.delta, hypergraphs=leftover_h
    )
    pieces = {}
    for t in range(2, tmax + 1):
        if labels[t]:
            pieces[t] = BipartiteXorInstance(
                n=inst.n,
                k=inst.k,
                q=inst.q,
                s=t,
                registry=[verts_of(m) for m in labels[t]],
                hypergraphs=piece_edges[t],
            )
    return DecomposedInstance(
        original=inst,
        leftover=leftover,
        pieces=pieces,
        provenance=tuple(sorted(provenance.items())),
        thresholds=thr,
    )


def heavy_sets(inst: XorInstance, thr: Thresholds):
    """Yield (Q, deg_H(Q), |Q|) for every heavy Q over the union multiset H,
    by full rescan; smaller sizes first, then in first-seen order."""
    union = [e for h in inst.hypergraphs for e in h]
    for t in thr.t_range:
        counts = {}
        for e in union:
            for sub in subsets_of_mask(mask_of(e), t):
                counts[sub] = counts.get(sub, 0) + 1
        for sub, d in counts.items():
            if thr.is_heavy(d, t):
                yield verts_of(sub), d, t


def verify_decomposition(dec: DecomposedInstance) -> dict:
    """Check the five decomposition properties; returns a violation report.

    (1) piece shapes and registered labels, with the |P_s| size check;
    (2) leftover is a subset of the original, per i;
    (3) one-to-one correspondence C <-> destination with C = C' u p;
    (4) no heavy set remains in the leftover (exhaustive degree rescan);
    (5) matchings in, matchings out.
    """
    inst, thr = dec.original, dec.thresholds
    violations = []
    q = inst.q

    for s, piece in dec.pieces.items():
        if piece.s != s:
            violations.append(f"piece {s}: inconsistent s")
        for i, h in enumerate(piece.hypergraphs):
            for c, p in h:
                if len(c) != q - s:
                    violations.append(f"piece {s}, H_{i}: left set {c} has wrong size")
                if not (0 <= p < piece.p_size):
                    violations.append(f"piece {s}, H_{i}: unregistered label {p}")
        total = inst.total_edges
        # |P_s| <= 2^q |H| / d_s, exactly: |P_s|^2 d_s^2 <= (2^q |H|)^2
        if Fraction(piece.p_size**2) * thr.d_sq[s] > Fraction(((2**q) * total) ** 2):
            violations.append(
                f"piece {s}: |P_s|={piece.p_size} exceeds 2^q |H|/d_s"
            )
        # every promotion consumed floor(d_s)+1 edges
        if piece.p_size * thr.move_count(s) > piece.total_edges:
            violations.append(
                f"piece {s}: fewer edges than |P_s| * (floor(d_s)+1)"
            )

    for i in range(inst.k):
        orig = set(inst.hypergraphs[i])
        left = list(dec.leftover.hypergraphs[i])
        if not set(left) <= orig:
            violations.append(f"H'_{i} is not a subset of H_{i}")

        reconstructed = sorted(left)
        for s, piece in dec.pieces.items():
            for c, p in piece.hypergraphs[i]:
                full = tuple(sorted(set(c) | set(piece.registry[p])))
                if len(full) != q:
                    violations.append(
                        f"piece {s}, H_{i}: {c} u {piece.registry[p]} is not a q-set"
                    )
                reconstructed.append(full)
        if sorted(reconstructed) != sorted(orig):
            violations.append(f"H_{i}: reconstruction is not a bijection onto H_{i}")

    for q_set, d, t in heavy_sets(dec.leftover, thr):
        violations.append(f"leftover degree of {q_set} is {d} > d_{t}")

    for i in range(inst.k):
        ok, pair = validate_matching(dec.leftover.hypergraphs[i])
        if not ok:
            violations.append(f"H'_{i} not a matching: {pair}")
    for s, piece in dec.pieces.items():
        for i, h in enumerate(piece.hypergraphs):
            ok, pair = validate_matching([c for c, _ in h])
            if not ok or len({p for _, p in h}) != len(h):
                violations.append(f"piece {s}, H^({s})_{i} not a bipartite matching")

    return {"ok": not violations, "violations": violations}


def recombination_check(dec: DecomposedInstance, b, x) -> bool:
    """Exact identity Phi_b(x) = Psi_b(x) + sum_s Psi^(s)_b(x, y) with
    y_p = prod_{v in p} x_v."""
    lhs = eval_phi(dec.original, b, x)
    rhs = eval_phi(dec.leftover, b, x)
    for piece in dec.pieces.values():
        y = []
        for p in piece.registry:
            val = 1
            for v in p:
                val *= int(x[v])
            y.append(val)
        rhs += eval_psi_bipartite(piece, b, x, y)
    return lhs == rhs


def dump_decomposition(dec: DecomposedInstance, path, extra: dict | None = None):
    d = dec.to_dict()
    if extra:
        d.update(extra)
    dump_json(d, path)
