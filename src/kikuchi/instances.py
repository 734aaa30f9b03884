"""XOR instances over hypergraph matchings, their polynomials, and oracles.

An instance is ``k`` q-uniform hypergraph matchings H_1..H_k on [n] plus an
optional sign vector b; its polynomial is

    Phi_b(x) = sum_i b_i sum_{C in H_i} prod_{v in C} x_v,   x in {-1,+1}^n.

Bipartite instances carry hyperedges (C, p) with |C| = q - s left vertices
and a label p from a registry of s-subsets; their polynomial additionally
multiplies by y_p.  Everything here is immutable after construction and all
randomness flows through explicit seeds.

The exact oracle (``brute_force_val``, ``val_for_all_signs``,
``expected_val``) runs one enumerator, ``_scan``.  It first merges the
constraints that share a mask into one column holding the sum of their
signs: equal masks have one character.  It then splits an assignment index
a into its low t = min(nv, 12) bits and the rest, so every character
factors as chi_C(a) = chi_{C_hi}(a >> t) chi_{C_lo}(a mod 2^t); a block of
(high bits, sign row) pairs is then one float32 GEMM against a low-bit
character table built once, with one row per distinct mask.  Every partial
sum of that GEMM is an integer of magnitude at most m, the constraint count
before merging, so the float32 GEMM is exact whatever the BLAS summation
order while m <= 2^24 (``EXACT_SUM_LIMIT``); the scan refuses larger m
before it builds a table.  Blocks hold 2^18 values (1 MB); the low table
takes 16 KB per distinct mask, so with up to about 64 distinct masks the two fit
a 2 MB L2 cache.  ``val_for_all_signs`` scans only the sign
vectors with b_k = +1 and reads val(Phi_-b) = -min Phi_b off the same rows.

Callers that need only values (``val_for_all_signs``, ``expected_val`` and
through them ``FullRefutation.soundness_check``) scan a quotient of the
assignment space.  Phi_b(a) depends on a only through the parities
<mask_C, a> over GF(2).  For a basis beta_1..beta_r of the masks' span,
a -> (<beta_j, a>)_j hits every point of GF(2)^r 2^(nv - r) times, so with
each mask rewritten in basis coordinates lambda_C (``_quotient``) the max
and min over the 2^r points equal those over all assignments.  When some w
has <lambda_C, w> = 1 for every C (always for odd q: flip every variable;
always for bipartite pieces: flip every label), Phi_b(y xor w) = -Phi_b(y);
w can be taken with its top bit set, so only the 2^(r-1) points with a
clear top bit are scanned, max = max(top, -bottom) and min = -max.
``brute_force_val`` keeps the plain 2^nv scan: its argmax is the lowest
maximising assignment index, which the quotient does not see.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .setops import mask_of

EXHAUSTIVE_LIMIT = 24  # max total +-1 variables for the exact oracle
INDEX_BITS = 63  # variables an int64 assignment index can hold
EXHAUSTIVE_B_LIMIT = 16  # expected_val enumerates all 2^k signs up to here
# One GEMM block of BLOCK_ENTRIES values (1 MB) and the low character table
# (distinct masks x 2^LOW_BITS float32, 16 KB per mask) fit together in a
# 2 MB L2 cache for up to about 64 distinct masks, as on the benchmark
# instances, so the max and min passes over each block read cached data.
# Tuned on a VM with a 2 MB per-core L2.
LOW_BITS = 12  # assignment bits in the oracle's low character table
BLOCK_ENTRIES = 1 << 18  # float32 values (1 MB) per oracle GEMM block
EXACT_SUM_LIMIT = 1 << 24  # float32 holds every integer up to here exactly
PLANTED_ATTEMPTS = 200  # generator draws before a planted instance is refused


class DimensionMismatch(ValueError):
    pass


class InfeasibleSize(ValueError):
    pass


class OracleLimitExceeded(RuntimeError):
    """Exhaustive scan refused; caller may fall back to sampling."""


def validate_matching(edges) -> tuple[bool, tuple | None]:
    """Check pairwise disjointness; returns (ok, first colliding pair or None)."""
    seen = 0
    for idx, e in enumerate(edges):
        m = mask_of(e)
        if seen & m:
            for jdx in range(idx):
                if mask_of(edges[jdx]) & m:
                    return False, (tuple(edges[jdx]), tuple(e))
        seen |= m
    return True, None


def _field(d: dict, key: str, convert):
    """``convert(d[key])``, with a TypeError from it naming the field."""
    try:
        return convert(d[key])
    except TypeError as exc:
        raise TypeError(f"field {key!r} has the wrong type: {exc}") from None


def _int(value):
    """``value`` when it is an int and not a bool; TypeError otherwise."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _number(value):
    """``value`` when it is an int or a float and not a bool; TypeError otherwise."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return value


def _check_sets(sets, size: int, n: int, what: str):
    """Every set in ``sets`` holds ``size`` distinct vertices of [0, n)."""
    for e in sets:
        if len(e) != size or len(set(e)) != size or not all(0 <= v < n for v in e):
            raise ValueError(f"{what} {e} is not a set of {size} vertices in [0, {n})")


@dataclass(frozen=True)
class _Matchings:
    """What both instance types share: k matchings over [n] of a q-ary
    polynomial.  Each subclass declares ``hypergraphs`` and ``signs`` after
    its own fields, so that its constructor keeps its field order."""

    n: int
    k: int
    q: int

    def _check(self, matchings, size: int, what: str):
        """The one instance contract: n and q at least 1, k matchings of
        ``size``-sets of [0, n), pairwise disjoint within each, and +-1
        signs, which are stored as ints."""
        if self.n < 1 or self.q < 1:
            raise ValueError(f"n and q must be >= 1, got n={self.n}, q={self.q}")
        if len(matchings) != self.k:
            raise DimensionMismatch("expected k hypergraphs")
        for sets in matchings:
            _check_sets(sets, size, self.n, what)
            ok, pair = validate_matching(sets)
            if not ok:
                raise ValueError(f"not a matching: {what}s {pair} collide")
        if self.signs is not None:
            object.__setattr__(self, "signs", _check_signs(self.signs, self.k))

    @property
    def edge_counts(self) -> tuple[int, ...]:
        return tuple(len(h) for h in self.hypergraphs)

    @property
    def total_edges(self) -> int:
        return sum(self.edge_counts)

    @property
    def delta_n(self) -> int:
        """max_i |H_i|, the measured delta * n; 0 without a matching."""
        return max(self.edge_counts, default=0)

    def to_dict(self) -> dict:
        """The fields both types write; a subclass adds its own."""
        return {"n": self.n, "k": self.k, "q": self.q,
                "signs": list(self.signs) if self.signs is not None else None}

    @classmethod
    def from_dict(cls, d: dict, **fields):
        """The instance a file's object holds, given the subclass's ``fields``."""
        return cls(n=_field(d, "n", _int), k=_field(d, "k", _int), q=_field(d, "q", _int),
                   signs=d.get("signs"), **fields)


@dataclass(frozen=True)
class XorInstance(_Matchings):
    """k q-uniform hypergraph matchings on [n] with optional fixed signs."""

    delta: float
    hypergraphs: tuple  # k tuples of sorted vertex tuples (0-based)
    signs: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "hypergraphs", tuple(
            tuple(tuple(sorted(e)) for e in h) for h in self.hypergraphs))
        self._check(self.hypergraphs, self.q, "edge")

    def measured_delta(self) -> Fraction:
        """max_i |H_i| / n, from the data rather than the metadata field."""
        return Fraction(self.delta_n, self.n)

    def to_dict(self) -> dict:
        return {**super().to_dict(), "delta": self.delta,
                "hypergraphs": [[[v + 1 for v in e] for e in h] for h in self.hypergraphs]}

    @classmethod
    def from_dict(cls, d: dict) -> "XorInstance":
        return super().from_dict(d, delta=_field(d, "delta", _number), hypergraphs=_field(
            d, "hypergraphs", lambda hs: [[[v - 1 for v in e] for e in h] for h in hs]))


@dataclass(frozen=True)
class BipartiteXorInstance(_Matchings):
    """k bipartite matchings over [n] x P_s; labels are registered s-subsets."""

    s: int
    registry: tuple  # distinct s-subsets of [n], index = label p
    hypergraphs: tuple  # k tuples of (left vertex tuple, label index)
    signs: tuple | None = None

    def __post_init__(self):
        """The instance contract on the left sets, then the label rules: s
        in range, distinct s-subsets of [0, n) in the registry, and integer
        label indices into it, distinct within a matching."""
        if not (2 <= self.s <= (self.q + 1) // 2):
            raise ValueError("s out of range for the pipeline")
        object.__setattr__(self, "registry", tuple(tuple(sorted(p)) for p in self.registry))
        object.__setattr__(self, "hypergraphs", tuple(
            tuple((tuple(sorted(c)), _int(p)) for c, p in h) for h in self.hypergraphs))
        self._check([[c for c, _ in h] for h in self.hypergraphs], self.q - self.s,
                    "left set")
        _check_sets(self.registry, self.s, self.n, "registry set")
        if len(set(self.registry)) != self.p_size:
            raise ValueError("registry labels must be distinct")
        for h in self.hypergraphs:
            labels = [p for _, p in h]
            if not all(0 <= p < self.p_size for p in labels):
                raise ValueError(f"unknown label index in {labels}")
            if len(set(labels)) != len(labels):
                raise ValueError(f"a label repeats within one matching: {labels}")

    @property
    def p_size(self) -> int:
        return len(self.registry)

    def to_dict(self) -> dict:
        return {**super().to_dict(), "s": self.s,
                "labels": [[v + 1 for v in p] for p in self.registry],
                "hypergraphs": [[{"left": [v + 1 for v in c], "p": p} for c, p in h]
                                for h in self.hypergraphs]}

    @classmethod
    def from_dict(cls, d: dict) -> "BipartiteXorInstance":
        return super().from_dict(
            d, s=_field(d, "s", _int),
            registry=_field(d, "labels", lambda ps: [[v - 1 for v in p] for p in ps]),
            hypergraphs=_field(d, "hypergraphs", lambda hs: [
                [([v - 1 for v in e["left"]], e["p"]) for e in h] for h in hs]))


def _check_signs(values, length: int, name: str = "signs") -> tuple:
    """``values`` as a tuple of ints; it must hold ``length`` entries that
    each equal +-1 exactly, checked before any cast, so 1.9 is refused
    rather than truncated to 1 (DimensionMismatch)."""
    values = tuple(values)
    if len(values) != length or not {*values} <= {-1, 1}:
        raise DimensionMismatch(f"{name} must be a +-1 vector of length {length}")
    return tuple(map(int, values))


def eval_phi(inst: XorInstance, b, x) -> int:
    """Exact integer value of Phi_b(x)."""
    b = _check_signs(b, inst.k)
    x = _check_signs(x, inst.n, "x")
    total = 0
    for bi, h in zip(b, inst.hypergraphs):
        for e in h:
            mono = 1
            for v in e:
                mono *= x[v]
            total += bi * mono
    return total


def eval_psi_bipartite(inst: BipartiteXorInstance, b, x, y) -> int:
    """Exact integer value of Psi^(s)_b(x, y)."""
    b = _check_signs(b, inst.k)
    x = _check_signs(x, inst.n, "x")
    y = _check_signs(y, inst.p_size, "y (indexed by the registry)")
    total = 0
    for bi, h in zip(b, inst.hypergraphs):
        for c, p in h:
            mono = y[p]
            for v in c:
                mono *= x[v]
            total += bi * mono
    return total


def _constraint_masks(inst):
    """Per-constraint (owning matching, variable bitmask) over the joint vector.

    Joint order: x_0..x_{n-1} then (for bipartite) y_0..y_{|P|-1}.  A sign
    vector b weights constraint c by ``b[owner[c]]``.
    """
    owner, masks = [], []
    for i, h in enumerate(inst.hypergraphs):
        for e in h:
            owner.append(i)
            if isinstance(inst, XorInstance):
                masks.append(mask_of(e))
            else:
                c, p = e
                masks.append(mask_of(c) | (1 << (inst.n + p)))
    return np.asarray(owner, dtype=np.int64), masks


def _oracle_vars(inst, limit: int) -> int:
    """Joint variable count; refuses when it exceeds ``limit``."""
    nv = inst.n + (inst.p_size if isinstance(inst, BipartiteXorInstance) else 0)
    if nv > limit:
        raise OracleLimitExceeded(f"{nv} variables exceeds exhaustive limit {limit}")
    return nv


def _chi(a, b) -> np.ndarray:
    """(-1)^(bit count of a_i & b_j) as a float32 (len(a), len(b)) table."""
    return np.subtract(1, 2 * (np.bitwise_count(a[:, None] & b[None, :]) & 1),
                       dtype=np.float32)


def _scan(masks, coeff, nv: int):
    """Max, first argmax and min of ``coeff[r] . chi(a)`` over a in [0, 2^nv).

    ``chi(a)[c] = (-1)^(bit count of a & masks[c])``, so mask bits at or above
    nv play no part.  Columns with equal masks have one character, so the
    columns of each mask are first merged into one holding the sum of their
    coefficients; the tables below then have one row per distinct mask.
    With a = (hi << t) | lo,
    every character factors as chi_C(a) = chi_{C_hi}(hi) chi_{C_lo}(lo), so
    the values of a block of (hi, row) pairs are one float32 GEMM,
    ``(high[hi] * coeff[row]) @ low``, against the (distinct masks, 2^t)
    low-bit table.  A merged coefficient is a sum of at most m signs, so
    every product and every partial sum is an integer with |s| <= m, m the
    constraint count before merging; the sums are exact for
    m <= EXACT_SUM_LIMIT, and a larger m is refused before any table is
    built.  The argmax is the lowest maximising assignment index.  Returns
    three int64 arrays.
    """
    rows, m = coeff.shape
    if m > EXACT_SUM_LIMIT:
        raise OracleLimitExceeded(
            f"{m} constraints exceeds the exact float32 sum limit {EXACT_SUM_LIMIT}")
    masks, group = np.unique(np.asarray(masks, dtype=np.uint64), return_inverse=True)
    # coeff's columns in mask order; the columns of masks[g] start at starts[g]
    order = np.argsort(group, kind="stable")
    starts = np.searchsorted(group[order], np.arange(len(masks)))
    m = len(masks)
    t = min(nv, LOW_BITS)
    lo_masks = (masks & np.uint64((1 << t) - 1)).astype(np.uint16)  # t <= 16
    low = _chi(lo_masks, np.arange(1 << t, dtype=np.uint16))
    high = _chi(np.arange(1 << (nv - t), dtype=np.uint64), masks >> np.uint64(t))
    best = np.full(rows, -np.inf)
    worst = np.full(rows, np.inf)
    arg = np.zeros(rows, dtype=np.int64)
    # (hi, row) pairs per block, so that a block holds <= BLOCK_ENTRIES floats
    pairs = max(1, BLOCK_ENTRIES >> t)
    rb = max(1, min(rows, pairs))
    hb = max(1, pairs // rb)
    for r0 in range(0, rows, rb):
        c = np.add.reduceat(coeff[r0 : r0 + rb, order].astype(np.float32), starts, axis=1)
        sel = np.arange(len(c))
        for h0 in range(0, len(high), hb):
            w = high[h0 : h0 + hb, None, :] * c[None, :, :]  # (hi, row, m)
            vals = (w.reshape(len(w) * len(c), m) @ low).reshape(len(w), len(c), -1)
            top = vals.max(axis=2)
            np.minimum(worst[r0 : r0 + rb], vals.min(axis=2).min(axis=0),
                       out=worst[r0 : r0 + rb])
            hi = top.argmax(axis=0)  # first (lowest) hi reaching each row's max
            top = top[hi, sel]
            up = np.flatnonzero(top > best[r0 : r0 + rb])
            if up.size:
                lo = vals[hi[up], up].argmax(axis=1)
                best[r0 + up] = top[up]
                arg[r0 + up] = ((h0 + hi[up]) << t) | lo
    return best.astype(np.int64), arg, worst.astype(np.int64)


def _quotient(masks):
    """(lam, r, flip): ``masks`` in the coordinates of a GF(2) basis of
    their span, its rank r, and whether all-ones flips every parity.

    The basis is the masks that are independent of those before them, in
    order; basis mask j gets lam = e_j, and every other mask the sum of the
    basis masks it reduces to.  So the only w that can flip every parity is
    all-ones, whose top bit is set, and ``flip`` holds when r > 0 and every
    lam has odd weight.
    """
    pivots = []  # (reduced mask, its lam); leading bits are distinct
    lam = []
    for mask in masks:
        comb = 0
        for p, c in pivots:
            if mask ^ p < mask:  # mask holds p's leading bit
                mask ^= p
                comb ^= c
        if mask:
            bit = 1 << len(pivots)
            pivots.append((mask, comb ^ bit))
            comb = bit
        lam.append(comb)
    r = len(pivots)
    return lam, r, r > 0 and all(c.bit_count() & 1 for c in lam)


def _values(masks, coeff):
    """Max and min of ``coeff[row] . chi(a)`` over all assignments a, by
    one ``_scan`` over the quotient (see the module docstring)."""
    lam, r, flip = _quotient(masks)
    if not flip:
        top, _, bottom = _scan(lam, coeff, r)
        return top, bottom
    # the points y < 2^(r-1), whose top bit is clear
    top, _, bottom = _scan(lam, coeff, r - 1)
    top = np.maximum(top, -bottom)
    return top, -top


def brute_force_val(inst, b, limit: int = EXHAUSTIVE_LIMIT):
    """Exact max of the instance polynomial over all +-1 assignments.

    Returns (value, argmax x, argmax y or None).  Bit v of the assignment
    index set means variable v is -1; the argmax is the lowest maximising
    index.  Refuses when the joint variable count exceeds ``limit`` or
    INDEX_BITS, whichever is smaller.
    """
    b = _check_signs(b, inst.k)
    nv = _oracle_vars(inst, min(limit, INDEX_BITS))
    owner, masks = _constraint_masks(inst)
    top, arg, _ = _scan(masks, np.asarray(b, dtype=np.int8)[None, owner], nv)
    best_val, best_idx = int(top[0]), int(arg[0])
    x = [1 - 2 * ((best_idx >> v) & 1) for v in range(inst.n)]
    y = None
    if isinstance(inst, BipartiteXorInstance):
        y = [1 - 2 * ((best_idx >> (inst.n + p)) & 1) for p in range(inst.p_size)]
    return best_val, x, y


def sign_rows(k: int, fix_first: bool = False) -> np.ndarray:
    """All +-1 vectors of length k, bit i of the row index set meaning b_i
    is -1; with ``fix_first`` only those with b_1 = +1 (norms of Rademacher
    sums are invariant under global flip)."""
    kk = k - 1 if fix_first else k
    idx = np.arange(1 << kk, dtype=np.uint64)
    rows = 1 - 2 * (
        (idx[:, None] >> np.arange(kk, dtype=np.uint64)[None, :]) & 1
    ).astype(np.int8)
    if fix_first:
        rows = np.hstack([np.ones((len(rows), 1), dtype=np.int8), rows])
    return rows


def val_for_all_signs(inst, limit: int = EXHAUSTIVE_LIMIT, signs=None) -> np.ndarray:
    """val(Phi_b) for every b in {-1,+1}^k (bit i of the row index = b_i is
    -1), or for each row b of ``signs`` when given.

    Both forms are one values-only scan over the quotient.  The full form
    scans only the 2^(k-1) rows with b_k = +1: Phi_{-b} = -Phi_b, so
    val(Phi_{-b}) = -min_a Phi_b(a) comes from the same scan.  This holds
    for every instance, even q and bipartite pieces included.  Both limits
    are checked before any row is built; ``signs`` is not held to
    EXHAUSTIVE_B_LIMIT.
    """
    nv = _oracle_vars(inst, limit)
    owner, masks = _constraint_masks(inst)
    if signs is not None:
        rows = np.asarray(signs)
        if not np.isin(rows, (-1, 1)).all():  # checked before any cast truncates
            raise DimensionMismatch("signs must be +-1 vectors of length k")
        rows = rows.astype(np.int8).reshape(len(signs), inst.k)
        return _values(masks, rows[:, owner])[0]
    if inst.k > EXHAUSTIVE_B_LIMIT:
        raise OracleLimitExceeded(f"k={inst.k} too large to enumerate signs")
    full = 1 << inst.k
    half = (full + 1) // 2  # k = 0: the one empty sign vector
    top, bottom = _values(masks, sign_rows(inst.k)[:half, owner])
    # row full-1-j holds -b_j; rows half..full-1 are j = half-1..0
    return np.concatenate([top, -bottom[::-1]])[:full]


def expected_val(inst, trials: int = 200, seed: int = 0, limit: int = EXHAUSTIVE_LIMIT):
    """Mean (and stderr) of val over uniform signs b.

    Exhaustive over all 2^k sign vectors when k <= 16 (stderr 0); Monte Carlo
    otherwise, with every sampled sign vector in one scan, which needs two
    draws for its standard error.
    """
    if inst.k <= EXHAUSTIVE_B_LIMIT:
        vals = val_for_all_signs(inst, limit=limit)
        return float(vals.mean()), 0.0
    if trials < 2:
        raise ValueError(f"trials must be >= 2 to sample signs, got {trials}")
    rng = np.random.default_rng(seed)
    b = 1 - 2 * rng.integers(0, 2, size=(trials, inst.k)).astype(np.int8)
    arr = val_for_all_signs(inst, limit=limit, signs=b).astype(float)
    return float(arr.mean()), float(arr.std(ddof=1) / np.sqrt(trials))


def generate_random_matching_instance(
    n: int, q: int, k: int, delta: float, seed: int
) -> XorInstance:
    """k independent uniformly random q-uniform matchings of size floor(delta*n)."""
    m = int(delta * n)
    if m * q > n:
        raise InfeasibleSize(f"need {m * q} vertices for a size-{m} matching, have {n}")
    rng = np.random.default_rng(seed)
    hgs = []
    for _ in range(k):
        perm = rng.permutation(n)[: m * q]
        hgs.append([sorted(int(v) for v in perm[j * q : (j + 1) * q]) for j in range(m)])
    return XorInstance(n=n, k=k, q=q, delta=delta, hypergraphs=hgs)


def generate_random_bipartite_instance(
    n: int, q: int, s: int, k: int, edges_per: int, p_size: int, seed: int
) -> BipartiteXorInstance:
    """Random bipartite matchings over [n] x P_s with a random registry."""
    if edges_per * (q - s) > n or edges_per > p_size:
        raise InfeasibleSize("matching does not fit")
    rng = np.random.default_rng(seed)
    all_s = list(combinations(range(n), s))
    if p_size > len(all_s):
        raise InfeasibleSize("registry larger than the number of s-subsets")
    reg_idx = rng.choice(len(all_s), size=p_size, replace=False)
    registry = [all_s[i] for i in reg_idx]
    hgs = []
    for _ in range(k):
        perm = rng.permutation(n)[: edges_per * (q - s)]
        labels = rng.choice(p_size, size=edges_per, replace=False)
        h = []
        for j in range(edges_per):
            left = sorted(int(v) for v in perm[j * (q - s) : (j + 1) * (q - s)])
            h.append((left, int(labels[j])))
        hgs.append(h)
    return BipartiteXorInstance(
        n=n, k=k, q=q, s=s, registry=registry, hypergraphs=hgs
    )


# ---------------------------------------------------------------------------
# planted instances


def _gf2_rank(rows: list[int]) -> int:
    pivots = []
    for r in rows:
        for p in pivots:
            r = min(r, r ^ p)
        if r:
            pivots.append(r)
    return len(pivots)


@dataclass(frozen=True)
class PlantedCode:
    """Linear map b -> x; column v of the generator is the set of message
    bits whose product gives x_v."""

    n: int
    k: int
    columns: tuple  # columns[v] = bitmask over [k]

    def encode(self, b) -> list[int]:
        b = _check_signs(b, self.k)
        out = []
        for col in self.columns:
            v = 1
            for i in range(self.k):
                if (col >> i) & 1:
                    v *= b[i]
            out.append(v)
        return out

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "columns": [[i + 1 for i in range(self.k) if (c >> i) & 1] for c in self.columns],
        }


def generate_planted_linear_instance(n: int, q: int, k: int, delta: float, seed: int):
    """Instance whose constraints are all satisfied by x = C(b) for every b.

    Draws a uniformly random full-rank k x n generator over GF(2), then for
    each i greedily assembles a matching from the q-subsets whose column-XOR
    equals e_i.  Returns (instance, PlantedCode).
    """
    m = int(delta * n)
    if m * q > n:
        raise InfeasibleSize(f"need {m * q} vertices, have {n}")
    if k > n:
        raise InfeasibleSize("full-rank generator needs k <= n")
    rng = np.random.default_rng(seed)
    for _ in range(PLANTED_ATTEMPTS):
        cols = [int(x) for x in rng.integers(0, 1 << k, size=n, dtype=np.uint64)]
        if _gf2_rank(cols[:]) < k:
            continue
        hgs = []
        ok = True
        for i in range(k):
            target = 1 << i
            used = 0
            h = []
            for cand in combinations(range(n), q):
                acc = 0
                block = False
                for v in cand:
                    if (used >> v) & 1:
                        block = True
                        break
                    acc ^= cols[v]
                if block or acc != target:
                    continue
                h.append(list(cand))
                used |= mask_of(cand)
                if len(h) == m:
                    break
            if len(h) < m:
                ok = False
                break
            hgs.append(h)
        if ok:
            inst = XorInstance(n=n, k=k, q=q, delta=delta, hypergraphs=hgs)
            return inst, PlantedCode(n=n, k=k, columns=tuple(cols))
    raise InfeasibleSize(
        f"no planted instance found for n={n} q={q} k={k} delta={delta} "
        f"after {PLANTED_ATTEMPTS} generator draws"
    )


# ---------------------------------------------------------------------------
# file I/O


def load_json_object(path, what: str) -> dict:
    """The JSON object a file holds; ValueError naming the file when its top
    level is not an object."""
    with open(path) as fh:
        d = json.load(fh)
    if not isinstance(d, dict):
        raise ValueError(f"{path}: {what} file must hold a JSON object, "
                         f"not {type(d).__name__}")
    return d


def dump_json(obj: dict, path, default=None):
    """Write ``obj`` to ``path`` as JSON with sorted keys, one-space indents
    and a final newline: the layout of every file the tool writes.
    ``default`` converts values json cannot encode, as in ``json.dump``."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True, default=default)
        fh.write("\n")


def load_instance(path):
    """The instance in a JSON file; ValueError names a key it lacks or one
    of the wrong type."""
    d = load_json_object(path, "instance")
    try:
        if "s" in d:
            return BipartiteXorInstance.from_dict(d)
        return XorInstance.from_dict(d)
    except KeyError as exc:
        raise ValueError(f"{path}: instance file has no key {exc}") from None
    except TypeError as exc:
        raise ValueError(f"{path}: instance file: {exc}") from None


def dump_instance(inst, path, extra: dict | None = None):
    d = inst.to_dict()
    if extra:
        d.update(extra)
    dump_json(d, path)
