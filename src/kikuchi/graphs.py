"""Kikuchi graphs: labeled sparse edge structures over set-indexed vertices.

A vertex is a tuple of subsets, one per space component; it is ranked to a
single integer through the combinatorial number system per component,
combined row-major.  Four variants are built:

  basic_even   rows/cols C([n], l);            S + T = C, |C| even
  naive_odd    rows C([n], l), cols C([n], l+1); S + T = C, |C| odd
  regular_cs   rows/cols C([n], l)^2;          S1+T1 = C1, S2+T2 = C2
  bipartite    rows C([n], l) x C(P, l), cols C([n], l+1-s) x C(P, l+1);
               S1+T1 = C, S2+T2 = {p}

(+ is symmetric difference.)  Every per-constraint edge set has the same
size D, which is what turns quadratic forms into D times the instance
polynomial.

Each variant has one builder (``build_*``), which returns its entries as an
(m, 2) int64 array of (left, right) ranks, enumerated by
``_one_sided_edges`` per subset component.  Its assembler passes it one
memo per graph, so each distinct component set is enumerated once however
many labels repeat it.

``KikuchiGraph`` is the one representation of a signed edge family: the
only code that turns its edge triples into CSR (``to_csr``), per-label
signs (``signs_for``) and the per-group counting matrices stacked side by
side and on top of each other (``group_stacks``).
A pruned graph is a ``KikuchiGraph`` too, over the kept edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb

import numpy as np

from .instances import BipartiteXorInstance, XorInstance, dump_json
from .setops import subset_rank, subset_unrank

DENSE_ENTRY_LIMIT = 10**8  # explicit dense matrices allowed below this
SPACE_ENUM_LIMIT = 5 * 10**7  # lift vectors materialize the whole space
# entries the regular pair graph may hold: at the n=24, k=8, l=2 grid point
# (1.29M entries) assembly took about 150 bytes per entry and a whole
# refutation about 230, so this caps a run near 1 GB
PAIR_GRAPH_ENTRIES = 1 << 22


class _ScipySparse:
    """``scipy.sparse``, imported at the first attribute read: the import
    takes about 0.17 s of every start, and gen, oracle, decompose, build
    and --help never build a matrix."""

    def __getattr__(self, name):
        import scipy.sparse  # an interrupted import leaves no module behind

        return getattr(scipy.sparse, name)


sp = _ScipySparse()  # the one import of scipy.sparse; spectral's too


@dataclass(frozen=True)
class SpaceComponent:
    kind: str  # "main" (subsets of [n], lifted by x) or "labels" (by y)
    ground: int
    size: int

    @property
    def cardinality(self) -> int:
        return comb(self.ground, self.size)


@dataclass(frozen=True)
class VertexSpace:
    """Product of subset spaces; vertex rank is row-major over components."""

    components: tuple

    @property
    def cardinality(self) -> int:
        n = 1
        for c in self.components:
            n *= c.cardinality
        return n

    def unrank(self, rank: int):
        parts = []
        for c in reversed(self.components):
            card = c.cardinality
            parts.append(subset_unrank(rank % card, c.size))
            rank //= card
        return tuple(reversed(parts))

    def lift_vector(self, x, y=None) -> np.ndarray:
        """lift[rank] = product of the assignment over the vertex's subsets.

        "main" components multiply x entries, "labels" components y entries.
        """
        if self.cardinality > SPACE_ENUM_LIMIT:
            raise MemoryError("vertex space too large to enumerate")
        out = None
        for c in self.components:
            vals = x if c.kind == "main" else y
            if vals is None:
                raise ValueError(f"missing assignment for {c.kind} component")
            comp = np.empty(c.cardinality, dtype=np.int8)
            for sub in combinations(range(c.ground), c.size):
                v = 1
                for u in sub:
                    v *= int(vals[u])
                comp[subset_rank(sub, c.size)] = v
            out = comp if out is None else np.multiply.outer(out, comp).ravel()
        return out if out is not None else np.ones(1, dtype=np.int8)


@dataclass
class KikuchiGraph:
    """Edge list with labels; every label owns exactly D edges (entries).

    ``labels[j]`` describes constraint j and ``label_sign_factors[j]``
    lists the b-indices whose product signs the label's entries; the first
    of them is the label's Rademacher group ``label_group[j]``, one of
    0..n_groups-1.  Symmetric variants store both (u,v) and (v,u) entries,
    matching the matrix-entry count D.
    """

    variant: str
    left_space: VertexSpace
    right_space: VertexSpace
    left: np.ndarray  # int64 ranks
    right: np.ndarray
    edge_label: np.ndarray  # int32 index into labels
    labels: list
    n_groups: int
    label_sign_factors: list  # per label, tuple of indices into b
    D: int | None
    symmetric: bool
    _csr_cache: tuple | None = field(default=None, init=False, repr=False)
    _sign_index: np.ndarray = field(init=False, repr=False)
    label_group: np.ndarray = field(init=False, repr=False)

    @property
    def n_edges(self) -> int:
        return len(self.left)

    @property
    def n_labels(self) -> int:
        return len(self.labels)

    @property
    def shape(self):
        return (self.left_space.cardinality, self.right_space.cardinality)

    def __post_init__(self):
        # per label its b-indices plus one, zero-padded: index 0 picks the
        # neutral 1 that signs_for puts in front of b
        width = max(1, max(map(len, self.label_sign_factors), default=0))
        self._sign_index = np.zeros((self.n_labels, width), dtype=np.int64)
        for j, factors in enumerate(self.label_sign_factors):
            self._sign_index[j, :len(factors)] = np.add(factors, 1)
        self._sign_used = np.unique(self._sign_index)
        self.label_group = self._sign_index[:, 0] - 1

    def signs_for(self, b) -> np.ndarray:
        """Per-label sign: the product of the referenced b entries.

        ``b`` is one sign vector or a (c, k) array of sign rows, which gives
        a (c, n_labels) array."""
        b = np.asarray(b)
        padded = np.concatenate([np.ones(b.shape[:-1] + (1,), dtype=np.int8), b],
                                axis=-1)
        if (np.abs(padded[..., self._sign_used]) != 1).any():
            raise ValueError("signs must be strictly +-1")
        padded = padded.astype(np.int8)
        # one factor column at a time: no (c, n_labels, width) temporary
        out = padded[..., self._sign_index[:, 0]]
        for col in self._sign_index.T[1:]:
            out *= padded[..., col]
        return out

    def _structure(self, rows=None):
        """(label per entry, column indices, indptr, shape) of the CSR matrix
        in the entry order of ``np.lexsort((right, left))``, cached.  A boolean
        mask ``rows`` keeps only those rows and the columns their entries
        hold, each in its original order, and the kept entries in theirs."""
        if self._csr_cache is None:
            nl, nr = self.shape
            # a row's first entry position stands in for its rank: every key
            # is below n_edges * N_R, never N_L * N_R
            if nl >= 2**62 or self.n_edges * nr >= 2**63:
                raise OverflowError("vertex space exceeds index range")
            indptr = np.zeros(nl + 1, dtype=np.int64)
            np.cumsum(np.bincount(self.left, minlength=nl), out=indptr[1:])
            order = np.argsort(indptr[self.left] * nr + self.right, kind="stable")
            self._csr_cache = (self.edge_label[order],
                               self.right[order].astype(np.int64), indptr, (nl, nr))
        if rows is None:
            return self._csr_cache
        label_seq, indices, indptr, _ = self._csr_cache
        kept = np.repeat(rows, np.diff(indptr))
        cols, indices = np.unique(indices[kept], return_inverse=True)
        indptr = np.append(0, np.cumsum(np.diff(indptr)[rows]))
        return label_seq[kept], indices, indptr, (len(indptr) - 1, len(cols))

    def to_csr(self, label_signs=None, structure=None) -> sp.csr_matrix:
        """Sparse matrix with entry = sign of its label (duplicates add).

        A (c, n_labels) array of label signs gives the block-diagonal matrix
        of the c signed copies, in row order; each copy keeps the entry order
        of the single matrix, which is the case c = 1.  ``structure``, from
        ``_structure(rows)``, builds the matrix on those rows alone."""
        label_seq, indices, indptr, (nl, nr) = (
            self._structure() if structure is None else structure)
        if label_signs is None:
            label_signs = np.ones(self.n_labels)
        signs = np.atleast_2d(np.asarray(label_signs, dtype=np.float64))
        c = len(signs)
        nnz = len(label_seq)
        copy = np.arange(c)[:, None]
        return sp.csr_matrix(
            (signs[:, label_seq].ravel(),
             (indices + copy * nr).ravel(),
             np.append((indptr[:-1] + copy * nnz).ravel(), c * nnz)),
            shape=(c * nl, c * nr),
        )

    def group_stacks(self):
        """(wide, tall): the groups' counting matrices A_0 .. A_{k-1} side by
        side, N_L x k N_R with entry (r, g N_R + c), and on top of each other,
        k N_L x N_R with entry (g N_L + r, c); an entry counts the group's
        edges there.  Each is one CSR matrix from COO input, so duplicates
        are summed and the indices sorted: khintchine_sigma's rounding margin
        counts stored entries per row."""
        label_seq, indices, indptr, (nl, nr) = self._structure()
        rows = np.repeat(np.arange(nl), np.diff(indptr))
        group = self.label_group[label_seq]
        ones = np.ones(len(label_seq))
        k = self.n_groups
        wide = sp.csr_matrix((ones, (rows, group * nr + indices)), shape=(nl, k * nr))
        tall = sp.csr_matrix((ones, (group * nl + rows, indices)), shape=(k * nl, nr))
        return wide, tall

    def to_dense(self, label_signs=None) -> np.ndarray:
        nl, nr = self.shape
        if nl * nr > DENSE_ENTRY_LIMIT:
            raise MemoryError("dense mode disallowed at this size")
        out = np.zeros((nl, nr))
        s = (
            np.ones(self.n_labels, dtype=np.float64)
            if label_signs is None
            else np.asarray(label_signs, dtype=np.float64)
        )
        np.add.at(out, (self.left, self.right), s[self.edge_label])
        return out

    def verify_label_counts(self) -> bool:
        counts = np.bincount(self.edge_label, minlength=self.n_labels)
        return self.n_labels == 0 or (counts == self.D).all()


class ParityObstruction(ValueError):
    """Raised when a builder's parity precondition fails (odd C for the
    even builder and vice versa)."""


def build_basic_even(c_set, n: int, ell: int, memo: dict | None = None) -> np.ndarray:
    """Edge entries {(S, T): |S|=|T|=l, S+T=C} for an even-size C.

    An (m, 2) array of (left_rank, right_rank) rows; m is
    C(|C|, |C|/2) C(n-|C|, l-|C|/2).  A ``memo`` dict, here as in every
    builder, keeps the one-sided edges across calls (``_memo_one_sided``).
    """
    c = tuple(sorted(c_set))
    qc = len(c)
    if qc % 2 == 1:
        raise ParityObstruction("basic even-split graph needs |C| even")
    return _memo_one_sided(memo, c, n, ell, qc // 2, ell)


def build_naive_odd(c_set, n: int, ell: int, memo: dict | None = None) -> np.ndarray:
    """Edge entries {(S, T): |S|=l, |T|=l+1, S+T=C} for an odd-size C."""
    c = tuple(sorted(c_set))
    qc = len(c)
    if qc % 2 == 0:
        raise ParityObstruction("imbalanced odd graph needs |C| odd")
    return _memo_one_sided(memo, c, n, ell, (qc - 1) // 2, ell + 1)


def _one_sided_edges(c, n, ell, s_take, t_size) -> np.ndarray:
    """All (S, T) with S = C_half u W, T = (C - C_half) u W, as an (m, 2)
    array of ranks: C_half over the s_take-subsets of C, W over the
    subsets of the rest, both in lexicographic order."""
    cset = set(c)
    rest = [v for v in range(n) if v not in cset]
    w_size = ell - s_take
    if w_size < 0 or len(c) - s_take + w_size != t_size:
        return np.empty((0, 2), dtype=np.int64)
    out = []
    for chalf in combinations(c, s_take):
        other = tuple(sorted(cset - set(chalf)))
        for w in combinations(rest, w_size):
            s_v = tuple(sorted(chalf + w))
            t_v = tuple(sorted(other + w))
            out.append((subset_rank(s_v, ell), subset_rank(t_v, t_size)))
    return np.array(out, dtype=np.int64).reshape(-1, 2)


def _comb0(n: int, k: int) -> int:
    """Binomial that is 0 outside the feasible range instead of raising."""
    if k < 0 or n < 0 or k > n:
        return 0
    return comb(n, k)


def closed_form_D(variant: str, n: int, ell: int, q: int, s: int = 0, p_size: int = 0) -> int:
    """Per-constraint entry counts for the four variants."""
    if variant == "basic_even":
        return _comb0(q, q // 2) * _comb0(n - q, ell - q // 2)
    if variant == "naive_odd":
        return _comb0(q, (q - 1) // 2) * _comb0(n - q, ell - (q - 1) // 2)
    if variant == "regular_cs":
        h = (q - 1) // 2
        return (_comb0(q - 1, h) * _comb0(n - (q - 1), ell - h)) ** 2
    if variant == "bipartite":
        h = (q - 1) // 2
        if ell + 1 - s < 0:
            return 0
        return (
            _comb0(q - s, h)
            * _comb0(n - (q - s), ell - h)
            * _comb0(p_size - 1, ell)
        )
    raise ValueError(f"unknown variant {variant}")


def _product_edges(ones, twos, card_l2: int, card_r2: int) -> np.ndarray:
    """Entries ((S1,S2),(T1,T2)) of the product of two per-component (m, 2)
    edge arrays, ranked row-major with second-component cardinalities given;
    ``ones`` varies slowest."""
    left = ones[:, None, 0] * card_l2 + twos[None, :, 0]
    right = ones[:, None, 1] * card_r2 + twos[None, :, 1]
    return np.stack([left.ravel(), right.ravel()], axis=1)


def _memo_one_sided(memo: dict | None, c, *args) -> np.ndarray:
    """``_one_sided_edges(c, *args)``; with a ``memo`` dict, built once per
    argument tuple and kept there, as the labels of one graph share their
    sets C."""
    if memo is None:
        return _one_sided_edges(c, *args)
    key = (c, *args)
    if key not in memo:
        memo[key] = _one_sided_edges(c, *args)
    return memo[key]


def build_regular_cs(c1_set, c2_set, n: int, ell: int,
                     memo: dict | None = None) -> np.ndarray:
    """Entries ((S1,S2),(T1,T2)) with S1+T1=C1, S2+T2=C2, all sets size l.

    The space is C([n], l)^2 with row-major ranks; C1 and C2 need not be
    disjoint (separate components never interact).
    """
    if len(c1_set) % 2 or len(c2_set) % 2:
        raise ParityObstruction("regular CS graph needs even |C1|, |C2|")
    ones = _memo_one_sided(memo, tuple(sorted(c1_set)), n, ell, len(c1_set) // 2, ell)
    twos = _memo_one_sided(memo, tuple(sorted(c2_set)), n, ell, len(c2_set) // 2, ell)
    card = comb(n, ell)
    return _product_edges(ones, twos, card, card)


def build_bipartite(c_set, p: int, n: int, ell: int, p_size: int, s: int,
                    memo: dict | None = None) -> np.ndarray:
    """Entries ((S1,S2),(T1,T2)): S1+T1=C with |S1 n C|=(q-1)/2, T2=S2 u {p}.

    |C| = q - s; right sizes are l+1-s and l+1.  An infeasible size yields
    no entries (reported, not an error).
    """
    c = tuple(sorted(c_set))
    h = (len(c) + s - 1) // 2
    ones = _memo_one_sided(memo, c, n, ell, h, ell + 1 - s)
    twos = _memo_one_sided(memo, (p,), p_size, ell, 0, ell + 1)
    return _product_edges(ones, twos, comb(p_size, ell), comb(p_size, ell + 1))


def _make_graph(variant, left_space, right_space, per_label, labels,
                sign_factors, n_groups, symmetric) -> KikuchiGraph:
    """The graph of the (m, 2) edge arrays in ``per_label``, in order."""
    counts = {len(e) for e in per_label}
    if len(counts) > 1:
        raise AssertionError(f"unequal per-label edge counts: {sorted(counts)}")
    D = counts.pop() if counts else None
    if max(left_space.cardinality, right_space.cardinality) > 2**63:
        raise OverflowError("vertex space exceeds index range")
    edges = np.concatenate([np.empty((0, 2), dtype=np.int64), *per_label])
    left, right = edges.T.copy()
    lab = np.repeat(np.arange(len(per_label), dtype=np.int32),
                    [len(e) for e in per_label])
    return KikuchiGraph(
        variant=variant,
        left_space=left_space,
        right_space=right_space,
        left=left,
        right=right,
        edge_label=lab,
        labels=labels,
        n_groups=n_groups,
        label_sign_factors=sign_factors,
        D=D,
        symmetric=symmetric,
    )


def assemble_basic(inst: XorInstance, ell: int, variant: str | None = None) -> KikuchiGraph:
    """One label (i, C) per constraint, in group i; even split for even q,
    l vs l+1 else."""
    if variant is None:
        variant = "basic_even" if inst.q % 2 == 0 else "naive_odd"
    n = inst.n
    main_l = VertexSpace((SpaceComponent("main", n, ell),))
    if variant == "basic_even":
        right = VertexSpace((SpaceComponent("main", n, ell),))
        build = build_basic_even
        symmetric = True
    else:
        right = VertexSpace((SpaceComponent("main", n, ell + 1),))
        build = build_naive_odd
        symmetric = False
    labels = [(i, e) for i, h in enumerate(inst.hypergraphs) for e in h]
    memo = {}
    per_label = [build(e, n, ell, memo) for _, e in labels]
    return _make_graph(variant, main_l, right, per_label, labels,
                       [(i,) for i, _ in labels], inst.k, symmetric)


def cs_pair_labels(inst: XorInstance):
    """Labels (i, j, u, C1, C2) over ordered i != j, shared vertex u, and the
    decompositions C = {u} u C1 in H_i, C' = {u} u C2 in H_j."""
    out = []
    for i, h1 in enumerate(inst.hypergraphs):
        for j, h2 in enumerate(inst.hypergraphs):
            if i == j:
                continue
            for e1 in h1:
                set1 = set(e1)
                for e2 in h2:
                    for u in e2:
                        if u in set1:
                            c1 = tuple(v for v in e1 if v != u)
                            c2 = tuple(v for v in e2 if v != u)
                            out.append((i, j, u, c1, c2))
    return out


def pair_label_count(inst: XorInstance) -> int:
    """How many ``cs_pair_labels`` there are, and so a bound on |F_b(x)|:
    sum_u d_u (d_u - 1), d_u the constraints holding u, as H_i are matchings."""
    degree = np.bincount([u for h in inst.hypergraphs for e in h for u in e],
                         minlength=inst.n)
    return int((degree * (degree - 1)).sum())


def assemble_regular_cs(inst: XorInstance, ell: int) -> KikuchiGraph:
    """Graph of the derived even pairs over all ordered i != j, which is the
    full pair polynomial F_b; group = the left index i of a label.

    ValueError, before any label is built, when the graph would hold more
    than PAIR_GRAPH_ENTRIES entries: ``pair_label_count`` labels, each
    owning ``closed_form_D`` entries."""
    n = inst.n
    entries = pair_label_count(inst) * closed_form_D("regular_cs", n, ell, inst.q)
    if entries > PAIR_GRAPH_ENTRIES:
        advice = ("pass a smaller --ell" if ell > (inst.q - 1) // 2 else
                  "the explicit regular route cannot hold this instance")
        raise ValueError(
            f"the regular pair graph at ell={ell} would hold {entries:,} entries, "
            f"above the budget of {PAIR_GRAPH_ENTRIES:,}; {advice}")
    space = VertexSpace(
        (SpaceComponent("main", n, ell), SpaceComponent("main", n, ell))
    )
    labels = cs_pair_labels(inst)
    memo = {}
    per_label = [build_regular_cs(c1, c2, n, ell, memo) for *_, c1, c2 in labels]
    return _make_graph("regular_cs", space, space, per_label, labels,
                       [(i, j) for i, j, *_ in labels], inst.k, symmetric=True)


def assemble_bipartite(piece: BipartiteXorInstance, ell: int) -> KikuchiGraph:
    """One label (i, C, p) per bipartite constraint; group = i."""
    n, ps, s = piece.n, piece.p_size, piece.s
    left_space = VertexSpace(
        (SpaceComponent("main", n, ell), SpaceComponent("labels", ps, ell))
    )
    right_space = VertexSpace(
        (
            SpaceComponent("main", n, max(ell + 1 - s, 0)),
            SpaceComponent("labels", ps, ell + 1),
        )
    )
    labels = [(i, c, p) for i, h in enumerate(piece.hypergraphs) for c, p in h]
    memo = {}
    per_label = [build_bipartite(c, p, n, ell, ps, s, memo) for _, c, p in labels]
    return _make_graph("bipartite", left_space, right_space, per_label, labels,
                       [(i,) for i, *_ in labels], piece.k, symmetric=False)


def quadratic_form(graph: KikuchiGraph, b, x, y=None):
    """z^T A w as an exact integer, plus the per-label breakdown.

    z and w are the lifted +-1 vectors of the two spaces; per label the sum
    equals (edge count) x (signed constraint monomial).
    """
    zl = graph.left_space.lift_vector(x, y).astype(np.int64)
    zr = graph.right_space.lift_vector(x, y).astype(np.int64)
    signs = graph.signs_for(b).astype(np.int64)
    contrib = zl[graph.left] * zr[graph.right] * signs[graph.edge_label]
    per_label = np.zeros(graph.n_labels, dtype=np.int64)
    np.add.at(per_label, graph.edge_label, contrib)
    return int(per_label.sum()), per_label


# a label's set on each space component, per variant: (C), (C1, C2), (C, {p})
_LABEL_SETS = {
    "basic_even": lambda lab: lab[1:],
    "naive_odd": lambda lab: lab[1:],
    "regular_cs": lambda lab: lab[3:],
    "bipartite": lambda lab: (lab[1], (lab[2],)),
}


def reverify_edges(graph: KikuchiGraph) -> bool:
    """Re-check every stored edge against the one Kikuchi rule: on each
    space component j, S_j + T_j is the label's j-th set.

    The component sizes imply the rest: a piece's T2 = S2 u {p}, since
    |S2| = l < |T2| = l + 1, and no self-loop in the pair graph, since C1
    has q - 1 >= 1 vertices."""
    sets_of = _LABEL_SETS[graph.variant]
    for l, r, j in zip(graph.left, graph.right, graph.edge_label):
        parts = zip(graph.left_space.unrank(int(l)), graph.right_space.unrank(int(r)),
                    sets_of(graph.labels[j]))
        if any(set(s) ^ set(t) != set(c) for s, t, c in parts):
            return False
    return True


def dump_graph(graph: KikuchiGraph, path):
    dump_json({
        "variant": graph.variant,
        "left_space": [[c.kind, c.ground, c.size] for c in graph.left_space.components],
        "right_space": [[c.kind, c.ground, c.size] for c in graph.right_space.components],
        "D": graph.D,
        "labels": [repr(lab) for lab in graph.labels],
        "edges": [
            [int(l), int(r), int(j)]
            for l, r, j in zip(graph.left, graph.right, graph.edge_label)
        ],
    }, path)
