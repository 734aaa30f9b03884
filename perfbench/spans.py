"""Spans around the calls into each kikuchi module, and the per-layer
metrics computed from them.

The wrappers are installed on the names where callers look them up
(``kikuchi.refute.spectral_norm``, not ``kikuchi.spectral.spectral_norm``),
so nothing inside ``src/`` changes.  A span's layer is the part of its name
before the first dot; a layer's self time is the time its spans cover minus
the time their direct child spans cover.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    item: int | None
    end: float = 0.0
    error: str | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".")[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.item: int | None = None
        self._stack: list[int] = []

    def wrap(self, fn, name: str, attrs=None):
        """``fn`` recording one span per call; ``attrs(args, kwargs, result)``
        adds counters taken from the call's arguments and result."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, time.perf_counter(), parent, self.item)
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = time.perf_counter()
                span.error = type(exc).__name__
                raise
            finally:
                self._stack.pop()
            span.end = time.perf_counter()
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        return wrapper

    def to_json(self) -> list[dict]:
        t0 = self.spans[0].start if self.spans else 0.0
        out = []
        for s in self.spans:
            d = asdict(s)
            d["start"] -= t0
            d["end"] -= t0
            out.append(d)
        return out


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _n_vars(inst) -> int:
    return inst.n + getattr(inst, "p_size", 0)


def _norm_attrs(args, kwargs, est):
    nnz = int(_first_arg(args, kwargs, "A").nnz)
    return {"iterations": est.iterations, "converged": est.converged, "nnz": nnz}


def _edges_attrs(args, kwargs, graph):
    return {"edges": graph.n_edges}


def _decompose_attrs(args, kwargs, dec):
    return {"moved_edges": sum(p.total_edges for p in dec.pieces.values())}


def _prune_attrs(args, kwargs, pruned):
    labels = pruned.parent.n_labels
    return {"kept": pruned.D_prime * labels, "offered": (pruned.parent.D or 0) * labels}


def _all_signs_attrs(args, kwargs, vals):
    inst = _first_arg(args, kwargs, "inst")
    return {"evals": (1 << inst.k) * (1 << _n_vars(inst))}


def _one_sign_attrs(args, kwargs, result):
    return {"evals": 1 << _n_vars(_first_arg(args, kwargs, "inst"))}


def _targets():
    """(owner, attribute, span name, counters) for every wrapped call."""
    import kikuchi.cli as cli
    import kikuchi.graphs as graphs
    import kikuchi.refute as refute

    return [
        (cli, "main", "cli.main", None),
        (cli, "refute_full", "refute.full", None),
        (cli, "decompose", "decompose.run", _decompose_attrs),
        (cli, "verify_decomposition", "decompose.check", None),
        (cli, "recombination_check", "decompose.check", None),
        (cli, "quadratic_form", "graphs.check", None),
        # cmd_verify imports these two from kikuchi.graphs at call time
        (graphs, "reverify_edges", "graphs.check", None),
        (graphs, "assemble_regular_cs", "graphs.assemble", _edges_attrs),
        (refute, "refute_full", "refute.full", None),
        (refute, "decompose", "decompose.run", _decompose_attrs),
        (refute, "refute_regular", "refute.regular", None),
        (refute, "refute_bipartite", "refute.bipartite", None),
        (refute, "assemble_regular_cs", "graphs.assemble", _edges_attrs),
        (refute, "assemble_bipartite", "graphs.assemble", _edges_attrs),
        (refute, "prune", "prune.run", _prune_attrs),
        (refute, "spectral_norm", "spectral.norm", _norm_attrs),
        (refute, "khintchine_sigma", "spectral.sigma", None),
        (refute, "val_for_all_signs", "instances.oracle", _all_signs_attrs),
        (refute, "brute_force_val", "instances.oracle", _one_sign_attrs),
        (refute.SignedFamily, "norm", "refute.norm", None),
        (refute.FullRefutation, "soundness_check", "refute.soundness", None),
    ]


@contextmanager
def installed(tracer: Tracer):
    """Wrap every target for the duration of the block, then restore."""
    saved = []
    try:
        for owner, attr, name, attrs in _targets():
            fn = getattr(owner, attr)
            saved.append((owner, attr, fn))
            setattr(owner, attr, tracer.wrap(fn, name, attrs))
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


# name -> unit, in the order of BENCHMARK.json
LAYER_METRICS = {
    "spectral.sigma_s": "s",
    "spectral.sigma_calls": "count",
    "spectral.norm_s": "s",
    "spectral.norm_calls": "count",
    "spectral.norm_iters": "count",
    "spectral.norm_nonconverged": "count",
    "spectral.norm_spmv_nnz": "computed-count",
    "refute.regular_s": "s",
    "refute.bipartite_s": "s",
    "refute.soundness_s": "s",
    "refute.self_s": "s",
    "refute.norm_requests": "count",
    "refute.norm_cache_hit_frac": "ratio",
    "instances.oracle_s": "s",
    "instances.oracle_calls": "count",
    "instances.oracle_evals": "computed-count",
    "graphs.assemble_s": "s",
    "graphs.assemble_calls": "count",
    "graphs.edges": "count",
    "graphs.edges_per_s": "1/s",
    "graphs.check_s": "s",
    "prune.s": "s",
    "prune.calls": "count",
    "prune.kept_frac": "ratio",
    "prune.failed": "count",
    "decompose.s": "s",
    "decompose.moved_edges": "count",
    "decompose.check_s": "s",
    "cli.self_s": "s",
    "run.cpu_s": "s",
    "run.trace_overhead_frac": "ratio",
}


def layer_metrics(spans: list[Span], n_items: int, untraced_wall: float,
                  traced_wall: float, traced_cpu: float) -> dict:
    """Per-layer values per traced item; ratios are taken over the sums.

    ``untraced_wall`` and ``traced_wall`` are summed over the same items, so
    their ratio is the tracing overhead.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.duration

    def named(name):
        return [s for s in spans if s.name == name]

    def total(name):
        return sum(s.duration for s in named(name))

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in named(name))

    def self_time(layer):
        return sum(s.duration - child[i] for i, s in enumerate(spans)
                   if s.layer == layer)

    def ratio(num, den):
        return num / den if den else 0.0

    norms = named("spectral.norm")
    requests = len(named("refute.norm"))
    misses = sum(1 for s in norms
                 if s.parent is not None and spans[s.parent].name == "refute.norm")
    per_item = {
        "spectral.sigma_s": total("spectral.sigma"),
        "spectral.sigma_calls": len(named("spectral.sigma")),
        "spectral.norm_s": total("spectral.norm"),
        "spectral.norm_calls": len(norms),
        "spectral.norm_iters": attr_sum("spectral.norm", "iterations"),
        "spectral.norm_nonconverged": sum(1 for s in norms if not s.attrs.get("converged", True)),
        "spectral.norm_spmv_nnz": sum(2 * s.attrs["nnz"] * s.attrs["iterations"]
                                      for s in norms if s.attrs),
        "refute.regular_s": total("refute.regular"),
        "refute.bipartite_s": total("refute.bipartite"),
        "refute.soundness_s": total("refute.soundness"),
        "refute.self_s": self_time("refute"),
        "refute.norm_requests": requests,
        "instances.oracle_s": total("instances.oracle"),
        "instances.oracle_calls": len(named("instances.oracle")),
        "instances.oracle_evals": attr_sum("instances.oracle", "evals"),
        "graphs.assemble_s": total("graphs.assemble"),
        "graphs.assemble_calls": len(named("graphs.assemble")),
        "graphs.edges": attr_sum("graphs.assemble", "edges"),
        "graphs.check_s": total("graphs.check"),
        "prune.s": total("prune.run"),
        "prune.calls": len(named("prune.run")),
        "prune.failed": sum(1 for s in named("prune.run") if s.error == "PruningError"),
        "decompose.s": total("decompose.run"),
        "decompose.moved_edges": attr_sum("decompose.run", "moved_edges"),
        "decompose.check_s": total("decompose.check"),
        "cli.self_s": self_time("cli"),
        "run.cpu_s": traced_cpu,
    }
    out = {k: v / max(n_items, 1) for k, v in per_item.items()}
    out.update({
        "refute.norm_cache_hit_frac": ratio(requests - misses, requests),
        "graphs.edges_per_s": ratio(per_item["graphs.edges"], per_item["graphs.assemble_s"]),
        "prune.kept_frac": ratio(attr_sum("prune.run", "kept"), attr_sum("prune.run", "offered")),
        "run.trace_overhead_frac": ratio(traced_wall, untraced_wall) - 1.0,
    })
    return {name: {"value": out[name], "unit": unit}
            for name, unit in LAYER_METRICS.items()}
