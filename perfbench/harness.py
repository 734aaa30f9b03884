"""Workloads, the measured loop, the correctness gate and the end-to-end
metrics of the kikuchi benchmark.

Every workload uses q=3, epsilon=0.1, gamma=8, trials=50, refute seed 7,
4 partitions and one thread.  Times below are from a 2-vCPU Xeon VM at
2.0 GHz.  Why these three:

* ``regular-l2`` -- random n=20, k=6, l=2, delta=0.25 through
  ``refute_full`` (the ROADMAP "medium" point, about 25 s).  Spectral work
  (sigma^2 and power-iteration norms on 36,100 x 36,100 matrices) is almost
  all of it, so sigma^2, Lanczos and structured-operator changes show here.
* ``many-signs`` -- random n=16, k=12, l=1, delta=0.25 through
  ``refute_full`` (about 9 s).  2,112 norm calls on 256 x 256 matrices, so
  per-call overhead in ``SignedFamily`` (CSR rebuild, Python sign loops)
  dominates; sigma^2 is under 0.2 s and should not move it.
* ``verify-exhaustive`` -- ``kikuchi refute`` then ``kikuchi verify
  --exhaustive-b`` in-process through ``kikuchi.cli.main``, on random n=20,
  k=6, l=1 at delta=0.25 and planted n=20, k=6, l=1 at delta=0.16 (about
  10 s).  The brute-force oracle is about 90% of it; the CLI, decomposition
  checks and graph re-verification are exercised too.

Left out: ROADMAP "large" (n=24, k=8, l=2) takes about 17 minutes, too long
to repeat the tens of times a comparison of two commits needs; "small"
(n=16, k=6, l=1) takes 0.35 s, too short to be steady, and ``many-signs``
loads the same layers.

On that shared VM the same run took anywhere from 1x to 2x its fastest time
(``many-signs`` 8 s to 16 s) over tens of minutes, so compare commits with
runs that alternate between them.

The instances are the ROADMAP grid instances at generation seed 1 for every
workload seed.  Independent instances differ too much to compare runs: over
generation seeds 1-10 the n=20, k=6, l=2 pair graph holds 12,960 to 119,232
entries, and even vertex relabellings of one instance move its run time from
18.6 s to 28.3 s and its bound ratio from 1.00 to 1.35, because
decomposition and pruning break ties by vertex order.  The workload seed
draws the sign vectors the correctness gate checks against the brute-force
oracle.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from io import StringIO
from pathlib import Path

import numpy as np
import scipy

import kikuchi.cli
import kikuchi.refute
from kikuchi.instances import (
    dump_instance,
    generate_planted_linear_instance,
    generate_random_matching_instance,
)

import spans

HERE = Path(__file__).resolve().parent
BASE_SEED = 1  # generation seed of every workload instance (the ROADMAP grid seed)
REFUTE = {"epsilon": 0.1, "gamma": 8.0, "trials": 50, "seed": 7, "n_partitions": 4}
SETUP_REPEATS = 6
GATE_SIGNS = 8  # sign vectors per certificate checked against brute force
TIME_LIMIT_S = 140.0  # measured items of one run; the rest is recorded as timeout


@dataclass(frozen=True)
class InstanceSpec:
    n: int
    k: int
    delta: float
    planted: bool = False

    @property
    def label(self) -> str:
        return "planted" if self.planted else "random"


@dataclass(frozen=True)
class Workload:
    kind: str  # "refute": refute_full in-process; "verify": cli refute + verify
    ell: int
    instances: tuple


WORKLOADS = {
    "regular-l2": Workload("refute", 2, (InstanceSpec(20, 6, 0.25),)),
    "many-signs": Workload("refute", 1, (InstanceSpec(16, 12, 0.25),)),
    "verify-exhaustive": Workload("verify", 1, (
        InstanceSpec(20, 6, 0.25),
        InstanceSpec(20, 6, 0.16, planted=True),
    )),
}


def smoke_version(w: Workload) -> Workload:
    """The same workload at n=12, k=4, l=1: well under a second."""
    return Workload(w.kind, 1, tuple(
        InstanceSpec(12, 4, s.delta, s.planted) for s in w.instances
    ))


END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "bound_ratio": "ratio",
    "pass_frac": "ratio",
}


class WorkloadTimeout(BaseException):
    """Raised by the alarm; a BaseException so that no ``except Exception``
    inside kikuchi turns it into a recorded piece failure."""


def make_inputs(w: Workload, work_dir: Path) -> list[tuple]:
    """(spec, instance, input path or None) per instance; the verify
    workload also writes its instance files, as ``kikuchi gen`` would."""
    out = []
    for s in w.instances:
        if s.planted:
            inst, _ = generate_planted_linear_instance(s.n, 3, s.k, s.delta, BASE_SEED)
        else:
            inst = generate_random_matching_instance(s.n, 3, s.k, s.delta, BASE_SEED)
        path = None
        if w.kind == "verify":
            work_dir.mkdir(parents=True, exist_ok=True)
            path = work_dir / f"{s.label}.json"
            dump_instance(inst, path)
        out.append((s, inst, path))
    return out


def digest(cert: dict) -> str:
    """sha256 of canonical JSON with the ``meta`` block removed."""
    body = {k: v for k, v in cert.items() if k != "meta"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"), default=float)
    return hashlib.sha256(text.encode()).hexdigest()


def bound_ratio(cert: dict) -> float:
    return cert["combined_bound"] / (cert["delta_n_measured"] * cert["params"]["k"])


def _refute_item(w: Workload, inputs) -> dict:
    (spec, inst, _), = inputs
    t, c = time.perf_counter(), time.process_time()
    run = kikuchi.refute.refute_full(inst, ell=w.ell, threads=1, **REFUTE)
    wall, cpu = time.perf_counter() - t, time.process_time() - c
    cert = run.certificate
    return {"wall_s": wall, "cpu_s": cpu, "digests": {spec.label: digest(cert)},
            "bound_ratio": bound_ratio(cert), "run": run}


def _cli_argv(w: Workload, inst_path: Path, cert_path: Path) -> tuple[list, list]:
    refute = ["refute", "--in", str(inst_path), "--out", str(cert_path),
              "--ell", str(w.ell), "--partitions", str(REFUTE["n_partitions"]),
              "--epsilon", str(REFUTE["epsilon"]), "--gamma", str(REFUTE["gamma"]),
              "--trials", str(REFUTE["trials"]), "--seed", str(REFUTE["seed"]),
              "--threads", "1"]
    verify = ["verify", "--in", str(inst_path), "--cert", str(cert_path),
              "--exhaustive-b", "--threads", "1"]
    return refute, verify


def _verify_item(w: Workload, inputs) -> dict:
    codes = {}
    log = StringIO()
    t, c = time.perf_counter(), time.process_time()
    with redirect_stdout(log), redirect_stderr(log):
        for spec, _, path in inputs:
            refute, verify = _cli_argv(w, path, path.with_suffix(".cert.json"))
            codes[spec.label] = (kikuchi.cli.main(refute), kikuchi.cli.main(verify))
    wall, cpu = time.perf_counter() - t, time.process_time() - c
    rec = {"wall_s": wall, "cpu_s": cpu, "digests": {}, "bound_ratio": 0.0}
    problems = []
    for spec, _, path in inputs:
        r_code, v_code = codes[spec.label]
        if r_code != 0 or v_code != 0:
            problems.append(f"{spec.label}: refute exit {r_code}, verify exit {v_code}")
            continue
        with open(path.with_suffix(".cert.json")) as fh:
            cert = json.load(fh)
        rec["digests"][spec.label] = digest(cert)
        rec["bound_ratio"] = max(rec["bound_ratio"], bound_ratio(cert))
        if spec.planted and cert["verdict"] != "not refuted":
            problems.append(f"{spec.label}: planted instance declared {cert['verdict']}")
    if problems:
        rec["error"] = "; ".join(problems) + " | " + log.getvalue()[-400:]
    return rec


def _run_item(w: Workload, inputs) -> dict:
    """One measured item; an exception or a failed check becomes ``error``."""
    try:
        if w.kind == "refute":
            return _refute_item(w, inputs)
        return _verify_item(w, inputs)
    except Exception as exc:  # recorded as a failed item; the run continues
        return {"error": f"{type(exc).__name__}: {exc}"}


def _gate(run, seed: int) -> str | None:
    """Soundness of an in-process certificate on a seeded sign sample.

    The verify workload needs no extra gate: ``kikuchi verify --exhaustive-b``
    already checks every sign vector, and its exit code is in the item.
    Later items are held to the gated one through their digests."""
    rng = np.random.default_rng((seed, 9001))
    signs = (1 - 2 * rng.integers(0, 2, size=(GATE_SIGNS, run.instance.k))).tolist()
    try:
        bad = [e["b"] for e in run.soundness_check(signs) if not e["ok"]]
    except Exception as exc:  # a failed check, not a crash of the run
        return f"soundness check raised {type(exc).__name__}: {exc}"
    return f"soundness violated for signs {bad}" if bad else None


def _on_alarm(signum, frame):
    raise WorkloadTimeout()


def time_setups(name: str, seed: int, smoke: bool, out_dir: Path, repeats: int) -> list:
    """Wall times of fresh-process set-ups: interpreter start, import,
    instance generation and input files."""
    argv = [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", name,
            "--seed", str(seed), "--out-dir", str(out_dir / "setup")]
    if smoke:
        argv.append("--smoke")
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        # no timeout: with one, the wait polls in steps of up to 50 ms
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t)
    shutil.rmtree(out_dir / "setup", ignore_errors=True)
    return times


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")}
        | {"kikuchi": 1},
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 out_dir: Path, smoke: bool = False) -> dict:
    """Measure one workload; returns the result object plus ``items`` and
    ``env`` for the lines printed before it.

    Items run one after another while the next one, at the mean pace so
    far, would end within ``seconds`` (at least one item runs).  With
    ``trace`` each item runs untraced and then traced, and the metrics are
    the per-layer ones; otherwise they are the end-to-end ones.
    """
    w = WORKLOADS[name]
    if smoke:
        w = smoke_version(w)
    env = environment()
    env["loadavg_start"] = os.getloadavg()[0]
    # half the set-ups run before the items and half after, so that the
    # median does not rest on one stretch of a shared machine's speed
    before = 0 if trace else 1 if smoke else SETUP_REPEATS // 2
    after = 0 if trace or smoke else SETUP_REPEATS - before
    setup_times = time_setups(name, seed, smoke, out_dir, before)
    work_dir = out_dir / "work" / name
    inputs = make_inputs(w, work_dir)

    tracer = spans.Tracer()
    items = []  # (untraced record, traced record or None)
    old = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    start = time.perf_counter()
    peak_rss_mb = 0.0
    gated = None  # (item index, FullRefutation)
    try:
        while True:
            plain = _run_item(w, inputs)
            traced = None
            if trace and "error" not in plain:
                tracer.item = len(items)
                with spans.installed(tracer):
                    traced = _run_item(w, inputs)
            if not items:
                # read before a second item runs, so it does not depend on the count
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            run = plain.pop("run", None)
            if traced is not None:
                traced.pop("run", None)
            if gated is None and run is not None:
                gated = (len(items), run)  # the gate checks the first certificate
            items.append((plain, traced))
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(items) > seconds:
                break
    except WorkloadTimeout:
        items.append(({"error": f"timeout after {TIME_LIMIT_S:.0f} s"}, None))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    peak_rss_mb = peak_rss_mb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    gate_error = _gate(gated[1], seed) if gated else None
    records = []
    first_digests = None
    for i, (plain, traced) in enumerate(items):
        errors = [r["error"] for r in (plain, traced) if r is not None and "error" in r]
        if gated and i == gated[0] and gate_error:
            errors.append(gate_error)
        if not errors:
            first_digests = first_digests or plain["digests"]
            for r in (plain, traced):
                if r is not None and r["digests"] != first_digests:
                    errors.append("certificate differs from the run's first item")
        records.append({
            "item": i,
            "wall_s": plain.get("wall_s"),
            "traced_wall_s": traced.get("wall_s") if traced else None,
            "bound_ratio": plain.get("bound_ratio"),
            "digests": plain.get("digests"),
            "error": "; ".join(errors) or None,
        })
    shutil.rmtree(work_dir, ignore_errors=True)
    setup_times += time_setups(name, seed, smoke, out_dir, after)
    env["loadavg_end"] = os.getloadavg()[0]

    attempted = len(records)
    failed = sum(1 for r in records if r["error"])
    good = [r for r in records if not r["error"]]
    if trace:
        pairs = [(p, t) for p, t in items if t is not None and "error" not in t]
        metrics = spans.layer_metrics(
            tracer.spans, len(pairs),
            untraced_wall=sum(p["wall_s"] for p, _ in pairs),
            traced_wall=sum(t["wall_s"] for _, t in pairs),
            traced_cpu=sum(t["cpu_s"] for _, t in pairs),
        )
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / f"spans-{name}-seed{seed}.json", "w") as fh:
            json.dump({"workload": name, "seed": seed, "env": env, "items": records,
                       "spans": tracer.to_json()}, fh)
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(r["wall_s"] for r in good) if good else 0.0,
            "peak_rss_mb": peak_rss_mb,
            "bound_ratio": statistics.median(r["bound_ratio"] for r in good) if good else 0.0,
            "pass_frac": (attempted - failed) / attempted,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "items": records, "env": env}
