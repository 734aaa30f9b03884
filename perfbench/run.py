"""Benchmark entry point: one workload in one single-threaded process.

    python3 perfbench/run.py --workload regular-l2 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the benchmark imports kikuchi from its
``src/`` directory.  Output: one JSON line per measured item (with the
certificate digests), one line with the environment (nproc, load average at
start and end, versions), and as the last line a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` reports the per-layer ones,
from a traced pass, and writes the spans to ``perfbench/out/``.
``--smoke`` runs every workload at n=12, k=4, l=1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def build_parser():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0,
                   help="start items while the next would end within this time")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="n=12, k=4, l=1 instead of the workload's sizes")
    p.add_argument("--out-dir", default="perfbench/out",
                   help="spans and scratch input files, relative to the checkout root")
    p.add_argument("--setup-only", action="store_true",
                   help="import and write the inputs, then exit (times set-up)")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "kikuchi" / "__init__.py").is_file():
        print(f"no kikuchi sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    os.chdir(ROOT)
    # numpy is first imported here, after the BLAS thread pinning above
    import harness

    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(harness.WORKLOADS)}")
    out_dir = Path(args.out_dir)
    if args.setup_only:
        w = harness.WORKLOADS[args.workload]
        harness.make_inputs(harness.smoke_version(w) if args.smoke else w,
                            out_dir / "work" / args.workload)
        return 0
    result = harness.run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace), out_dir, smoke=args.smoke)
    for rec in result.pop("items"):
        print(json.dumps(rec))
    print(json.dumps({"env": result.pop("env")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
