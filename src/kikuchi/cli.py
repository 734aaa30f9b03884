"""Command-line front end:
gen | decompose | build | refute | oracle | sweep | verify.

Exit codes: 0 ok, 1 verification failure, 2 config error, 3 I/O error.
Every output file embeds the tool version, the echoed config, and the
master seed; timestamps and input paths live in a separate "meta" block,
so re-runs, also from another copy of the input, are byte-identical
outside it.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
import time

from ._version import __version__
from .decompose import decompose, dump_decomposition, instance_thresholds, \
    recombination_check, verify_decomposition
from .graphs import quadratic_form
from .instances import (
    EXHAUSTIVE_LIMIT,
    OracleLimitExceeded,
    XorInstance,
    brute_force_val,
    dump_instance,
    dump_json,
    eval_psi_bipartite,
    expected_val,
    generate_planted_linear_instance,
    generate_random_matching_instance,
    load_instance,
)
from .refute import (
    REFUTATION_ERRORS,
    dump_certificate,
    eval_full_pairs,
    load_certificate,
    refute_full,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_IO = 3
THREADS_HELP = ("worker threads (>= 1) that split the blocks of sign columns "
                "of each norm average and of the per-b soundness bounds; "
                "default KIKUCHI_THREADS or 1")


class ConfigError(ValueError):
    pass


def _meta(config: dict, seed) -> dict:
    return {
        "tool_version": __version__,
        "config": config,
        "master_seed": seed,
    }


def _at_least(name: str, value: int | None, low: int) -> int | None:
    if value is not None and value < low:
        raise ConfigError(f"{name} must be >= {low}, got {value}")
    return value


def _int_list(name: str, text: str) -> list[int]:
    """The integers of a comma-separated option; any other item is a config
    error that names the option and echoes its text."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise ConfigError(f"{name} must be comma-separated integers, "
                          f"got {text!r}") from None


def _ell(ell: int | None, n: int) -> int | None:
    """``--ell`` in [1, n]; above n, C([n], ell) is empty: refused, not clamped."""
    _at_least("--ell", ell, 1)
    if ell is not None and ell > n:
        raise ConfigError(f"--ell must be <= n = {n}, got {ell}")
    return ell


def _load_xor_instance(path, command: str) -> XorInstance:
    """The q-uniform instance in ``path``; a piece file is a config error."""
    inst = load_instance(path)
    if not isinstance(inst, XorInstance):
        raise ConfigError(f"{command} expects a q-uniform instance file")
    return inst


def _generator_args(n: int, q: int, delta: float):
    """``--n`` and ``--q`` at least 1 and ``--delta`` finite and above 0,
    checked before anything is generated."""
    _at_least("--n", n, 1)
    _at_least("--q", q, 1)
    if not (math.isfinite(delta) and delta > 0):
        raise ConfigError(f"--delta must be finite and > 0, got {delta}")


def _generate(planted: bool, n: int, q: int, k: int, delta: float, seed: int):
    """(instance, generator code or None): a planted or a random instance."""
    if planted:
        return generate_planted_linear_instance(n, q, k, delta, seed)
    return generate_random_matching_instance(n, q, k, delta, seed), None


def _threads(args) -> int:
    """``--threads`` if given, else KIKUCHI_THREADS, else 1; at least 1."""
    if args.threads is not None:
        return _at_least("--threads", args.threads, 1)
    env = os.environ.get("KIKUCHI_THREADS")
    if not env:
        return 1
    try:
        value = int(env)
    except ValueError:
        raise ConfigError(f"KIKUCHI_THREADS must be an integer, got {env!r}") from None
    return _at_least("KIKUCHI_THREADS", value, 1)


def cmd_gen(args) -> int:
    config = {
        "n": args.n, "q": args.q, "k": args.k, "delta": args.delta,
        "planted": args.planted, "seed": args.seed,
    }
    _generator_args(args.n, args.q, args.delta)
    _at_least("--k", args.k, 1)
    _at_least("--seed", args.seed, 0)
    inst, code = _generate(args.planted, args.n, args.q, args.k, args.delta, args.seed)
    extra = _meta(config, args.seed)
    extra["meta"] = {"created_at": time.strftime("%Y-%m-%dT%H:%M:%S")}
    dump_instance(inst, args.out, extra=extra)
    if code is not None:
        sidecar = os.path.splitext(args.out)[0] + ".generator.json"
        dump_json(code.to_dict(), sidecar)
        print(f"generator sidecar: {sidecar}")
    sizes = inst.edge_counts
    print(
        f"wrote {args.out}: n={inst.n} k={inst.k} q={inst.q} "
        f"sizes={list(sizes)} measured_delta={float(inst.measured_delta()):.4f}"
    )
    return EXIT_OK


def cmd_decompose(args) -> int:
    inst = _load_xor_instance(args.inp, "decompose")
    _ell(args.ell, inst.n)
    dec = decompose(inst, instance_thresholds(inst, args.ell))
    report = verify_decomposition(dec)
    if not report["ok"]:
        for v in report["violations"]:
            print(f"violation: {v}", file=sys.stderr)
        return EXIT_VERIFY
    extra = _meta({"ell": args.ell}, seed=None)
    extra["meta"] = _run_meta(args.inp)
    dump_decomposition(dec, args.out, extra=extra)
    print(
        f"wrote {args.out}: leftover={dec.leftover.total_edges} edges, "
        f"pieces={{{', '.join(f'{s}: {p.total_edges}' for s, p in sorted(dec.pieces.items()))}}}"
    )
    return EXIT_OK


def cmd_refute(args) -> int:
    threads = _threads(args)
    _at_least("--trials", args.trials, 2)
    _at_least("--partitions", args.partitions, 0)
    _at_least("--seed", args.seed, 0)
    inst = _load_xor_instance(args.inp, "refute")
    _ell(args.ell, inst.n)
    config = {
        "epsilon": args.epsilon, "gamma": args.gamma,
        "trials": args.trials, "seed": args.seed, "ell": args.ell,
    }
    run = refute_full(
        inst, epsilon=args.epsilon, gamma=args.gamma, trials=args.trials,
        seed=args.seed, ell=args.ell, threads=threads,
    )
    cert = dict(run.certificate)
    cert.update(_meta(config, args.seed))
    if args.soundness:
        try:
            log = run.soundness_check()
            cert["soundness_log"] = log
            bad = [e for e in log if not e["ok"]]
            if bad:
                print(f"soundness violations: {len(bad)}", file=sys.stderr)
                dump_certificate(cert, args.out, extra_meta=_run_meta(args.inp))
                return EXIT_VERIFY
        except OracleLimitExceeded as exc:
            print(f"soundness check skipped: {exc}", file=sys.stderr)
    dump_certificate(cert, args.out, extra_meta=_run_meta(args.inp))
    print(
        f"wrote {args.out}: combined bound {cert['combined_bound']:.4f} "
        f"vs eps*delta*n*k = {cert['eps_delta_nk']:.4f} -> {cert['verdict']}"
    )
    return EXIT_OK


def _run_meta(inp) -> dict:
    """The ``meta`` block: what may differ between byte-identical runs."""
    return {"created_at": time.strftime("%Y-%m-%dT%H:%M:%S"), "in": inp}


def cmd_build(args) -> int:
    from .graphs import assemble_basic, assemble_bipartite, assemble_regular_cs, \
        dump_graph
    from .instances import BipartiteXorInstance

    inst = load_instance(args.inp)
    _ell(args.ell, inst.n)
    if isinstance(inst, BipartiteXorInstance):
        g = assemble_bipartite(inst, args.ell)
    elif args.variant == "regular_cs":
        g = assemble_regular_cs(inst, args.ell)
    else:  # "auto" leaves the variant to the parity of q
        g = assemble_basic(inst, args.ell, None if args.variant == "auto" else args.variant)
    dump_graph(g, args.out)
    print(
        f"wrote {args.out}: variant={g.variant} labels={g.n_labels} "
        f"edges={g.n_edges} D={g.D} shape={g.shape}"
    )
    return EXIT_OK


def cmd_oracle(args) -> int:
    _at_least("--trials", args.trials, 2)
    _at_least("--seed", args.seed, 0)
    signs = _int_list("--signs", args.signs) if args.signs else None
    inst = load_instance(args.inp)
    out: dict = {"tool_version": __version__, "in": args.inp}
    if signs is None and inst.signs is not None:
        signs = list(inst.signs)  # fixed signs stored with the instance
    try:
        if signs is not None:
            val, x, y = brute_force_val(inst, signs, limit=args.limit)
            out.update({"signs": signs, "val": val, "argmax_x": x, "argmax_y": y})
        else:
            mean, stderr = expected_val(
                inst, trials=args.trials, seed=args.seed, limit=args.limit
            )
            out.update({"expected_val": mean, "stderr": stderr})
    except OracleLimitExceeded as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.out:
        dump_json(out, args.out)
    print(json.dumps(out, indent=1, sort_keys=True))
    return EXIT_OK


def cmd_sweep(args) -> int:
    threads = _threads(args)
    _at_least("--trials", args.trials, 2)
    _at_least("--seeds", args.seeds, 1)
    _generator_args(args.n, args.q, args.delta)
    _ell(args.ell, args.n)
    ks = _int_list("--k-list", args.k_list)
    for k in ks:
        _at_least("--k-list", k, 1)
    rows = []
    for k in ks:
        for sd in range(args.seeds):
            try:
                inst, _ = _generate(args.planted, args.n, args.q, k, args.delta, sd)
                run = refute_full(
                    inst, epsilon=args.epsilon, gamma=args.gamma,
                    trials=args.trials, seed=sd, ell=args.ell,
                    threads=threads,
                )
                c = run.certificate
                dnk = c["delta_n_measured"] * k
                rows.append({
                    "k": k, "seed": sd,
                    "combined_bound": c["combined_bound"],
                    "eps_delta_nk": c["eps_delta_nk"],
                    "ratio": c["combined_bound"] / dnk if dnk else "",
                    "verdict": c["verdict"],
                    "error": "",
                })
            except REFUTATION_ERRORS as exc:  # recorded per row, sweep continues
                rows.append({
                    "k": k, "seed": sd, "combined_bound": "",
                    "eps_delta_nk": "", "ratio": "", "verdict": "",
                    "error": str(exc),
                })
    fields = ["k", "seed", "combined_bound", "eps_delta_nk", "ratio",
              "verdict", "error"]
    config = (
        f"n={args.n} q={args.q} delta={args.delta} k_list={args.k_list} "
        f"seeds={args.seeds} epsilon={args.epsilon} gamma={args.gamma} "
        f"ell={args.ell} planted={args.planted}"
    )
    with open(args.out, "w", newline="") as fh:
        fh.write(f"# kikuchi {__version__} {config}\n")
        w = csv.DictWriter(fh, fieldnames=fields)
        w.writeheader()
        w.writerows(rows)
    print(f"wrote {args.out}: {len(rows)} rows")
    return EXIT_OK


def cmd_verify(args) -> int:
    threads = _threads(args)
    inst = _load_xor_instance(args.inp, "verify")
    cert = load_certificate(args.cert)
    params = cert["params"]
    failures = []

    run = refute_full(
        inst, epsilon=params["epsilon"], gamma=params["gamma"],
        trials=params["trials"], seed=params["seed"],
        ell=params.get("ell"), threads=threads,
    )
    dec = run.decomposition
    report = verify_decomposition(dec)
    if not report["ok"]:
        failures.extend(report["violations"])

    import numpy as np

    rng = np.random.default_rng(params.get("seed", 0))
    for _ in range(20):
        b = (1 - 2 * rng.integers(0, 2, size=inst.k)).tolist()
        x = (1 - 2 * rng.integers(0, 2, size=inst.n)).tolist()
        if not recombination_check(dec, b, x):
            failures.append("recombination identity violated")
            break

    fresh = run.certificate
    if abs(fresh["combined_bound"] - cert["combined_bound"]) > 1e-9 * max(
        1.0, abs(cert["combined_bound"])
    ):
        failures.append(
            f"certificate bound mismatch: stored {cert['combined_bound']}, "
            f"recomputed {fresh['combined_bound']}"
        )
    if fresh["verdict"] != cert["verdict"]:
        failures.append("verdict mismatch")

    # every route's graph: label counts, the edge predicate (imported here,
    # where perfbench's wrapper of graphs.reverify_edges is seen) and the
    # quadratic-form identity, a piece's on draws of its own generator
    from .graphs import reverify_edges

    routes = [("leftover", run.regular, dec.leftover, rng)] + [
        (f"piece s={s}", run.pieces[s], dec.pieces[s],
         np.random.default_rng((params["seed"], s))) for s in sorted(run.pieces)]
    for name, ref, part, draws in routes:
        g = ref.graph
        if g is None or not g.n_labels:
            continue
        if not g.verify_label_counts():
            failures.append(f"{name}: per-label edge counts unequal")
        if not reverify_edges(g):
            failures.append(f"{name}: edge predicate re-verification failed")
        for _ in range(5):
            b = (1 - 2 * draws.integers(0, 2, size=inst.k)).tolist()
            x = (1 - 2 * draws.integers(0, 2, size=inst.n)).tolist()
            y = None
            if isinstance(part, XorInstance):
                value = eval_full_pairs(part, b, x)
            else:
                y = (1 - 2 * draws.integers(0, 2, size=part.p_size)).tolist()
                value = eval_psi_bipartite(part, b, x, y)
            if quadratic_form(g, b, x, y)[0] != g.D * value:
                failures.append(f"{name}: quadratic form identity violated")
                break

    try:
        if args.exhaustive_b:
            log = run.soundness_check()
        else:
            signs = [
                (1 - 2 * rng.integers(0, 2, size=inst.k)).tolist()
                for _ in range(min(16, 1 << inst.k))
            ]
            log = run.soundness_check(signs)
        bad = [e for e in log if not e["ok"]]
        if bad:
            failures.append(f"soundness violated for {len(bad)} sign vectors")
    except OracleLimitExceeded as exc:
        print(f"note: oracle infeasible, soundness skipped ({exc})")

    if failures:
        print(f"FAIL: {failures[0]}", file=sys.stderr)
        for f in failures[1:]:
            print(f"      {f}", file=sys.stderr)
        return EXIT_VERIFY
    print("verify: all checks passed")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="kikuchi",
        description="Spectral refutation certificates for matching XOR instances",
        allow_abbrev=False,  # no prefix matching: --seed must not read as --seeds
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)
    command = functools.partial(sub.add_parser, allow_abbrev=False)

    g = command("gen", help="generate a random or planted instance")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--q", type=int, required=True)
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--delta", type=float, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--planted", action="store_true")
    g.add_argument("--out", required=True)
    g.set_defaults(fn=cmd_gen)

    d = command("decompose", help="heavy-set decomposition of an instance")
    d.add_argument("--in", dest="inp", required=True)
    d.add_argument("--out", required=True)
    d.add_argument("--ell", type=int, default=None,
                   help="override the formula value of ell")
    d.set_defaults(fn=cmd_decompose)

    r = command("refute", help="produce a combined refutation certificate")
    r.add_argument("--in", dest="inp", required=True)
    r.add_argument("--out", required=True)
    r.add_argument("--epsilon", type=float, default=0.1)
    r.add_argument("--gamma", type=float, default=8.0)
    r.add_argument("--trials", type=int, default=200)
    r.add_argument("--seed", type=int, default=7)
    r.add_argument("--ell", type=int, default=None)
    r.add_argument("--partitions", type=int, default=0,
                   help="accepted for older scripts and ignored (must be >= 0): "
                        "no partition is sampled")
    r.add_argument("--soundness", action="store_true",
                   help="embed an exhaustive per-b soundness log")
    r.add_argument("--threads", type=int, default=None, help=THREADS_HELP)
    r.set_defaults(fn=cmd_refute)

    b = command("build", help="assemble a Kikuchi graph and dump its edges")
    b.add_argument("--in", dest="inp", required=True)
    b.add_argument("--variant", default="auto",
                   choices=["auto", "basic_even", "naive_odd", "regular_cs"],
                   help="ignored for bipartite instance files")
    b.add_argument("--ell", type=int, required=True)
    b.add_argument("--out", required=True)
    b.set_defaults(fn=cmd_build)

    o = command("oracle", help="brute-force value / expected value")
    o.add_argument("--in", dest="inp", required=True)
    o.add_argument("--signs", default=None,
                   help="comma-separated +-1 vector; omit for E_b")
    o.add_argument("--trials", type=int, default=200)
    o.add_argument("--seed", type=int, default=0)
    o.add_argument("--limit", type=int, default=EXHAUSTIVE_LIMIT)
    o.add_argument("--out", default=None)
    o.set_defaults(fn=cmd_oracle)

    s = command("sweep", help="CSV of combined bounds across a k range")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--q", type=int, required=True)
    s.add_argument("--delta", type=float, required=True)
    s.add_argument("--k-list", required=True, help="comma-separated k values")
    s.add_argument("--seeds", type=int, default=1)
    s.add_argument("--epsilon", type=float, default=0.1)
    s.add_argument("--gamma", type=float, default=8.0)
    s.add_argument("--trials", type=int, default=200)
    s.add_argument("--ell", type=int, default=None)
    s.add_argument("--planted", action="store_true")
    s.add_argument("--threads", type=int, default=None, help=THREADS_HELP)
    s.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_sweep)

    v = command("verify", help="re-verify an instance + certificate pair")
    v.add_argument("--in", dest="inp", required=True)
    v.add_argument("--cert", required=True)
    v.add_argument("--exhaustive-b", action="store_true")
    v.add_argument("--threads", type=int, default=None, help=THREADS_HELP)
    v.set_defaults(fn=cmd_verify)
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built once per process."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
