"""Runs one benchmark workload in this process; ``run.py`` starts it.

The last line on stdout is the result object.  With ``--trace 0`` it carries
the end-to-end metrics of untraced rounds; with ``--trace 1`` the process
alternates untraced and traced rounds and reports the per-layer metrics of
the traced ones, plus the difference of the two round times as the tracing
overhead.  Spans and a summary of every run go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback


def _args(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--root", required=True)
    ap.add_argument("--t0-ns", type=int, required=True)
    return ap.parse_args(argv)


def run_round(wl):
    """Run every operation once; returns (outputs, failed count, seconds)."""
    raw = {}
    failed = 0
    start = time.perf_counter()
    for op in wl.ops:
        try:
            raw[op.name] = op.run()
        except Exception:  # an operation that fails is counted, the run goes on
            traceback.print_exc(file=sys.stderr)
            failed += 1
    elapsed = time.perf_counter() - start
    outs = {op.name: op.collect(raw[op.name]) for op in wl.ops if op.name in raw}
    return outs, failed, elapsed


def main(argv=None) -> int:
    args = _args(argv)
    root = os.path.abspath(args.root)
    import branchcouple

    source = os.path.join(root, "src", "branchcouple")
    if os.path.dirname(os.path.abspath(branchcouple.__file__)) != source:
        print("benchmark: branchcouple imported from %s, not %s" % (branchcouple.__file__, source), file=sys.stderr)
        return 2
    import tracer
    import workloads

    bench_out = os.path.join(root, ".bench_out")
    os.makedirs(bench_out, exist_ok=True)
    outdir = tempfile.mkdtemp(prefix="run-", dir=bench_out)
    try:
        wl = workloads.WORKLOADS[args.workload](branchcouple, root, outdir, args.seed)
        setup_s = (time.monotonic_ns() - args.t0_ns) / 1e9
        result, summary = _measure(wl, args, branchcouple, tracer, bench_out)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    summary.update(setup_s=setup_s, sizes=wl.sizes)
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    with open(os.path.join(bench_out, "summary-%s.json" % tag), "w") as fh:
        json.dump(summary, fh, indent=1, default=str)
    for name, (ok, detail) in summary["checks"].items():
        if not ok:
            print("check failed: %s: %s" % (name, detail), file=sys.stderr)
    print(json.dumps(result))
    return 0


def _measure(wl, args, package, tracer_mod, bench_out):
    attempted = failed = 0
    plain_times, traced_times, layers = [], [], []
    first = None  # (outputs, fingerprint) of the first round with no failed operation
    same = True
    tracer = tracer_mod.Tracer(package) if args.trace else None
    start = time.perf_counter()
    while True:
        modes = (False, True) if args.trace else (False,)
        for traced in modes:
            if traced:
                tracer.reset()
                tracer.install()
            try:
                outs, n_failed, elapsed = run_round(wl)
            finally:
                if traced:
                    tracer.uninstall()
            attempted += len(wl.ops)
            failed += n_failed
            if traced:
                traced_times.append(elapsed)
                layers.append(tracer_mod.layer_metrics(tracer.spans))
            else:
                plain_times.append(elapsed)
            if n_failed:
                continue
            fp = wl.fingerprint(outs)
            if first is None:
                first = (outs, fp)
            else:
                same &= fp == first[1]
        if time.perf_counter() - start >= args.seconds:
            break

    checks = {}
    if first is not None:
        checks = wl.check(first[0])
        checks["determinism"] = (
            same,
            "every round (traced or not) reproduced the first round's outputs",
        )
    correct = all(ok for ok, _ in checks.values())
    work = wl.work(first[0]) if first is not None else 0.0
    metrics = {}
    if args.trace:
        for name in layers[0]:
            # counts repeat exactly from round to round; times take the median
            if name in _COUNTS:
                metrics[name] = layers[0][name]
            else:
                metrics[name] = statistics.median(lay[name] for lay in layers)
        metrics["trace.overhead_s"] = statistics.median(traced_times) - statistics.median(plain_times)
        tracer.dump(
            os.path.join(bench_out, "trace-%s-seed%d.json" % (args.workload, args.seed)),
            {"workload": args.workload, "seed": args.seed, "round_s": traced_times[-1]},
        )
    else:
        metrics["run_s"] = statistics.median(plain_times)
        metrics["work_per_s"] = statistics.median(work / t for t in plain_times)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": _UNITS[k]} for k, v in metrics.items()},
    }
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "work_per_round": work,
        "round_s": plain_times,
        "traced_round_s": traced_times,
        "checks": checks,
        "result": result,
    }
    return result, summary


_COUNTS = ("paths.calls", "paths.path_steps", "lyapunov.generator_evals")

_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "paths.coupled.ns_per_path_step": "ns",
    "paths.coupled_aux.ns_per_path_step": "ns",
    "paths.system.ns_per_path_step": "ns",
    "paths.scalar.ns_per_path_step": "ns",
    "paths.rng_words_per_path_step": "count",
    "paths.calls": "count",
    "paths.path_steps": "count",
    "paths.self_s": "s",
    "levy.quantiles_per_path_step": "count",
    "levy.self_s": "s",
    "lyapunov.ms_per_node": "ms",
    "lyapunov.jump_integral_ms": "ms",
    "lyapunov.generator_evals": "count",
    "lyapunov.self_s": "s",
    "ergodicity.tail_estimate_ms": "ms",
    "ergodicity.self_s": "s",
    "cli.self_s": "s",
    "model.self_s": "s",
    "trace.overhead_s": "s",
}


if __name__ == "__main__":
    sys.exit(main())
