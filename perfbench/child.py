"""Child process of run.py: one workload in a fresh interpreter.

It imports rismac, builds the workload's configurations and prints "ready"
(run.py times the interpreter up to that line as set-up). It then repeats
whole rounds of the workload for the time budget, reads its peak resident
set size, checks every operation (checks.py) and prints one JSON object as
its last line.

With --trace 1 it runs some rounds untraced, then the same rounds with
rismac's public functions wrapped (tracing.py), and measures the layers
that need a fresh process: imports, config parsing and the CLI.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys

from workloads import build_workload, end_to_end, run_rounds


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args(argv)

    wl = build_workload(args.workload, args.seed, args.tiny)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    metrics = {}
    if not args.trace:
        rounds = run_rounds(wl, args.seconds)
        metrics.update(end_to_end(rounds))
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    else:
        import tracing

        rounds = run_rounds(wl, args.seconds / 2)
        tracer = tracing.Tracer()
        with tracer.installed():
            traced = run_rounds(wl, args.seconds / 2)
        if args.trace_out:
            tracer.dump(args.trace_out)
        metrics.update(tracing.layer_metrics(tracer, wl, traced, args.tiny))
        metrics["trace.overhead_s"] = (statistics.median(r.wall_s for r in traced)
                                       - statistics.median(r.wall_s for r in rounds), "s")
        rounds = rounds + traced

    import checks

    result = checks.check_rounds(wl, rounds)
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
