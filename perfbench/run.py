"""rismac benchmark: one workload per call, run from the repository root.

    python3 perfbench/run.py --workload solve-grid [--seed N] [--seconds S] [--trace 0|1]

Each call starts the workload in a fresh child interpreter (child.py) with a
fixed environment; with --trace 0 it first starts SETUP_SAMPLES interpreters
that stop after set-up, to time it. Times are scaled to a reference host
speed (calibrate.py). The last line of standard output is one JSON object:
correct, attempted, failed and the metrics (end-to-end ones untraced,
per-layer ones with --trace 1). Spans of a traced run and every result are
also written under perfbench/out/. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
WORKLOADS = {"solve-grid": 1, "sweep-power": 2026, "surface-size": 7}  # name -> default seed
SETUP_SAMPLES = 4
CHILD_TIMEOUT_S = 170


def child_env(root: Path) -> dict:
    """The caller's environment without Python, BLAS or rismac settings, plus
    fixed ones: rismac from ./src, one BLAS thread, 2 simulation workers."""
    drop = ("PYTHON", "OMP_", "OPENBLAS_", "MKL_", "RISMAC_")
    env = {k: v for k, v in os.environ.items() if not k.startswith(drop)}
    env.update(PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1", RISMAC_THREADS="2")
    return env


def run_child(args: list[str], root: Path) -> tuple[float, str]:
    """Start child.py; return (seconds until it printed "ready", rest of stdout)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), *args], cwd=root,
                            env=child_env(root), stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
    if first != "ready\n" or code != 0:
        raise SystemExit(f"workload child failed (exit {code}): {first.strip()}")
    return ready_s, rest


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=None,
                    help="master seed (defaults: " + ", ".join(
                        f"{k} {v}" for k, v in WORKLOADS.items()) + ")")
    ap.add_argument("--seconds", type=float, default=30.0, help="measurement budget")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="a few points and one block per campaign (self-test)")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "rismac" / "__init__.py").is_file():
        print("error: run from the repository root (no src/rismac here)", file=sys.stderr)
        return 2
    seed = WORKLOADS[args.workload] if args.seed is None else args.seed
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{seed}-trace{args.trace}"
    child_args = ["--workload", args.workload, "--seed", str(seed),
                  "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        child_args.append("--tiny")
    if args.trace:
        child_args += ["--trace-out", str(out_dir / f"{stem}-spans.json")]

    setup = [] if args.trace else [
        calibrate.scaled_s(lambda: run_child(child_args + ["--setup-only"], root)[0])
        for _ in range(1 if args.tiny else SETUP_SAMPLES)]
    _, rest = run_child(child_args, root)
    result = json.loads(rest.strip().splitlines()[-1])
    if setup:
        result["metrics"] = {"setup_s": {"value": statistics.median(setup), "unit": "s"},
                             **result["metrics"]}
    line = json.dumps(result)
    (out_dir / f"{stem}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
