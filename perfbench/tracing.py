"""Traced run: spans around rismac's public functions, and per-layer metrics.

Tracer replaces each traced function on the module that calls it (so that
solve_max_throughput's calls to attempt_value go through the wrapper) and
records one span per call: name, start, end and the enclosing span. Spans
stay in memory and are written as JSON at the end. A span's self time is
its duration minus the time its direct children cover. No code under src/
changes.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

from rismac import config, simulator, solver, strategies
from rismac.strategies import PolicyKind

import calibrate
import checks
from workloads import BLOCK, KINDS, Workload

# (module whose global is replaced, attribute, span name)
TARGETS = [
    (solver, "build_threshold_table", "solver.build_threshold_table"),
    (solver, "solve_max_throughput", "solver.solve_max_throughput"),
    (solver, "attempt_value", "solver.attempt_value"),
    (solver, "probe_value", "solver.probe_value"),
    (solver, "expected_contention_time", "contention.expected_contention_time"),
    (strategies, "expected_contention_time", "contention.expected_contention_time"),
    (strategies, "make_policy", "strategies.make_policy"),
    (strategies, "analytic_throughput", "strategies.analytic_throughput"),
    (strategies, "solve_lambda_b", "strategies.solve_lambda_b"),
    (strategies, "mean_probe_value", "strategies.mean_probe_value"),
    (strategies, "no_wait_direct_throughput", "strategies.no_wait_direct_throughput"),
    (strategies, "no_wait_ris_throughput", "strategies.no_wait_ris_throughput"),
    (simulator, "run_campaign", "simulator.run_campaign"),
]
SUPPLEMENT_ROUNDS = 100_000


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index or -1]
        self._local = threading.local()

    def _wrap(self, name, fn):
        spans, local = self.spans, self._local

        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][1:3] = start, time.perf_counter()
                stack.pop()

        return traced

    @contextmanager
    def installed(self):
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in TARGETS]
        try:
            for (mod, attr, name), (_, _, fn) in zip(TARGETS, saved):
                setattr(mod, attr, self._wrap(name, fn))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def summary(self) -> dict:
        """name -> [calls, total seconds, self seconds]."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, start, end, _), cov in zip(self.spans, covered):
            agg = out[name]
            agg[0] += 1
            agg[1] += end - start
            agg[2] += end - start - cov
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"],
                       "spans": self.spans}, fh)


def _fresh_import_s(module: str) -> float:
    code = ("import time; t = time.perf_counter(); "
            f"import {module}; print(time.perf_counter() - t)")
    return float(subprocess.run([sys.executable, "-c", code], check=True,
                                capture_output=True, text=True, timeout=120).stdout)


def _cli_s(*args: str) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-m", "rismac.cli", *args], check=True,
                   capture_output=True, timeout=150)
    return time.perf_counter() - start


def _parse_s(reps: int = 200) -> float:
    path = config.default_config_path()
    start = time.perf_counter()
    for _ in range(reps):
        config.parse_config(path)
    return (time.perf_counter() - start) / reps


def _median_scaled(reps: int, fn, *args) -> float:
    return statistics.median(calibrate.scaled_s(fn, *args) for _ in range(reps))


def policy_rates(wl: Workload, rounds, n_rounds: int) -> dict:
    """(policy, workers) -> rounds/s over the rounds' campaigns. Policies the
    workload does not simulate are timed on its sample point instead."""
    rates = {key: statistics.median(r.rate(policy=key[0], workers=key[1]) for r in rounds)
             for key in rounds[0].rounds}
    pt = wl.points[wl.sample_point]
    table = rounds[0].outputs[wl.sample_point][0]
    meter = calibrate.Meter()
    for kind in KINDS:
        if (kind.value, 1) in rates:
            continue
        policy = strategies.make_policy(kind, pt.cfg, table)
        for workers in (1, 2):
            meter.time(workers, simulator.run_campaign, pt.cfg, policy, n_rounds, 1,
                       workers=workers, threads=workers)
            rates[(kind.value, workers)] = n_rounds / meter.totals.pop(workers)
    return rates


def layer_metrics(tracer: Tracer, wl: Workload, traced, tiny: bool) -> dict:
    """Per-layer metrics, span figures per traced round."""
    per = 1.0 / len(traced)
    reps = 1 if tiny else 3
    s = tracer.summary()

    def calls(name):
        return s[name][0] * per

    def total(name):
        return s[name][1] * per

    m = {
        "import.rismac_s": (_median_scaled(reps, _fresh_import_s, "rismac"), "s"),
        "import.scipy_stats_s": (_median_scaled(reps, _fresh_import_s, "scipy.stats"), "s"),
        "config.parse_s": (_median_scaled(5, _parse_s), "s"),
        "cli.solve_s": (_median_scaled(reps, _cli_s, "solve"), "s"),
        "cli.validate_s": (_median_scaled(1, _cli_s, "validate", "--rounds",
                                          "4096" if tiny else "40000"), "s"),
        "contention.expected_time_s": (total("contention.expected_contention_time"), "s"),
        "solver.attempt_value.calls": (calls("solver.attempt_value"), "count"),
        "solver.attempt_value.call_s": (total("solver.attempt_value"), "s"),
        "solver.root_s": (s["solver.solve_max_throughput"][2] * per, "s"),
        "solver.thresholds_s": (total("solver.build_threshold_table")
                                - total("solver.solve_max_throughput"), "s"),
        "solver.probe_value.calls": (calls("solver.probe_value"), "count"),
        "strategies.lambda_b.calls": (calls("strategies.solve_lambda_b"), "count"),
        "strategies.lambda_b_s": (total("strategies.solve_lambda_b"), "s"),
        "strategies.mean_probe_value.calls": (calls("strategies.mean_probe_value"), "count"),
        "strategies.no_wait_ris_s": (total("strategies.no_wait_ris_throughput"), "s"),
        "strategies.no_wait_direct_s": (total("strategies.no_wait_direct_throughput"), "s"),
    }
    rates = policy_rates(wl, traced, BLOCK if tiny else SUPPLEMENT_ROUNDS)
    for (name, workers), rate in sorted(rates.items()):
        m[f"simulator.rounds_per_s.{name}.{workers}w"] = (rate, "1/s")
    pt = wl.points[wl.sample_point]
    table = traced[0].outputs[wl.sample_point][0]
    for kind, arr in checks.sample_arrays(pt, table).items():
        m[f"simulator.attempts_per_round.{kind.value}"] = (
            float(arr.attempts.mean()), "attempts/round")
        if kind is not PolicyKind.NO_WAIT_DIRECT:  # never probes: always 0
            probes = (arr.terminal == 2).sum() + arr.probe_releases.sum()
            m[f"simulator.probes_per_round.{kind.value}"] = (
                float(probes) / arr.attempts.size, "probes/round")
    return m
