"""The three workloads: their configurations and one timed round of each.

A round drives rismac through its public functions in the order `rismac
sweep` calls them and times those calls from here. Every workload reports
the same end-to-end metrics; each loads a different layer most (README.md).
"""

from __future__ import annotations

import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import calibrate
import rismac
from rismac import config, harness, simulator, solver, strategies
from rismac.strategies import PolicyKind

ROOT = Path.cwd()
BLOCK = simulator.BLOCK_ROUNDS
KINDS = list(PolicyKind)
REFERENCE_KINDS = [k for k in KINDS if k is not PolicyKind.PROPOSED]

if not Path(rismac.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"rismac was imported from {rismac.__file__}, not from ./src")


@dataclass(frozen=True)
class Point:
    """One operation: solve, baselines and the campaigns of one config."""

    label: str
    cfg: config.NetworkConfig
    simulate: tuple[PolicyKind, ...]
    n_rounds: int
    expect_fail: bool = False  # known solver fault (absolute stopping rule)


@dataclass
class Workload:
    points: list[Point]
    seed: int
    sample_point: int           # index of the config for the simulate_rounds sample
    attempt_points: tuple = ()  # indices checked against the quadrature reference
    sweep: tuple | None = None  # (axis, values) replayed through harness.cmd_sweep


GRID_PT = (-60, -40, 0, 30, 80)
GRID_TAU_D = (5, 15, 100, 250)
SWEEP_PT = (20, 22, 24, 26, 28, 30)
SURFACE_M = (0, 8, 64, 256, 1024)


def build_workload(name: str, seed: int, tiny: bool) -> Workload:
    """The configs of a workload, built as `rismac --set` and `sweep` build them."""
    base = config.parse_config(config.default_config_path())
    if name == "solve-grid":
        pts, taus = ((0, 80), (5,)) if tiny else (GRID_PT, GRID_TAU_D)
        points = [Point(f"pt={p}dBm,tau_d={t}ms",
                        config.apply_overrides(base, [f"pt={p} dBm", f"tau_d={t} ms"]),
                        (PolicyKind.PROPOSED,), 2 * BLOCK if not tiny else BLOCK,
                        expect_fail=p <= 0)
                  for p in pts for t in taus]
        labels = ({"pt=80dBm,tau_d=5ms"} if tiny else
                  {"pt=30dBm,tau_d=15ms", "pt=80dBm,tau_d=250ms", "pt=-40dBm,tau_d=100ms"})
        checked = [i for i, pt in enumerate(points) if pt.label in labels]
        sample = next(i for i, pt in enumerate(points) if pt.label.startswith("pt=30dBm")
                      or tiny and pt.label.startswith("pt=80dBm"))
        return Workload(points, seed, sample, tuple(checked))
    if name == "sweep-power":
        values = SWEEP_PT[::5] if tiny else SWEEP_PT
        n = BLOCK if tiny else 100_000
        points = [Point(f"pt={v}dBm", harness.AXES["pt"](base, float(v)), tuple(KINDS), n)
                  for v in values]
        return Workload(points, seed, len(points) - 1,
                        sweep=("pt", [float(v) for v in values]))
    if name == "surface-size":
        ms = SURFACE_M[:2] if tiny else SURFACE_M
        points = [Point(f"M={m}", config.apply_overrides(base, [f"M={m}"]), tuple(KINDS),
                        BLOCK if tiny else (25 if m <= 64 else 16) * BLOCK)
                  for m in ms]
        return Workload(points, seed, len(points) - 1)
    raise SystemExit(f"unknown workload {name!r}")


def derived_seed(seed: int, i: int, j: int) -> int:
    """Per-point seed from (master seed, point index, policy index), as `sweep` derives it."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(i, j))
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass
class Round:
    """Outputs and scaled timings of one pass over every point of a workload."""

    outputs: list = field(default_factory=list)  # per point: (table, analytic, estimates)
    seconds: dict = field(default_factory=dict)  # category -> scaled seconds
    rounds: dict = field(default_factory=dict)   # (policy, workers) -> simulated rounds

    @property
    def wall_s(self) -> float:
        return sum(self.seconds.values())

    def rate(self, workers=None, policy=None) -> float:
        keys = [k for k in self.rounds
                if workers in (None, k[1]) and policy in (None, k[0])]
        return sum(self.rounds[k] for k in keys) / sum(self.seconds[k] for k in keys)


def _baselines(cfg):
    policies, analytic = {}, {}
    for kind in REFERENCE_KINDS:
        policies[kind] = strategies.make_policy(kind, cfg)
        analytic[kind] = strategies.analytic_throughput(kind, cfg)
    return policies, analytic


def _proposed(cfg, table):
    return (strategies.make_policy(PolicyKind.PROPOSED, cfg, table),
            strategies.analytic_throughput(PolicyKind.PROPOSED, cfg, table))


def run_round(wl: Workload) -> Round:
    """Drive rismac as `rismac sweep` does: solve, bind each policy
    (make_policy, analytic_throughput), then run its campaign at 1 and at 2
    workers. The benchmark's own checks run after the rounds."""
    rnd = Round()
    meter = calibrate.Meter()
    for i, pt in enumerate(wl.points):
        table = meter.time("solve", solver.build_threshold_table, pt.cfg)
        policies, analytic = meter.time("baselines", _baselines, pt.cfg)
        policies[PolicyKind.PROPOSED], analytic[PolicyKind.PROPOSED] = meter.time(
            "other", _proposed, pt.cfg, table)
        estimates = {}
        for j, kind in enumerate(KINDS):
            if kind not in pt.simulate:
                continue
            seed = derived_seed(wl.seed, i, j)
            estimates[kind] = tuple(
                meter.time((kind.value, workers), simulator.run_campaign, pt.cfg,
                           policies[kind], pt.n_rounds, seed, workers=workers,
                           threads=workers)
                for workers in (1, 2))
            for workers in (1, 2):
                key = (kind.value, workers)
                rnd.rounds[key] = rnd.rounds.get(key, 0) + pt.n_rounds
        rnd.outputs.append((table, analytic, estimates))
    rnd.seconds = meter.totals
    return rnd


def run_rounds(wl: Workload, budget_s: float) -> list[Round]:
    """Whole rounds while the next one is expected to end within the budget."""
    rounds = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        rounds.append(run_round(wl))
        now = time.perf_counter()
        if now - start + (now - began) > budget_s:
            return rounds


def end_to_end(rounds: list[Round]) -> dict:
    med = statistics.median
    return {
        "wall_s": (med(r.wall_s for r in rounds), "s"),
        "solve_s": (med(r.seconds["solve"] for r in rounds), "s"),
        "baselines_s": (med(r.seconds["baselines"] for r in rounds), "s"),
        "sim_rounds_per_s": (med(r.rate(workers=1) for r in rounds), "1/s"),
        "sim_rounds_per_s_2w": (med(r.rate(workers=2) for r in rounds), "1/s"),
    }
