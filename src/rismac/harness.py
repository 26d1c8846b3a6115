"""Programmatic command layer shared by the CLI and the test suite.

Each cmd_* function does the work of one subcommand and returns plain data;
every campaign runs through cmd_simulate and strategies.bind_policy (`rismac
solve` is the solver's build_threshold_table). Disciplines arrive as
PolicyKinds; name parsing, defaults, printing and exit codes live in the CLI.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .config import NetworkConfig, dbm_to_watt, replace_config
from .simulator import ThroughputEstimate, run_campaign
from .solver import (
    ThresholdTable,
    build_threshold_table,
    throughput_residual,
)
from .strategies import PolicyKind, bind_policy

CSV_HEADER = ("axis", "axis_value", "policy", "analytic_lambda",
              "simulated_mean", "ci_halfwidth", "n_rounds", "seed")
ROOT_RTOL = 1e-6  # relative distance to the root that validate accepts for lambda*


def _axis_pt_dbm(cfg: NetworkConfig, value: float) -> NetworkConfig:
    return replace_config(cfg, pt=dbm_to_watt(value))


def _axis_tau_d_ms(cfg: NetworkConfig, value: float) -> NetworkConfig:
    return replace_config(cfg, tau_d=value * 1e-3)


# short names are accepted aliases; values are dBm and ms respectively
AXES = {"pt_dbm": _axis_pt_dbm, "tau_d_ms": _axis_tau_d_ms,
        "pt": _axis_pt_dbm, "tau_d": _axis_tau_d_ms}


def relative_gap(simulated: float, analytic: float) -> float:
    """|simulated - analytic| / |analytic|; inf when only the model is 0."""
    if analytic == 0.0:
        return math.inf if simulated != 0.0 else 0.0
    return abs(simulated - analytic) / abs(analytic)


@dataclass(frozen=True)
class SimResult:
    policy: str
    estimate: ThroughputEstimate
    analytic: float


def cmd_simulate(cfg: NetworkConfig, kind: PolicyKind, n_rounds: int, seed: int,
                 table: ThresholdTable | None = None,
                 workers: int | None = None) -> SimResult:
    """Bind one discipline (solving the proposed table if none is given) and run it."""
    policy, analytic = bind_policy(kind, cfg, table)
    est = run_campaign(cfg, policy, n_rounds, seed, workers=workers)
    return SimResult(kind.value, est, analytic)


def _derived_seed(seed: int, i: int, j: int) -> int:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(i, j))
    return int(ss.generate_state(1, np.uint64)[0])


def cmd_sweep(cfg: NetworkConfig, axis: str, values: list[float],
              kinds: list[PolicyKind] | None, n_rounds: int, seed: int,
              workers: int | None = None) -> list[dict]:
    """One row per (axis value, policy): analytic and simulated throughput.

    Per-point seeds are derived from (seed, value index, policy index), so a
    sweep is reproducible and its points are statistically independent.
    """
    if axis not in AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; choices: "
                         + ", ".join(sorted(AXES)))
    if not values:
        raise ValueError("sweep needs at least one axis value")
    rows = []
    for i, value in enumerate(values):
        cfg_i = AXES[axis](cfg, value)
        for j, kind in enumerate(kinds or PolicyKind):
            point_seed = _derived_seed(seed, i, j)
            r = cmd_simulate(cfg_i, kind, n_rounds, point_seed, workers=workers)
            est = r.estimate
            rows.append(dict(zip(CSV_HEADER, (
                axis, value, r.policy, r.analytic, est.mean, est.ci_halfwidth,
                est.n_rounds, point_seed))))
    return rows


def sweep_rows_to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_HEADER, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


def cmd_validate(cfg: NetworkConfig, n_rounds: int, seed: int, tol: float,
                 workers: int | None = None) -> list[Check]:
    """Internal-consistency battery: lambda* brackets the root, and the
    simulation-vs-model gap of every policy (build_threshold_table itself
    raises SolverError for a probe-worthy pair without zeta < eta)."""
    checks: list[Check] = []
    table = build_threshold_table(cfg)
    lam = table.lambda_star

    # the residual changes sign within ROOT_RTOL of lambda*; 0 needs residual(0) <= 0
    below = throughput_residual(lam * (1.0 - ROOT_RTOL), cfg)
    above = throughput_residual(lam * (1.0 + ROOT_RTOL), cfg)
    checks.append(Check("root bracket", (lam == 0.0 or below >= 0.0) and above <= 0.0,
                        f"residual {below:.3e} / {above:.3e} at lambda* {lam:.9g} "
                        f"x (1 -/+ {ROOT_RTOL:g})"))
    for kind in PolicyKind:
        result = cmd_simulate(cfg, kind, n_rounds, seed, table=table,
                              workers=workers)
        est = result.estimate
        margin = max(tol * abs(result.analytic), 3.0 * est.ci_halfwidth)
        ok = abs(est.mean - result.analytic) <= margin
        checks.append(Check(
            f"simulation vs model [{kind.value}]", ok,
            f"simulated {est.mean:.6g} vs model {result.analytic:.6g} "
            f"(ci {est.ci_halfwidth:.2g}, n {est.n_rounds})"))
    return checks
