"""Programmatic command layer shared by the CLI and the test suite.

Each cmd_* function does the work of one subcommand and returns plain data;
argument parsing, printing, and exit codes live in the CLI module.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .config import (
    NetworkConfig,
    config_hash,
    dbm_to_watt,
    replace_config,
)
from .simulator import ThroughputEstimate, run_campaign
from .solver import (
    ThresholdTable,
    build_threshold_table,
    serialize_threshold_table,
    throughput_residual,
)
from .strategies import (
    Policy,
    PolicyKind,
    analytic_throughput,
    make_policy,
    policy_from_name,
)

CSV_HEADER = ("axis", "axis_value", "policy", "analytic_lambda",
              "simulated_mean", "ci_halfwidth", "n_rounds", "seed")
ROOT_RTOL = 1e-6  # relative distance to the root that validate accepts for lambda*


class UsageError(ValueError):
    """Bad invocation: unknown axis, a table solved for another network."""


def _axis_pt_dbm(cfg: NetworkConfig, value: float) -> NetworkConfig:
    return replace_config(cfg, pt=dbm_to_watt(value))


def _axis_tau_d_ms(cfg: NetworkConfig, value: float) -> NetworkConfig:
    return replace_config(cfg, tau_d=value * 1e-3)


# short names are accepted aliases; values are dBm and ms respectively
AXES = {"pt_dbm": _axis_pt_dbm, "tau_d_ms": _axis_tau_d_ms,
        "pt": _axis_pt_dbm, "tau_d": _axis_tau_d_ms}


def cmd_solve(cfg: NetworkConfig) -> tuple[ThresholdTable, str]:
    """Solve lambda* and the thresholds; returns (table, serialized text)."""
    table = build_threshold_table(cfg)
    return table, serialize_threshold_table(table)


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


def _check_table(cfg: NetworkConfig, table: ThresholdTable | None) -> None:
    if table is None:
        return
    if table.config_hash != config_hash(cfg):
        raise UsageError(
            "threshold table was solved for a different configuration "
            "(hash mismatch); re-run solve for this one")
    outside = sorted(k for k in table.kstar if not 1 <= k <= cfg.K)
    if outside:
        raise UsageError(f"threshold table names pairs outside 1..{cfg.K}: {outside}")


def _bind(kind: PolicyKind, cfg: NetworkConfig,
          table: ThresholdTable | None) -> tuple[Policy, float]:
    """The bound policy and its model throughput (only the proposed discipline
    reads the table). For the proposed and the optimal-ris-stop disciplines
    the model value is the policy's own stop rate: lambda_b is solved once."""
    policy = make_policy(kind, cfg, table)
    if kind in (PolicyKind.PROPOSED, PolicyKind.OPTIMAL_RIS_STOP):
        return policy, policy.stop_rate
    return policy, analytic_throughput(kind, cfg, table)


def cmd_simulate(cfg: NetworkConfig, policy_name: str, n_rounds: int, seed: int,
                 table: ThresholdTable | None = None,
                 workers: int | None = None) -> SimResult:
    kind = policy_from_name(policy_name)
    _check_table(cfg, table)
    policy, analytic = _bind(kind, cfg, table)
    est = run_campaign(cfg, policy, n_rounds, seed, workers=workers)
    return SimResult(kind.value, est, analytic)


def _derived_seed(seed: int, i: int, j: int) -> int:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(i, j))
    return int(ss.generate_state(1, np.uint64)[0])


def cmd_sweep(cfg: NetworkConfig, axis: str, values: list[float],
              policy_names: list[str] | None, n_rounds: int, seed: int,
              workers: int | None = None) -> list[dict]:
    """One row per (axis value, policy): analytic and simulated throughput.

    Per-point seeds are derived from (seed, value index, policy index), so a
    sweep is reproducible and its points are statistically independent.
    """
    if axis not in AXES:
        raise UsageError(f"unknown sweep axis {axis!r}; choices: "
                         + ", ".join(sorted(AXES)))
    if not values:
        raise UsageError("sweep needs at least one axis value")
    kinds = ([policy_from_name(n) for n in policy_names] if policy_names
             else list(PolicyKind))
    rows = []
    for i, value in enumerate(values):
        cfg_i = AXES[axis](cfg, value)
        table = (build_threshold_table(cfg_i)
                 if PolicyKind.PROPOSED in kinds else None)
        for j, kind in enumerate(kinds):
            point_seed = _derived_seed(seed, i, j)
            policy, analytic = _bind(kind, cfg_i, table)
            est = run_campaign(cfg_i, policy, n_rounds, point_seed, workers=workers)
            rows.append(dict(zip(CSV_HEADER, (
                axis, value, kind.value, analytic, est.mean, est.ci_halfwidth,
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


def cmd_validate(cfg: NetworkConfig, n_rounds: int = 40_000, seed: int = 7,
                 tol: float = 0.05, workers: int | None = None) -> list[Check]:
    """Internal-consistency battery: lambda* brackets the root, threshold
    invariants, and simulation-vs-model gaps for every policy."""
    checks: list[Check] = []
    table, _ = cmd_solve(cfg)
    lam = table.lambda_star

    # the residual changes sign within ROOT_RTOL of lambda*; 0 needs residual(0) <= 0
    below = throughput_residual(lam * (1.0 - ROOT_RTOL), cfg)
    above = throughput_residual(lam * (1.0 + ROOT_RTOL), cfg)
    checks.append(Check("root bracket", (lam == 0.0 or below >= 0.0) and above <= 0.0,
                        f"residual {below:.3e} / {above:.3e} at lambda* {lam:.9g} "
                        f"x (1 -/+ {ROOT_RTOL:g})"))
    ordered = all(table.zeta[k] < table.eta[k] for k in table.kstar)
    checks.append(Check("threshold ordering", ordered,
                        f"{len(table.kstar)} probe-worthy pairs"))
    for name in [k.value for k in PolicyKind]:
        result = cmd_simulate(cfg, name, n_rounds, seed,
                              table=table if name == "proposed" else None,
                              workers=workers)
        est = result.estimate
        margin = max(tol * abs(result.analytic), 3.0 * est.ci_halfwidth)
        ok = abs(est.mean - result.analytic) <= margin
        checks.append(Check(
            f"simulation vs model [{name}]", ok,
            f"simulated {est.mean:.6g} vs model {result.analytic:.6g} "
            f"(ci {est.ci_halfwidth:.2g}, n {est.n_rounds})"))
    return checks
