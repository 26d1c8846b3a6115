"""Transmission disciplines for the contention winner.

The two-level decision of the proposed scheme:

  level 1 (free, direct magnitude h known):
      transmit directly now / probe the surface / release the channel
  level 2 (after paying tau_p + tau_c, boosted rate known):
      transmit via the surface / release the channel

plus the three reference disciplines it is measured against: always transmit
directly, always probe and transmit, and always probe with an optimal stop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .channel import direct_cross, linear_budget, pair_tables, rate_direct
from .config import NetworkConfig
from .contention import expected_contention_time
from .numerics import LOG2E, QUAD_TOL, SQRT2, adaptive_panels, bracket_root, scaled_e1
from .solver import ThresholdTable, probe_value, solve_max_throughput

_SQRT_PI = math.sqrt(math.pi)


class Decision(Enum):
    STOP_DIRECT = "stop_direct"
    ASSIST_RIS = "assist_ris"
    STOP_RIS = "stop_ris"
    CONTINUE = "continue"


class PolicyKind(Enum):
    PROPOSED = "proposed"
    NO_WAIT_DIRECT = "no-wait-direct"
    NO_WAIT_RIS = "no-wait-ris"
    OPTIMAL_RIS_STOP = "optimal-ris-stop"


def policy_from_name(name: str) -> PolicyKind:
    for kind in PolicyKind:
        if kind.value == name:
            return kind
    raise ValueError(f"unknown policy {name!r}; choose from "
                     + ", ".join(k.value for k in PolicyKind))


def decide_level1_reference(h_mag: float, k: int, lam_star: float,
                            cfg: NetworkConfig) -> Decision:
    """First-level choice by direct value comparison (no thresholds), for
    pair k observing direct magnitude h_mag.

    Stop when transmitting now is worth at least as much as both probing and
    releasing; release when neither action has positive worth; probe otherwise.
    """
    rho = linear_budget(cfg)
    a = (cfg.tau_d - cfg.tau_m1) * (rate_direct(rho, h_mag) - lam_star)
    b = float(probe_value(lam_star, h_mag, k, cfg))
    if a >= b and a >= 0.0:
        return Decision.STOP_DIRECT
    if a < 0.0 and b < 0.0:
        return Decision.CONTINUE
    return Decision.ASSIST_RIS


def decide_level1_threshold(h_mag: float, k: int, table: ThresholdTable,
                            cfg: NetworkConfig) -> Decision:
    """First-level choice by the precomputed per-pair magnitude thresholds."""
    if k in table.kstar:
        if h_mag >= table.eta[k]:
            return Decision.STOP_DIRECT
        if h_mag <= table.zeta[k]:
            return Decision.CONTINUE
        return Decision.ASSIST_RIS
    rho = linear_budget(cfg)
    if rate_direct(rho, h_mag) >= table.lambda_star:
        return Decision.STOP_DIRECT
    return Decision.CONTINUE


def decide_level2(rate_ris: float, stop_rate: float) -> Decision:
    """Post-probe choice: transmit via the surface iff the boosted rate
    reaches the stopping rate (ties stop)."""
    return Decision.STOP_RIS if rate_ris >= stop_rate else Decision.CONTINUE


def threshold_params(table: ThresholdTable | None, cfg: NetworkConfig):
    """Per-pair threshold arrays for vectorized level-1 decisions.

    Returns (zeta, eta, probe_worthy, h_cross): pairs outside the probe-worthy
    set use the single direct cutoff h_cross in place of the pair thresholds.
    Without a table (the reference disciplines) no pair is probe-worthy and
    h_cross is 0.
    """
    zeta = np.zeros(cfg.K)
    eta = np.full(cfg.K, np.inf)
    worthy = np.zeros(cfg.K, dtype=bool)
    if table is None:
        return zeta, eta, worthy, 0.0
    for k in table.kstar:
        worthy[k - 1] = True
        zeta[k - 1] = table.zeta[k]
        eta[k - 1] = table.eta[k]
    rho = linear_budget(cfg)
    h_cross = direct_cross(table.lambda_star, rho) if rho > 0.0 else 0.0
    return zeta, eta, worthy, h_cross


@dataclass(frozen=True, eq=False)
class Policy:
    """A transmission discipline plus the numbers it needs online."""

    kind: PolicyKind
    stop_rate: float = 0.0
    table: ThresholdTable | None = None


def mean_probe_value(lam: float, cfg: NetworkConfig) -> float:
    """Unconditional mean of the probe value over pairs and direct fading.

    The balance curve of the always-probe discipline (no direct stops, no
    free release): its threshold solves mean_probe_value(lam) = lam*tau_o.
    """
    lam = float(lam)
    rho, v, mu, sigma, _, _ = pair_tables(cfg)
    if rho == 0.0:
        return -lam * (cfg.tau_p + cfg.tau_c)
    h_cross = direct_cross(lam, rho)

    def integrand(rows, h):
        vr = v[rows]
        return probe_value(lam, h, rows + 1, cfg) * (2.0 * h / vr) * np.exp(-h * h / vr)

    # edges bracket the floor-crossing band of the Gaussian surrogate,
    # centered at h_cross - mu with width sigma
    h_hi = np.sqrt(v * math.log(1e14))
    t = np.clip(h_cross - mu, 0.0, None)
    edges = [np.zeros(cfg.K),
             np.clip(t - 30.0 * sigma, 0.0, h_hi),
             np.clip(t + 30.0 * sigma, 0.0, h_hi),
             h_hi]
    # the integrand tail above the 1 - 1e-14 fading quantile is negligible
    value = adaptive_panels(integrand, edges, QUAD_TOL)
    return value / cfg.K


def solve_lambda_b(cfg: NetworkConfig) -> float:
    """Throughput of the always-probe discipline with its best stopping rate.

    Root of mean_probe_value(lam) = lam * tau_o; the probe value is left
    unclamped because this discipline never transmits directly and never
    releases before probing. It falls by at most tau_d - tau_m1 per unit lam.
    """
    return bracket_root(lambda lam: mean_probe_value(lam, cfg), expected_contention_time(cfg),
                        cfg.tau_d - cfg.tau_m1, "always-probe balance")


def no_wait_direct_throughput(cfg: NetworkConfig) -> float:
    """Long-run throughput when every winner transmits directly at once.

    Renewal ratio in closed form: the mean direct rate of an exponential SNR
    is log2(e) * exp(1/w) * E1(1/w).
    """
    rho, v, _, _, _, _ = pair_tables(cfg)
    if rho == 0.0:
        return 0.0
    tau1 = cfg.tau_d - cfg.tau_m1
    w = rho * v
    mean_rate = float(np.mean(LOG2E * scaled_e1(1.0 / w, 1.0 / w)))
    return tau1 * mean_rate / (expected_contention_time(cfg) + tau1)


def no_wait_ris_throughput(cfg: NetworkConfig) -> float:
    """Long-run throughput when every winner probes and then transmits.

    The mean boosted rate is integrated over the fading law with the summed
    reflections at their Gaussian surrogate (Hermite rule inside, adaptive
    panels outside); exact up to the surrogate itself.
    """
    rho, v, mu, sigma, _, _ = pair_tables(cfg)
    if rho == 0.0:
        return 0.0
    tau1 = cfg.tau_d - cfg.tau_m1
    tau2 = cfg.tau_d - cfg.tau_m2
    tg, wg = hermgauss(64)

    def integrand(rows, h):
        shift = mu[rows][:, None] + SQRT2 * sigma[rows][:, None] * tg[None, :]
        rates = np.log2(1.0 + rho * np.square(h[:, None] + shift))
        vr = v[rows]
        pdf = (2.0 * h / vr) * np.exp(-h * h / vr)
        return (rates @ wg) / _SQRT_PI * pdf

    h_hi = np.sqrt(v * math.log(1e14))
    root_v = np.sqrt(v)
    edges = [np.zeros(cfg.K),
             np.minimum(root_v, h_hi),
             np.minimum(3.0 * root_v, h_hi),
             h_hi]
    mean_rate = adaptive_panels(integrand, edges, QUAD_TOL) / cfg.K
    return tau2 * mean_rate / (expected_contention_time(cfg) + tau1)


def analytic_throughput(kind: PolicyKind, cfg: NetworkConfig,
                        table: ThresholdTable | None = None) -> float:
    """Model-predicted long-run throughput of a discipline."""
    if kind is PolicyKind.PROPOSED:
        return table.lambda_star if table is not None else solve_max_throughput(cfg)
    if kind is PolicyKind.OPTIMAL_RIS_STOP:
        return solve_lambda_b(cfg)
    if kind is PolicyKind.NO_WAIT_DIRECT:
        return no_wait_direct_throughput(cfg)
    return no_wait_ris_throughput(cfg)


def make_policy(kind: PolicyKind, cfg: NetworkConfig,
                table: ThresholdTable | None = None) -> Policy:
    """Bind a discipline to its solved parameters for this network."""
    if kind is PolicyKind.PROPOSED:
        if table is None:
            raise ValueError("the proposed discipline needs a solved threshold table")
        return Policy(kind, stop_rate=table.lambda_star, table=table)
    if kind is PolicyKind.NO_WAIT_DIRECT:
        return Policy(kind)
    if kind is PolicyKind.NO_WAIT_RIS:
        return Policy(kind, stop_rate=-math.inf)
    return Policy(kind, stop_rate=solve_lambda_b(cfg))
