"""Transmission disciplines for the contention winner.

The two-level decision of the proposed scheme:

  level 1 (free, direct magnitude h known):
      transmit directly now / probe the surface / release the channel
  level 2 (after paying tau_p + tau_c, boosted rate known):
      transmit via the surface / release the channel

Every discipline is the same pure threshold rule: pair k transmits directly
if h >= eta_k, releases if h <= zeta_k and probes otherwise; after a probe
it stops iff the boosted rate reaches stop_rate. The three reference
disciplines are degenerate thresholds of it: always transmit directly
(eta = -inf), always probe and transmit (zeta = -inf, eta = +inf, stop at
any rate), and always probe with an optimal stop (the same, stopping at
lambda_b).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .channel import (direct_cross, linear_budget, pair_tables, rate_direct, rayleigh_pdf,
                      rayleigh_tail)
from .config import NetworkConfig
from .contention import expected_contention_time
from .numerics import LOG2E, SQRT2, adaptive_panels, bracket_root, scaled_e1
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


@dataclass(frozen=True, eq=False)
class Policy:
    """A transmission discipline as a pure threshold rule: per-pair magnitude
    thresholds zeta and eta (read-only, indexed by pair - 1) for level 1 and
    the post-probe stopping rate for level 2."""

    zeta: np.ndarray
    eta: np.ndarray
    stop_rate: float


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


def decide_level1_threshold(h_mag: float, k: int, policy: Policy) -> Decision:
    """First-level choice of pair k by the policy's magnitude thresholds:
    transmit directly at or above eta_k, release at or below zeta_k, probe
    in between."""
    if h_mag >= policy.eta[k - 1]:
        return Decision.STOP_DIRECT
    if h_mag <= policy.zeta[k - 1]:
        return Decision.CONTINUE
    return Decision.ASSIST_RIS


def decide_level2(rate_ris: float, stop_rate: float) -> Decision:
    """Post-probe choice: transmit via the surface iff the boosted rate
    reaches the stopping rate (ties stop)."""
    return Decision.STOP_RIS if rate_ris >= stop_rate else Decision.CONTINUE


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
        return rayleigh_pdf(h, v[rows], probe_value(lam, h, rows + 1, cfg))

    # edges bracket the floor-crossing band of the Gaussian surrogate,
    # centered at h_cross - mu with width sigma
    h_hi = rayleigh_tail(v)
    t = np.clip(h_cross - mu, 0.0, None)
    edges = [np.zeros(cfg.K),
             np.clip(t - 30.0 * sigma, 0.0, h_hi),
             np.clip(t + 30.0 * sigma, 0.0, h_hi),
             h_hi]
    value = adaptive_panels(integrand, edges)
    return value / cfg.K


def solve_lambda_b(cfg: NetworkConfig) -> float:
    """Throughput of the always-probe discipline with its best stopping rate.

    Root of mean_probe_value(lam) = lam * tau_o; the probe value is left
    unclamped because this discipline never transmits directly and never
    releases before probing. It falls by at most tau_d - tau_m1 per unit lam.
    """
    return bracket_root(lambda lam: mean_probe_value(lam, cfg), expected_contention_time(cfg),
                        cfg.tau_d - cfg.tau_m1)


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
        return (rates @ wg) / _SQRT_PI * rayleigh_pdf(h, v[rows])

    h_hi = rayleigh_tail(v)
    root_v = np.sqrt(v)
    edges = [np.zeros(cfg.K),
             np.minimum(root_v, h_hi),
             np.minimum(3.0 * root_v, h_hi),
             h_hi]
    mean_rate = adaptive_panels(integrand, edges) / cfg.K
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
    """Bind a discipline to its thresholds for this network (only the
    proposed discipline reads the table).

    proposed: the table's zeta_k and eta_k on probe-worthy pairs; elsewhere
    both sit at the direct cutoff h_cross(lam*), so the pair transmits or
    releases. no-wait-direct: eta = -inf. no-wait-ris and optimal-ris-stop:
    zeta = -inf and eta = +inf, stopping at any rate or at lambda_b.
    """
    zeta = np.full(cfg.K, -math.inf)
    eta = np.full(cfg.K, math.inf)
    stop_rate = -math.inf
    if kind is PolicyKind.PROPOSED:
        if table is None:
            raise ValueError("the proposed discipline needs a threshold table: "
                             "run solve and pass its output")
        rho = linear_budget(cfg)
        zeta[:] = direct_cross(table.lambda_star, rho) if rho > 0.0 else 0.0
        eta[:] = zeta
        for k in table.kstar:
            zeta[k - 1] = table.zeta[k]
            eta[k - 1] = table.eta[k]
        stop_rate = table.lambda_star
    elif kind is PolicyKind.NO_WAIT_DIRECT:
        eta[:] = -math.inf
    elif kind is PolicyKind.OPTIMAL_RIS_STOP:
        stop_rate = solve_lambda_b(cfg)
    zeta.flags.writeable = False
    eta.flags.writeable = False
    return Policy(zeta, eta, stop_rate)
