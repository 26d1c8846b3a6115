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
lambda_b). make_policy is the one place a discipline is bound to a network.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .channel import direct_cross, linear_budget, pair_row, pair_tables, rate_direct
from .config import ConfigError, NetworkConfig, config_hash
from .contention import expected_contention_time, winner_weights
from .numerics import LOG2E, bracket_root, snr_floor
from .solver import (ThresholdTable, build_threshold_table, direct_branch, fading_average,
                     probe_value)


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
    A pair index outside 1..K raises ConfigError (from probe_value).
    """
    rho = linear_budget(cfg)
    a = cfg.tau1 * (rate_direct(rho, h_mag) - lam_star)
    b = float(probe_value(lam_star, h_mag, k, cfg))
    if a >= b and a >= 0.0:
        return Decision.STOP_DIRECT
    if a < 0.0 and b < 0.0:
        return Decision.CONTINUE
    return Decision.ASSIST_RIS


def decide_level1_threshold(h_mag: float, k: int, policy: Policy) -> Decision:
    """First-level choice of pair k by the policy's magnitude thresholds:
    transmit directly at or above eta_k, release at or below zeta_k, probe
    in between. A pair index outside 1..K raises ConfigError."""
    i = pair_row(k, policy.eta.size)
    if h_mag >= policy.eta[i]:
        return Decision.STOP_DIRECT
    if h_mag <= policy.zeta[i]:
        return Decision.CONTINUE
    return Decision.ASSIST_RIS


def decide_level2(rate_ris: float, stop_rate: float) -> Decision:
    """Post-probe choice: transmit via the surface iff the boosted rate
    reaches the stopping rate (ties stop)."""
    return Decision.STOP_RIS if rate_ris >= stop_rate else Decision.CONTINUE


def mean_probe_value(lam: float, cfg: NetworkConfig) -> float:
    """Unconditional mean of the exact probe value E[max(tau2 R - lam tau1,
    -lam tau_pc)] over the winning pair (contention.winner_weights) and the
    post-probe fading h + X: the balance curve of the always-probe discipline,
    whose threshold solves mean_probe_value(lam) = lam*tau_o."""
    return mean_probe_value_and_slope(lam, cfg)[0]


def mean_probe_value_and_slope(lam: float, cfg: NetworkConfig) -> tuple[float, float]:
    """mean_probe_value at lam and its exact lam-slope, from one integral
    over y = h + X (solver.fading_average). The winner stops iff |y| >= b =
    direct_cross(lam): the value is tau2 E[(R - lam)^+] - lam tau_pc, the
    slope -tau2 P(|y| >= b) - tau_pc. Each pair's panels split at -b, b, mu,
    t = mu + 3 sigma, t + sqrt(v) and t + 3 sqrt(v) (at least b), so that a
    call of a lambda_b solve converges in its first quadrature round (at
    80 dBm the call at lam = 0 takes five at M <= 5, two at M = 12)."""
    rho, v, mu, sigma, _, _ = pair_tables(cfg)
    c, b = snr_floor(lam), direct_cross(lam, rho)

    def gain(rows, y):
        # R - lam as log2((1 + rho y^2) / (1 + c)), exact near |y| = b; 0 on (-b, b)
        r = np.log1p((rho * y * y - c) / (1.0 + c)) * LOG2E
        return np.array((np.maximum(r, 0.0), r >= 0.0))

    rt, t = np.sqrt(v), mu + 3.0 * sigma
    edges = np.full((8, cfg.K), np.inf)
    edges[:3] = [[-np.inf], [-b], [b]]
    edges[3:7] = np.maximum((mu, t, t + rt, t + 3.0 * rt), b)
    value, p_stop = fading_average(cfg, gain, edges, surface=True)
    return float(cfg.tau2 * value - lam * cfg.tau_pc), float(-cfg.tau2 * p_stop - cfg.tau_pc)


def solve_lambda_b(cfg: NetworkConfig) -> float:
    """Throughput of the always-probe discipline with its best stopping rate.

    Root of mean_probe_value(lam) = lam * tau_o; the probe value is left
    unclamped because this discipline never transmits directly and never
    releases before probing. The value is convex in lam, so bracket_root's
    Newton steps from below stay below lambda_b; its curvature steps close
    the gap in fewer value calls.

    The root's precision is its stop width, ROOT_XTOL * min(1, value(0) /
    tau_o), not the quadrature's (the root does not move with QUAD_RTOL
    1000 times smaller). At low power value(0) / tau_o is far above lambda_b
    (274 times at -60 dBm / 250 ms, 6,785 times at 10 s), so the width is
    2.7e-9 and 6.8e-8 of lambda_b there; the quadratic last Newton step
    lands closer, within 3e-14 of the root of a nested scipy quadrature of
    the same charge, from -60 to 80 dBm and M = 1 to 1024.
    """
    return bracket_root(lambda lam: mean_probe_value_and_slope(lam, cfg),
                        expected_contention_time(cfg))


def no_wait_direct_throughput(cfg: NetworkConfig) -> float:
    """Long-run throughput when every winner transmits directly at once:
    the winner-weighted mean direct bits over one round's time."""
    rho, v = pair_tables(cfg)[:2]
    bits = direct_branch(0.0, rho * v, winner_weights(cfg.p), cfg.tau1)[0]
    return float(bits / (expected_contention_time(cfg) + cfg.tau1))


def no_wait_ris_throughput(cfg: NetworkConfig) -> float:
    """Long-run throughput when every winner probes and then transmits:
    the mean boosted bits tau2 E[R], mean_probe_value at lam = 0, over one
    round's time."""
    return mean_probe_value(0.0, cfg) / (expected_contention_time(cfg) + cfg.tau1)


def analytic_throughput(kind: PolicyKind, cfg: NetworkConfig,
                        table: ThresholdTable | None = None) -> float:
    """Model-predicted long-run throughput of a discipline (bind_policy's)."""
    return bind_policy(kind, cfg, table)[1]


def make_policy(kind: PolicyKind, cfg: NetworkConfig,
                table: ThresholdTable | None = None) -> Policy:
    """Bind a discipline to its thresholds for this network (only the
    proposed discipline reads the table, and solves it when none is given). A
    table solved for another configuration, or naming a pair outside 1..K, is
    a ConfigError.

    proposed: the table's zeta_k and eta_k on probe-worthy pairs; elsewhere
    both sit at the direct cutoff h_cross(lam*), so the pair transmits or
    releases. no-wait-direct: eta = -inf. no-wait-ris and optimal-ris-stop:
    zeta = -inf and eta = +inf, stopping at any rate or at lambda_b.
    """
    if table is not None:
        if table.config_hash != config_hash(cfg):
            raise ConfigError("threshold table was solved for a different configuration "
                              "(hash mismatch); re-run solve for this one")
        outside = sorted(k for k in table.kstar if not 1 <= k <= cfg.K)
        if outside:
            raise ConfigError(f"threshold table names pairs outside 1..{cfg.K}: {outside}")
    zeta = np.full(cfg.K, -math.inf)
    eta = np.full(cfg.K, math.inf)
    stop_rate = -math.inf
    if kind is PolicyKind.PROPOSED:
        if table is None:
            table = build_threshold_table(cfg)
        zeta[:] = direct_cross(table.lambda_star, pair_tables(cfg).rho)
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


def bind_policy(kind: PolicyKind, cfg: NetworkConfig,
                table: ThresholdTable | None = None) -> tuple[Policy, float]:
    """The discipline bound to this network by make_policy and its model
    throughput. The proposed and optimal-ris-stop models are the policy's own
    stop rate, so lambda_b or the table is solved once."""
    policy = make_policy(kind, cfg, table)
    if kind is PolicyKind.NO_WAIT_DIRECT:
        return policy, no_wait_direct_throughput(cfg)
    if kind is PolicyKind.NO_WAIT_RIS:
        return policy, no_wait_ris_throughput(cfg)
    return policy, policy.stop_rate
