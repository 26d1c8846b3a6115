"""Stopping-threshold solver.

The destination of a contention winner chooses between transmitting on the
direct link now, probing the reflecting surface first, or releasing the
channel. Pricing channel time at lam (bits/s/Hz), the value of one resolved
contention is

    E[ max( (tau_d - tau_m1) * (R_direct - lam),   # transmit now
            probe value,                           # pay tau_p + tau_c, then best of stop/continue
            0 ) ]                                  # release immediately

and the maximal long-run throughput lam* balances that value against the
price of the contention itself: attempt_value(lam*) = lam* * tau_o.

The probe value has a closed form: under a Gaussian surrogate for the summed
cascaded magnitudes, the post-probe SNR credited to the pair is
E[max(rho*(h+X)^2, 2^lam - 1)] (worse draws fall back to the continue
branch), which evaluates to three erf/erfc/Gaussian-density terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import special

from .channel import direct_cross, draw_cascaded, pair_tables, rayleigh_pdf
from .config import ConfigError, NetworkConfig, config_hash, read_key_values
from .contention import expected_contention_time
from .numerics import (
    LN2,
    LOG2E,
    SQRT2,
    SolverError,
    adaptive_panels,
    bracket_root,
    scaled_e1,
    snr_floor,
    vec_bisect,
)

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_MC_CHUNK = 1 << 16  # cascaded draws per Monte-Carlo batch
_FP_MAX_ITER = 500_000  # steps before the fixed-point reference gives up


class MCEstimate(NamedTuple):
    mean: float
    stderr: float
    n: int


def effective_probe_snr(lam, h_s, mu, sigma, rho_bar):
    """E[max(rho_bar*(h_s+X)^2, 2^lam - 1)] for X ~ Normal(mu, sigma^2).

    The SNR a probe is credited with when rates below lam are never used.
    Closed form; broadcasts over its arguments. sigma == 0 degenerates to the
    pointwise max (no surface, or a single deterministic reflection).
    """
    lam = np.asarray(lam, dtype=float)
    c = np.expm1(lam * LN2)
    m = np.asarray(h_s, dtype=float) + mu
    if rho_bar == 0.0:
        out = np.broadcast_arrays(c, m, np.asarray(sigma, dtype=float))[0]
        return float(out) if out.ndim == 0 else out.copy()
    sigma = np.asarray(sigma, dtype=float)
    safe = np.where(sigma > 0.0, sigma, 1.0)
    b = np.sqrt(c / rho_bar)
    z = (b - m) / safe
    zs = z / SQRT2
    floor_part = 0.5 * c * (special.erf(mu / (SQRT2 * safe)) + special.erf(zs))
    edge_part = rho_bar * safe * (m + b) * np.exp(-0.5 * z * z) * _INV_SQRT_2PI
    tail_part = 0.5 * rho_bar * (m * m + safe * safe) * special.erfc(zs)
    smooth = floor_part + edge_part + tail_part
    out = np.where(sigma > 0.0, smooth, np.maximum(rho_bar * m * m, c))
    return float(out) if out.ndim == 0 else out


def _probe_value_raw(lam, h_s, mu, sigma, rho, tau1, tau2):
    om = effective_probe_snr(lam, h_s, mu, sigma, rho)
    return tau2 * np.log2(1.0 + om) - lam * tau1


def probe_value(lam, h_s, k, cfg: NetworkConfig):
    """Closed-form expected net value (bit*s/Hz) of probing the surface.

    Best of {stop on the boosted rate, give the channel back} with channel
    time priced at lam, for pair k observing direct magnitude h_s. Positive
    means probing beats releasing the channel. k may be an integer array
    that broadcasts with h_s.
    """
    tab = pair_tables(cfg)
    i = k - 1
    return _probe_value_raw(lam, h_s, tab.mu[i], tab.sigma[i], tab.rho,
                            cfg.tau_d - cfg.tau_m1, cfg.tau_d - cfg.tau_m2)


def probe_value_mc(lam, h_s, k: int, cfg: NetworkConfig, n_samples: int,
                   rng: np.random.Generator) -> MCEstimate:
    """Monte-Carlo probe value over exact cascaded draws (no Gaussian surrogate).

    Per draw: max((tau_d-tau_m2)*R_ris - lam*(tau_d-tau_m1), -lam*(tau_p+tau_c)).
    An oracle for the closed form, kept for tests.
    """
    rho = pair_tables(cfg).rho
    tau1 = cfg.tau_d - cfg.tau_m1
    tau2 = cfg.tau_d - cfg.tau_m2
    floor = -lam * (cfg.tau_p + cfg.tau_c)
    acc = 0.0
    acc2 = 0.0
    left = int(n_samples)
    while left > 0:
        m = min(_MC_CHUNK, left)
        x = draw_cascaded(rng, cfg, k, m).sum(axis=1)
        val = np.maximum(tau2 * np.log2(1.0 + rho * np.square(h_s + x)) - lam * tau1,
                         floor)
        acc += val.sum()
        acc2 += np.square(val).sum()
        left -= m
    n = int(n_samples)
    mean = acc / n
    var = max(acc2 / n - mean * mean, 0.0)
    return MCEstimate(mean, math.sqrt(var / n), n)


def _direct_value_term(lam: float, w, tau1: float):
    """tau1 * E[(log2(1+W) - lam)^+] for W ~ Exp(mean w), exact via E1."""
    c = snr_floor(lam)
    w = np.asarray(w, dtype=float)
    out = np.zeros_like(w)
    pos = w > 0.0
    if np.any(pos):
        wp = w[pos]
        out[pos] = tau1 * LOG2E * scaled_e1(1.0 / wp, (1.0 + c) / wp)
    return out


def _probe_worthy(lam: float, cfg: NetworkConfig) -> np.ndarray:
    """Pairs (0-based) for which probing can beat both alternatives at lam.

    Tested where the direct stop value crosses zero: if the probe value is
    not positive even there, it is dominated for every magnitude.
    """
    rho, _, mu, sigma, _, _ = pair_tables(cfg)
    lb_cross = np.atleast_1d(_probe_value_raw(
        lam, direct_cross(lam, rho), mu, sigma, rho,
        cfg.tau_d - cfg.tau_m1, cfg.tau_d - cfg.tau_m2))
    return np.flatnonzero(lb_cross > 0.0)


def _thresholds(lam: float, cfg: NetworkConfig, act: np.ndarray, steps: int):
    """Give-up and direct-stop magnitudes (zeta, eta) of the pairs `act`.

    zeta is where the probe value turns positive on [0, h_cross] (0 if it
    already is at h = 0); eta is where the direct stop value overtakes the
    probe value above h_cross, bracketed by doubling. Each root takes `steps`
    vector bisection steps.
    """
    rho, _, mu, sigma, _, _ = pair_tables(cfg)
    tau1 = cfg.tau_d - cfg.tau_m1
    tau2 = cfg.tau_d - cfg.tau_m2
    h_cross = direct_cross(lam, rho)
    n = act.size
    # both roots in one vector bisection, zeta's rows first, then eta's: one
    # probe-value evaluation per step serves both
    mu2, sig2 = np.tile(mu[act], 2), np.tile(sigma[act], 2)
    upper = np.arange(2 * n) >= n

    def gap(h):
        lb = _probe_value_raw(lam, h, mu2, sig2, rho, tau1, tau2)
        return np.where(upper, tau1 * (np.log2(1.0 + rho * h * h) - lam) - lb, lb)

    lo = np.concatenate([np.zeros(n), np.full(n, h_cross)])
    hi = np.concatenate([np.full(n, h_cross),
                         np.maximum(2.0 * h_cross, h_cross + 8.0 * (mu[act] + 6.0 * sigma[act]))])
    for _ in range(60):
        pending = upper & (gap(hi) <= 0.0)
        if not pending.any():
            break
        hi = np.where(pending, 2.0 * hi, hi)
    else:
        raise SolverError("direct value never overtakes the probe value")
    roots = vec_bisect(gap, lo, hi, steps)
    return np.where(gap(lo)[:n] >= 0.0, 0.0, roots[:n]), roots[n:]


def attempt_value(lam: float, cfg: NetworkConfig) -> float:
    """Mean best-action value of one resolved contention at time price lam.

    Averages max(direct stop value, probe value, 0) over the pair index and
    the direct fading law. Decomposed as an exact direct part (E1 closed
    form over the full tail) plus a probe correction supported only where
    probing beats both alternatives, so no truncation error enters.
    """
    lam = float(lam)
    rho, v, mu, sigma, _, _ = pair_tables(cfg)
    tau1 = cfg.tau_d - cfg.tau_m1
    tau2 = cfg.tau_d - cfg.tau_m2
    if rho == 0.0:
        return 0.0
    total = float(_direct_value_term(lam, rho * v, tau1).sum())
    h_cross = direct_cross(lam, rho)

    act = _probe_worthy(lam, cfg)
    if act.size:
        mu_a, sig_a, v_a = mu[act], sigma[act], v[act]
        # 18 steps suffice here: the roots only place panel edges
        zeta, eta = _thresholds(lam, cfg, act, 18)

        def integrand(rows, h):
            lb = _probe_value_raw(lam, h, mu_a[rows], sig_a[rows], rho, tau1, tau2)
            a_val = tau1 * (np.log2(1.0 + rho * h * h) - lam)
            return np.maximum(lb - np.maximum(a_val, 0.0), 0.0) * rayleigh_pdf(h, v_a[rows])

        # panel edges: the give-up and overtake roots, the floor crossing of
        # the Gaussian surrogate (h_cross - mu, width sigma), and h_cross
        t = h_cross - mu_a
        e1 = np.clip(t - 30.0 * sig_a, zeta, h_cross)
        e2 = np.clip(t + 30.0 * sig_a, zeta, h_cross)
        total += adaptive_panels(integrand, [zeta, e1, e2, np.full(act.size, h_cross), eta])
    return total / cfg.K


def throughput_residual(lam: float, cfg: NetworkConfig) -> float:
    """attempt_value(lam) - lam*tau_o: positive below lam*, negative above."""
    return attempt_value(lam, cfg) - lam * expected_contention_time(cfg)


def admissible_step_band(cfg: NetworkConfig, eps: float) -> tuple[float, float]:
    """Step sizes for which the fixed-point reference provably contracts."""
    if eps <= 0.0:
        raise SolverError("eps must be positive")
    tau_o = expected_contention_time(cfg)
    hi = (2.0 - eps) / (tau_o + cfg.tau_d - cfg.tau_m1)
    if hi < eps:
        raise SolverError(f"empty step band: eps={eps} exceeds upper end {hi:g}")
    return eps, hi


def solve_max_throughput(cfg: NetworkConfig) -> float:
    """Maximal long-run throughput lam*: root of attempt_value(lam) = lam*tau_o,
    to a precision relative to lam*. No branch of the value falls faster than
    the direct stop's tau_d - tau_m1 per unit lam."""
    return bracket_root(lambda lam: attempt_value(lam, cfg), expected_contention_time(cfg),
                        cfg.tau_d - cfg.tau_m1)


def solve_max_throughput_fixed_point(cfg: NetworkConfig, alpha: float | None = None,
                                     eps: float = 1e-3, tol: float = 1e-9,
                                     lam0: float = 0.0) -> float:
    """The paper's damped iteration lam <- lam + alpha*(attempt_value - lam*tau_o)
    to |residual| < tol, kept as a reference for tests. Steps inside
    admissible_step_band(cfg, eps) contract; alpha defaults to mid-band."""
    tau_o = expected_contention_time(cfg)
    band = admissible_step_band(cfg, eps)
    if alpha is None:
        alpha = 1.0 / (tau_o + cfg.tau_d - cfg.tau_m1)
    if not band[0] <= alpha <= band[1]:
        raise SolverError(f"step {alpha:g} outside admissible band [{band[0]:g}, {band[1]:g}]")
    lam = float(lam0)
    g = math.inf
    for _ in range(_FP_MAX_ITER):
        g = attempt_value(lam, cfg) - lam * tau_o
        if abs(g) < tol:
            return lam
        lam = max(lam + alpha * g, 0.0)
    raise SolverError(
        f"fixed point stalled after {_FP_MAX_ITER} iterations (residual {g:.3e}, tol {tol:g})")


def probe_worthy_pairs(cfg: NetworkConfig, lam_star: float) -> frozenset[int]:
    """Pairs (1-based) for which probing can beat both alternatives at lam*."""
    if pair_tables(cfg).rho == 0.0 or lam_star <= 0.0:
        return frozenset()
    return frozenset(int(i) + 1 for i in _probe_worthy(lam_star, cfg))


@dataclass
class ThresholdTable:
    """Everything the online decision rule needs, solved offline."""

    lambda_star: float
    kstar: frozenset[int]
    zeta: dict[int, float]
    eta: dict[int, float]
    config_hash: str


def build_threshold_table(cfg: NetworkConfig, lam_star: float | None = None) -> ThresholdTable:
    """Solve lam* (unless given) and all per-pair thresholds."""
    if lam_star is None:
        lam_star = solve_max_throughput(cfg)
    kstar = probe_worthy_pairs(cfg, lam_star)
    zeta: dict[int, float] = {}
    eta: dict[int, float] = {}
    if kstar:
        pairs = sorted(kstar)
        h_mid = direct_cross(lam_star, pair_tables(cfg).rho)
        # unlike attempt_value's 18 steps, 64 solve the roots to the last bits
        zs, es = _thresholds(lam_star, cfg, np.array(pairs) - 1, 64)
        for k, zk, ek in zip(pairs, zs.tolist(), es.tolist()):
            if not zk < h_mid < ek:
                raise SolverError(
                    f"pair {k}: thresholds out of order ({zk:g}, {h_mid:g}, {ek:g})")
            if abs(probe_value(lam_star, zk, k, cfg)) > 1e-10 and zk > 0.0:
                raise SolverError(f"pair {k}: give-up root residual too large")
            zeta[k] = zk
            eta[k] = ek
    return ThresholdTable(float(lam_star), kstar, zeta, eta, config_hash(cfg))


def serialize_threshold_table(table: ThresholdTable) -> str:
    """Flat key=value text; floats use shortest round-trip repr. An empty
    kstar is written as 'none'."""
    kstar = sorted(table.kstar)
    lines = ["# threshold table (solved offline)", "version = 1",
             f"config_hash = {table.config_hash}",
             f"lambda_star = {table.lambda_star!r}",
             "kstar = " + (",".join(str(k) for k in kstar) or "none")]
    for k in kstar:
        lines.append(f"zeta.{k} = {table.zeta[k]!r}")
        lines.append(f"eta.{k} = {table.eta[k]!r}")
    return "\n".join(lines) + "\n"


def parse_threshold_table(text: str) -> ThresholdTable:
    """Read a table written by serialize_threshold_table.

    The file comes from outside the program, so anything else is a
    ConfigError: another version, a missing, unknown or malformed field, a
    negative or non-finite number, or zeta_k >= eta_k. Whether the table fits
    a network (its hash, its pairs) is checked where the network is known.
    """
    fields = {key: raw for key, (_, raw) in read_key_values(text).items()}
    if fields.get("version") != "1":
        raise ConfigError(f"unsupported threshold table version {fields.get('version')!r}")
    try:
        digest, ks = fields["config_hash"], fields["kstar"]
        kstar = frozenset() if ks == "none" else frozenset(int(s) for s in ks.split(","))
        keys = ["lambda_star"] + [f"{z}.{k}" for k in sorted(kstar) for z in ("zeta", "eta")]
        num = {key: float(fields[key]) for key in keys}
    except KeyError as exc:
        raise ConfigError(f"threshold table missing field {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"threshold table: {exc}") from None
    unknown = sorted(set(fields) - {"version", "config_hash", "kstar", *keys})
    if unknown:
        raise ConfigError(f"threshold table has unknown fields {unknown}")
    lam = num["lambda_star"]
    zeta = {k: num[f"zeta.{k}"] for k in kstar}
    eta = {k: num[f"eta.{k}"] for k in kstar}
    bad = [f"{key} = {x!r}" for key, x in num.items() if not math.isfinite(x)]
    bad += [f"zeta.{k} >= eta.{k}" for k in sorted(kstar) if not zeta[k] < eta[k]]
    if lam < 0.0:
        bad.append("lambda_star < 0")
    if bad:
        raise ConfigError(f"threshold table out of range: {', '.join(bad)}")
    return ThresholdTable(lam, kstar, zeta, eta, digest)
