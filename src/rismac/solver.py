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

The probe value has a closed form: under a Gaussian surrogate X for the
summed cascaded magnitudes, the post-probe SNR credited to the pair is
E[max(rho*(h+X)^2, 2^lam - 1)] (worse draws fall back to the continue
branch), one erfc and a Gaussian density; its log2 is Jensen's bound on the
mean rate. probe_form(lam, cfg) binds it to one price: the terms that depend
only on lam or only on the pair are built once, so that the threshold
multisection (pair_thresholds), attempt_value and probe_value evaluate only
the terms in h.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import special

from .channel import (direct_cross, draw_cascaded, pair_row, pair_tables, rate_direct,
                      rayleigh_pdf, surface_pdf)
from .config import ConfigError, NetworkConfig, config_hash, read_key_values
from .contention import expected_contention_time, winner_weights
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
_FLOAT_MAX = sys.float_info.max
_MC_CHUNK = 1 << 16  # cascaded draws per Monte-Carlo batch
_FP_MAX_ITER = 500_000  # steps before the fixed-point reference gives up
_DOUBLINGS = 8  # doublings of eta's upper end one evaluation tries
_POW2 = 2.0 ** np.arange(_DOUBLINGS)[:, None]


class MCEstimate(NamedTuple):
    mean: float
    stderr: float
    n: int


def _snr_form(lam, mu, sigma, rho_bar):
    """effective_probe_snr with its terms in lam alone or in (mu, sigma)
    alone built once: snr(h, rows) evaluates the rest at direct magnitude h,
    for the entries `rows` of mu and sigma (all of them if None), and returns
    it with its slope in c = 2^lam - 1, the floor probability. One erfc per
    evaluation serves both: P(h + X < b) is 1 - erfc / 2, b = sqrt(c / rho).
    When every sigma > 0 the pointwise-max branch is skipped; its result
    would be the same to the bit."""
    c = np.expm1(np.asarray(lam, dtype=float) * LN2)
    b, half_rho = np.sqrt(c / rho_bar), 0.5 * rho_bar
    mu, sigma = np.asarray(mu, dtype=float), np.asarray(sigma, dtype=float)
    smooth = bool(np.all(sigma > 0.0))
    safe = np.where(sigma > 0.0, sigma, 1.0)
    terms = (mu, sigma, safe, rho_bar * safe, safe * safe)

    def snr(h, rows=None):
        mu, sigma, safe, rho_safe, safe2 = terms if rows is None else [x[rows] for x in terms]
        m = h + mu
        z = (b - m) / safe
        erfc_z = special.erfc(z / SQRT2)
        floor_p = 1.0 - 0.5 * erfc_z  # the slope in c: P(h + X < b)
        edge_part = rho_safe * (m + b) * np.exp(-0.5 * z * z) * _INV_SQRT_2PI
        tail_part = half_rho * (m * m + safe2) * erfc_z
        out = c * floor_p + edge_part + tail_part
        if smooth:
            return out, floor_p
        point = rho_bar * m * m  # sigma == 0: the pointwise max
        return (np.where(sigma > 0.0, out, np.maximum(point, c)),
                np.where(sigma > 0.0, floor_p, point < c))

    return snr


def effective_probe_snr(lam, h_s, mu, sigma, rho_bar):
    """E[max(rho_bar*(h_s+X)^2, 2^lam - 1)] for X ~ Normal(mu, sigma^2).

    The SNR a probe is credited with when rates below lam are never used, the
    floor on all of h_s + X < b (the far tail below -b too); only lambda* and
    the thresholds use it. Closed form; broadcasts over its arguments. sigma
    == 0 degenerates to the pointwise max (no surface, or a single
    deterministic reflection).
    """
    out = _snr_form(lam, mu, sigma, rho_bar)(np.asarray(h_s, dtype=float))[0]
    return float(out) if out.ndim == 0 else out


def probe_form(lam, cfg: NetworkConfig):
    """The closed-form probe value at price lam, bound once for config cfg:
    pv(h, rows) is probe_value(lam, h, rows + 1, cfg), rows being 0-based
    pair indices that broadcast with h (every pair if None); with slope=True
    it is stacked on its exact lam-slope, tau2 2^lam P(floor) / (1 + snr) -
    tau1. Only the terms in h are evaluated per call, so multisection batches
    and quadrature rounds share the rest."""
    tab = pair_tables(cfg)
    snr = _snr_form(lam, tab.mu, tab.sigma, tab.rho)
    tau1, tau2, lam_tau1 = cfg.tau1, cfg.tau2, lam * cfg.tau1

    def pv(h, rows=None, slope=False):
        s, floor_p = snr(h, rows)
        # log1p: at -60 dBm snr is about 3e-7, and 1 + snr rounds off 4e-10 of the rate
        value = tau2 * (np.log1p(s) * LOG2E) - lam_tau1
        if not slope:
            return value
        return np.array((value, tau2 * 2.0 ** lam * floor_p / (1.0 + s) - tau1))

    return pv


def probe_value(lam, h_s, k, cfg: NetworkConfig):
    """Closed-form expected net value (bit*s/Hz) of probing the surface.

    Best of {stop on the boosted rate, give the channel back} with channel
    time priced at lam, for pair k observing direct magnitude h_s. Positive
    means probing beats releasing the channel. k may be an integer array
    that broadcasts with h_s; an index outside 1..K raises ConfigError.
    """
    return probe_form(lam, cfg)(h_s, pair_row(k, cfg.K))


def probe_value_mc(lam, h_s, k: int, cfg: NetworkConfig, n_samples: int,
                   rng: np.random.Generator) -> MCEstimate:
    """Monte-Carlo probe value over exact cascaded draws (no Gaussian surrogate).

    Per draw: max((tau_d-tau_m2)*R_ris - lam*(tau_d-tau_m1), -lam*(tau_p+tau_c)).
    An oracle for the closed form, kept for tests.
    """
    rho = pair_tables(cfg).rho
    floor = -lam * cfg.tau_pc
    acc = 0.0
    acc2 = 0.0
    left = int(n_samples)
    while left > 0:
        m = min(_MC_CHUNK, left)
        x = draw_cascaded(rng, cfg, k, m).sum(axis=1)
        val = np.maximum(cfg.tau2 * rate_direct(rho, h_s + x) - lam * cfg.tau1, floor)
        acc += val.sum()
        acc2 += np.square(val).sum()
        left -= m
    n = int(n_samples)
    mean = acc / n
    var = max(acc2 / n - mean * mean, 0.0)
    return MCEstimate(mean, math.sqrt(var / n), n)


def direct_branch(lam: float, scale, weights, tau1: float) -> np.ndarray:
    """The direct branch weighted over the pairs, sum_k weights_k tau1
    E[(log2(1+W_k) - lam)^+] for W_k ~ Exp(mean scale_k), exact via E1, stacked
    on its lam-slope -tau1 sum_k weights_k P(W_k > 2^lam - 1). At lam = 0 the
    value is the mean direct bits of one transmission."""
    c = snr_floor(lam)
    w = np.asarray(scale, dtype=float)
    # (1 + c) / w past float-max would overflow to inf, and both terms are 0
    # for it either way: cap w from below where that happens, and only there
    capped = np.maximum(w, (1.0 + c) / _FLOAT_MAX)
    return np.array([float(weights @ (tau1 * LOG2E * scaled_e1(1.0 / w, (1.0 + c) / capped))),
                     -tau1 * float(weights @ np.exp(-c / capped))])


def pair_thresholds(lam: float, cfg: NetworkConfig, pv, steps: int):
    """Every pair's give-up and direct-stop magnitudes (zeta, eta) at lam, as
    K-length arrays; zeta = eta = h_cross where probing is dominated. pv is
    probe_form(lam, cfg), which the caller evaluates again.

    Probing is dominated when the probe value is not positive even where the
    direct stop value crosses zero. Elsewhere zeta is where the probe value
    turns positive on [0, h_cross] (0 if it already is at h = 0), and eta is
    where the direct stop value overtakes the probe value above h_cross,
    bracketed by doubling. Each root takes `steps` halvings of its bracket
    (numerics.vec_bisect's multisection, which keeps a grid's first sign
    change). One evaluation of pv over all K pairs makes the three set-up
    probes: the probe-worthy test at h_cross, the give-up test at h = 0 and
    the first _DOUBLINGS doublings of eta's upper end; the multisection then
    takes one per numerics.BISECT_DEPTH halvings, so a solve is 1 + ceil(steps
    / BISECT_DEPTH) evaluations where no upper end needs more doublings. It
    runs over every pair's zeta and eta columns, an unsolved one (a dominated
    pair's, or the zeta of a pair that gives up) on an empty bracket.
    """
    rho, _, mu, sigma, _, _ = pair_tables(cfg)
    h_cross = direct_cross(lam, rho)
    tau1 = cfg.tau1

    def lead(h, p):
        # the direct stop value's lead over probe value p at h
        return tau1 * (np.log2(1.0 + rho * h * h) - lam) - p

    # eta's upper end: the first hi * 2^j, j < 60, where the direct stop
    # value leads, as doubling once per evaluation finds it; one evaluation
    # tries the next _DOUBLINGS values of j on the rows not yet led
    hi = np.maximum(2.0 * h_cross, h_cross + 8.0 * (mu + 6.0 * sigma))
    h = np.empty((2 + _DOUBLINGS, cfg.K))
    h[0], h[1], h[2:] = h_cross, 0.0, hi * _POW2
    p = pv(h)
    worthy = p[0] > 0.0
    if not worthy.any():
        return np.full(cfg.K, h_cross), np.full(cfg.K, h_cross)
    gives_up = worthy & (p[1] >= 0.0)
    todo = np.flatnonzero(worthy)
    h, p = h[2:, todo], p[2:, todo]
    for j in range(0, 60, _DOUBLINGS):
        if j:
            h = hi[todo] * _POW2[:min(_DOUBLINGS, 60 - j)]
            p = pv(h, todo)
        led = ~(lead(h, p) <= 0.0)
        first, done = led.argmax(axis=0), led.any(axis=0)
        hi[todo] = np.where(done, h[first, np.arange(todo.size)], 2.0 * h[-1])
        todo = todo[~done]
        if todo.size == 0:
            break
    else:
        raise SolverError("direct value never overtakes the probe value")

    def gap(h):
        # both roots in one multisection, zeta's columns first, then eta's:
        # the probe value on zeta's, the direct stop value's lead on eta's
        out = pv(h.reshape(-1, 2, cfg.K))
        out[:, 1] = lead(h[:, cfg.K:], out[:, 1])
        return out.reshape(h.shape)

    # zeta on [0, h_cross] and eta on [h_cross, hi]; an unsolved column
    # keeps the empty bracket at h_cross
    lo = np.array((np.where(worthy & ~gives_up, 0.0, h_cross), np.full(cfg.K, h_cross)))
    up = np.array((np.full(cfg.K, h_cross), np.where(worthy, hi, h_cross)))
    found = vec_bisect(gap, lo.ravel(), up.ravel(), steps).reshape(2, cfg.K)
    return np.where(gives_up, 0.0, found[0]), found[1]


def fading_average(cfg: NetworkConfig, f, edges, surface: bool = False) -> float:
    """sum_k w_k E[f(k, y_k)], w the winner law (contention.winner_weights),
    y_k the direct magnitude h_k or with surface h_k + X_k: the one integral
    behind every model value. f(rows, y) is the vectorized integrand (rows:
    0-based pairs), edges the pairs' panel edges as one (n_edges, K) array;
    zero-width panels are skipped. One clip cuts every edge to the law's
    support less a tail mass below 1e-14, [0, sqrt(v ln 1e14)] for h, [mu - 8
    sigma, mu + 8 sigma + sqrt(v ln 1e15)] for h + X: a panel far past it
    blinds both Gauss orders."""
    _, v, mu, sigma, _, _ = pair_tables(cfg)
    w = winner_weights(cfg.p)
    if surface:
        pdf, law, lo, hi = (surface_pdf, (v, mu, sigma), mu - 8.0 * sigma,
                            mu + 8.0 * sigma + np.sqrt(v * math.log(1e15)))
    else:
        pdf, law, lo, hi = rayleigh_pdf, (v,), 0.0, np.sqrt(v * math.log(1e14))

    def weighted(rows, y):
        return pdf(y, *(a[rows] for a in law), w[rows] * f(rows, y))

    return adaptive_panels(weighted, np.clip(edges, lo, hi))


def attempt_value(lam: float, cfg: NetworkConfig) -> float:
    """Mean best-action value of one resolved contention at time price lam.

    Averages max(direct stop value, probe value, 0) over the winning pair,
    weighted by contention.winner_weights, and the direct fading law.
    Decomposed as an exact direct part (E1 closed form over the full tail)
    plus a probe correction, a fading_average supported only where probing
    beats both alternatives: between zeta and eta, an empty panel for a pair
    whose probing is dominated.
    """
    return attempt_value_and_slope(lam, cfg)[0]


def attempt_value_and_slope(lam: float, cfg: NetworkConfig) -> tuple[float, float]:
    """attempt_value at lam and its exact lam-slope, from the same integral:
    the slope row is each branch's own slope where that branch is best, on
    the value's nodes and panels (envelope theorem)."""
    lam = float(lam)
    rho, v = pair_tables(cfg)[:2]
    tau1 = cfg.tau1
    total = direct_branch(lam, rho * v, winner_weights(cfg.p), tau1)
    h_cross = direct_cross(lam, rho)
    pv = probe_form(lam, cfg)
    # 18 steps' width suffices here: the roots only place panel edges
    zeta, eta = pair_thresholds(lam, cfg, pv, 18)
    if (zeta < eta).any():  # else no pair is probe-worthy: the probe correction is 0

        def gain(rows, h):
            a_val = tau1 * (np.log2(1.0 + rho * h * h) - lam)
            p, dp = pv(h, rows, slope=True)
            g = np.maximum(p - np.maximum(a_val, 0.0), 0.0)
            # above h_cross the gain is over the direct stop, whose slope is -tau1
            return np.array((g, np.where(g > 0.0, dp + tau1 * (a_val > 0.0), 0.0)))

        # panel edges: the give-up and overtake roots, and h_cross
        total = total + fading_average(cfg, gain, np.array((zeta, np.full(cfg.K, h_cross), eta)))
    return float(total[0]), float(total[1])


def throughput_residual(lam: float, cfg: NetworkConfig) -> float:
    """attempt_value(lam) - lam*tau_o: positive below lam*, negative above."""
    return attempt_value(lam, cfg) - lam * expected_contention_time(cfg)


def admissible_step_band(cfg: NetworkConfig, eps: float) -> tuple[float, float]:
    """Step sizes for which the fixed-point reference provably contracts."""
    if eps <= 0.0:
        raise SolverError("eps must be positive")
    tau_o = expected_contention_time(cfg)
    hi = (2.0 - eps) / (tau_o + cfg.tau1)
    if hi < eps:
        raise SolverError(f"empty step band: eps={eps} exceeds upper end {hi:g}")
    return eps, hi


def solve_max_throughput(cfg: NetworkConfig) -> float:
    """Maximal long-run throughput lam*: root of attempt_value(lam) = lam*tau_o,
    to a precision relative to lam*. attempt_value is convex in lam (each
    branch is, and max and expectation keep it), so bracket_root's Newton
    steps from below stay below lam*; its curvature steps, on the secant of
    two slopes, close the gap in fewer value calls."""
    return bracket_root(lambda lam: attempt_value_and_slope(lam, cfg),
                        expected_contention_time(cfg))


def solve_max_throughput_fixed_point(cfg: NetworkConfig, alpha: float | None = None,
                                     eps: float = 1e-3, tol: float = 1e-9,
                                     lam0: float = 0.0) -> float:
    """The paper's damped iteration lam <- lam + alpha*(attempt_value - lam*tau_o)
    to |residual| < tol, kept as a reference for tests. Steps inside
    admissible_step_band(cfg, eps) contract; alpha defaults to mid-band."""
    tau_o = expected_contention_time(cfg)
    band = admissible_step_band(cfg, eps)
    if alpha is None:
        alpha = 1.0 / (tau_o + cfg.tau1)
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
    pv = probe_form(lam_star, cfg)
    # unlike attempt_value's 18 steps, 64 solve the roots to the last bits
    zs, es = pair_thresholds(lam_star, cfg, pv, 64)
    h_mid = direct_cross(lam_star, pair_tables(cfg).rho)
    # at lam* = 0 nothing is worth pricing: every pair transmits directly
    kstar = frozenset(int(i) + 1 for i in np.flatnonzero(zs < es) if lam_star > 0.0)
    zeta: dict[int, float] = {}
    eta: dict[int, float] = {}
    for k in sorted(kstar):
        zk, ek = float(zs[k - 1]), float(es[k - 1])
        if not zk < h_mid < ek:
            raise SolverError(f"pair {k}: thresholds out of order ({zk:g}, {h_mid:g}, {ek:g})")
        if abs(pv(zk, k - 1)) > 1e-10 and zk > 0.0:
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
    a network (its hash, its pairs) is checked by strategies.make_policy.
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
    zeta = {k: num[f"zeta.{k}"] for k in kstar}
    eta = {k: num[f"eta.{k}"] for k in kstar}
    bad = [f"{key} = {x!r}" for key, x in num.items() if not math.isfinite(x) or x < 0.0]
    bad += [f"zeta.{k} >= eta.{k}" for k in sorted(kstar) if not zeta[k] < eta[k]]
    if bad:
        raise ConfigError(f"threshold table out of range: {', '.join(bad)}")
    return ThresholdTable(num["lambda_star"], kstar, zeta, eta, digest)
