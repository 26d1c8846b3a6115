"""Physical-layer model: link budget, geometry, fading draws, spectral rates.

Direct links fade Rayleigh with mean-square gain d^-alpha1. Each reflecting
element contributes the product of two independent Rayleigh magnitudes
(source->element and element->destination, mean-square d1^-alpha2 and
d2^-alpha2). Under per-element co-phasing the magnitudes add, so phases are
never materialized.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy import special

from .config import ConfigError, NetworkConfig
from .numerics import SQRT2, snr_floor


CASCADE_TILE = 1 << 16  # elements per tile of cascaded_sums
_W_MIN = 1.0 / sys.float_info.max  # 1 / w overflows for a direct SNR scale w at or below it


def linear_budget(cfg: NetworkConfig) -> float:
    """Pre-fading SNR scale pt*gt*gr*beta0/n0 applied to squared magnitudes."""
    return cfg.pt * cfg.gt * cfg.gr * cfg.beta0 / cfg.n0


def rayleigh(rng: np.random.Generator, mean_square, size=None, floor=0.0):
    """Rayleigh magnitudes with E[|h|^2] = mean_square (broadcast against size),
    conditioned on exceeding floor >= 0: |h|^2 is exponential and so
    memoryless, and past floor^2 it is floor^2 plus a fresh exponential.
    A zero floor adds 0.0, which leaves every draw unchanged."""
    # |h|^2 / v is Exp(1), drawn by numpy's ziggurat (Marsaglia and Tsang 2000)
    return np.sqrt(np.square(floor) + mean_square * rng.standard_exponential(size))


def rayleigh_pdf(h, mean_square, weight=1.0):
    """Density of the Rayleigh magnitude h with E[|h|^2] = mean_square, times
    weight. The weight is applied first, as weight * (2 h / v) * exp(-h^2 / v)
    left to right, which is how a weighted integrand rounds its product."""
    return weight * (2.0 * h / mean_square) * np.exp(-h * h / mean_square)


def surface_pdf(y, mean_square, mu, sigma, weight=1.0):
    """Density of y = h + X, times weight: h Rayleigh with E[|h|^2] = v, X ~
    Normal(mu, sigma^2) independent of it. With m = y - mu, d = 2 sigma^2 + v
    and r = sqrt(v / d), completing the square in h gives (sqrt(2/pi) sigma
    exp(-m^2/(2 sigma^2)) + m r exp(-m^2/d) erfc(-m r/(sigma sqrt 2))) / d.
    Where sigma = 0 the law is rayleigh_pdf shifted by mu, evaluated on
    those entries alone."""
    m, surface = y - mu, sigma > 0.0
    safe = np.where(surface, sigma, 1.0)
    d = 2.0 * safe * safe + mean_square
    r = np.sqrt(mean_square / d)
    out = weight / d * (math.sqrt(2.0 / math.pi) * safe * np.exp(-0.5 * np.square(m / safe))
                        + m * r * np.exp(-m * m / d) * special.erfc(-m * r / (SQRT2 * safe)))
    if np.all(surface):
        return out
    out = np.asarray(out)
    flat = np.broadcast_to(np.logical_not(surface), out.shape)
    m, v, w = (np.broadcast_to(a, out.shape)[flat] for a in (m, mean_square, weight))
    out[flat] = rayleigh_pdf(np.maximum(m, 0.0), v, w)
    return out


def rayleigh_cdf(h, mean_square):
    """P(|h'| <= h) for the Rayleigh magnitude h' with E[|h'|^2] = mean_square:
    1 - exp(-max(h, 0)^2 / v), zero for every h <= 0. A ratio past the float
    range is inf, whose probability is 1: a zeta far above a weak pair's law."""
    with np.errstate(over="ignore"):
        return -np.expm1(-np.square(np.maximum(h, 0.0)) / mean_square)


class PairTables(NamedTuple):
    """Link budget and per-pair laws, as read-only arrays indexed by pair - 1."""

    rho: float          # linear_budget
    v: np.ndarray       # direct mean-square gain d^-alpha1
    mu: np.ndarray      # cascaded surrogate mean
    sigma: np.ndarray   # cascaded surrogate standard deviation
    ms1: np.ndarray     # source->element leg mean-square d1^-alpha2
    ms2: np.ndarray     # element->destination leg mean-square d2^-alpha2


@lru_cache(maxsize=128)
def pair_tables(cfg: NetworkConfig) -> PairTables:
    """Every pair's fading laws in one table, computed once per config.

    d, d1 and d2 are the direct, source->RIS and RIS->destination distances.
    Each cascaded factor is Rayleigh, so a single product |f_m||g_m| has mean
    (pi/4) (d1 d2)^(-alpha2/2) and variance (1 - pi^2/16) (d1 d2)^-alpha2;
    the M-element sum scales both accordingly. Rejects coincident nodes, gains
    past the float range and a direct SNR scale rho * d^-alpha1 so small that
    its reciprocal overflows (a zero link budget included).
    """
    rho = linear_budget(cfg)
    if not math.isfinite(rho):
        raise ConfigError(f"link budget pt*gt*gr*beta0/n0 = {rho} is past the float range")
    a = cfg.alpha2
    rx, ry = cfg.ris
    rows = []
    for k, ((sx, sy), (dx, dy)) in enumerate(zip(cfg.sources, cfg.dests), start=1):
        d = math.hypot(dx - sx, dy - sy)
        d1 = math.hypot(rx - sx, ry - sy)
        d2 = math.hypot(dx - rx, dy - ry)
        if d <= 0 or d1 <= 0 or d2 <= 0:
            raise ConfigError(f"pair {k}: zero-distance geometry")
        try:
            ms1, ms2 = d1 ** -a, d2 ** -a
            row = (d ** -cfg.alpha1,
                   cfg.M * (math.pi / 4.0) * d1 ** (-a / 2) * d2 ** (-a / 2),
                   math.sqrt(cfg.M * (1.0 - math.pi**2 / 16.0) * ms1 * ms2),
                   ms1, ms2)
        except OverflowError:
            row = (math.inf,)
        if not all(map(math.isfinite, row)):
            raise ConfigError(f"pair {k}: a path gain is past the float range")
        if rho * row[0] <= _W_MIN:
            raise ConfigError(f"pair {k}: direct mean-square gain d^-alpha1 = {row[0]:g} times "
                              f"the link budget {rho:g} underflows below 1/float-max")
        rows.append(row)
    cols = [np.array(col) for col in zip(*rows)]
    for col in cols:
        col.flags.writeable = False
    return PairTables(rho, *cols)


def _row(cfg: NetworkConfig, k: int) -> int:
    if not 1 <= k <= cfg.K:
        raise ConfigError(f"pair index {k} outside 1..{cfg.K}")
    return k - 1


def draw_direct(rng: np.random.Generator, cfg: NetworkConfig, k: int, n: int | None = None):
    """Direct fading magnitude(s) for pair k: scalar, or shape (n,)."""
    v = pair_tables(cfg).v[_row(cfg, k)]
    if n is None:
        return float(rayleigh(rng, v))
    return rayleigh(rng, v, n)


def draw_cascaded(rng: np.random.Generator, cfg: NetworkConfig, k: int, n: int | None = None):
    """Per-element cascaded magnitudes |f_m||g_m|: shape (M,), or (n, M).

    The per-element oracle: each leg is its own Rayleigh draw, as the model
    states it. The engine draws the row sums through cascaded_sums instead.
    """
    tab = pair_tables(cfg)
    i = _row(cfg, k)
    shape = (cfg.M,) if n is None else (n, cfg.M)
    return rayleigh(rng, tab.ms1[i], shape) * rayleigh(rng, tab.ms2[i], shape)


def _exp_legs(k, out):
    """Exp(1) legs -log u of 32-bit words k, written to the float32 out:
    u = (k + 1/2) 2^-32 in float32 lies in (0, 1], so every leg is finite and
    at least 0 (at most 22.87, at k = 0)."""
    np.add(k, 0.5, out=out, dtype=np.float32, casting="unsafe")
    out *= 2.0 ** -32
    np.log(out, out=out)
    return np.negative(out, out=out)


def cascaded_sums(rng: np.random.Generator, ms1, ms2, m: int) -> np.ndarray:
    """Each row's sum over m elements of |f_m||g_m|, legs with mean squares
    ms1[i] and ms2[i]: the law of draw_cascaded(...).sum(axis=1).

    sqrt(ms1 E1) sqrt(ms2 E2) = sqrt(ms1 ms2) sqrt(E1 E2) with E1, E2 ~ Exp(1),
    so each element costs one sqrt and the row's scale is applied once, after
    the sum. Each element takes one raw generator word, whose two 32-bit
    halves give E1 and E2 through _exp_legs; the legs, their product and its
    sqrt are float32 and each row is summed in float64. Over all 2^32 halves
    the leg's mean is 1 + 3.5e-9 and its sqrt's mean sqrt(pi)/2 (1 + 1.8e-9).
    Rows are drawn in tiles of about CASCADE_TILE elements into one reused
    leg buffer, so memory stays flat in the number of rows.
    """
    scale = np.sqrt(np.multiply(ms1, ms2, dtype=float))
    out = np.zeros(scale.shape)
    n = out.size
    if n == 0 or m == 0:
        return out
    rows = min(n, max(1, CASCADE_TILE // m))
    legs = np.empty((rows, m, 2), dtype=np.float32)
    for lo in range(0, n, rows):
        r = min(rows, n - lo)
        words = rng.bit_generator.random_raw(r * m).view(np.uint32).reshape(r, m, 2)
        e = _exp_legs(words, legs[:r])
        prod = np.multiply(e[..., 0], e[..., 1], out=e[..., 0])
        np.sqrt(prod, out=prod)
        prod.sum(axis=1, dtype=np.float64, out=out[lo:lo + r])
    out *= scale
    return out


def direct_cross(lam: float, rho_bar: float) -> float:
    """Direct magnitude whose rate equals lam (inverse of rate_direct)."""
    return math.sqrt(snr_floor(lam) / rho_bar)


def rate_direct(rho_bar: float, h_mag):
    """Spectral rate log2(1 + rho_bar h^2), bits/s/Hz, of magnitude h: the direct
    link's, or with the surface co-phased, h plus the cascaded magnitudes."""
    return np.log2(1.0 + rho_bar * np.square(h_mag))
