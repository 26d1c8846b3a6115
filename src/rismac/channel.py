"""Physical-layer model: link budget, geometry, fading draws, spectral rates.

Direct links fade Rayleigh with mean-square gain d^-alpha1. Each reflecting
element contributes the product of two independent Rayleigh magnitudes
(source->element and element->destination, mean-square d1^-alpha2 and
d2^-alpha2). Under per-element co-phasing the magnitudes add, so phases are
never materialized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .config import ConfigError, NetworkConfig
from .numerics import snr_floor


@dataclass(frozen=True)
class PairGeometry:
    """Distances (m) for one pair: direct, source->RIS, RIS->destination."""

    d: float
    d1: float
    d2: float


@dataclass(frozen=True)
class CascadedMoments:
    """Gaussian surrogate for the summed per-element cascaded magnitudes."""

    mu: float
    sigma: float


@dataclass(frozen=True)
class ChannelObservation:
    """What the destination has seen: direct magnitude, then optionally the
    per-element cascaded magnitudes once the RIS has been probed."""

    pair_index: int
    h_mag: float
    cascaded: np.ndarray | None = None


def linear_budget(cfg: NetworkConfig) -> float:
    """Pre-fading SNR scale pt*gt*gr*beta0/n0 applied to squared magnitudes."""
    return cfg.pt * cfg.gt * cfg.gr * cfg.beta0 / cfg.n0


def pair_geometry(cfg: NetworkConfig, k: int) -> PairGeometry:
    """Distances for pair k (1-based). Rejects coincident nodes."""
    if not 1 <= k <= cfg.K:
        raise ConfigError(f"pair index {k} outside 1..{cfg.K}")
    sx, sy = cfg.sources[k - 1]
    dx, dy = cfg.dests[k - 1]
    rx, ry = cfg.ris
    d = math.hypot(dx - sx, dy - sy)
    d1 = math.hypot(rx - sx, ry - sy)
    d2 = math.hypot(dx - rx, dy - ry)
    if d <= 0 or d1 <= 0 or d2 <= 0:
        raise ConfigError(f"pair {k}: zero-distance geometry")
    return PairGeometry(d, d1, d2)


def direct_mean_square(cfg: NetworkConfig, k: int) -> float:
    """E[|h|^2] = d^-alpha1 for pair k."""
    return pair_geometry(cfg, k).d ** -cfg.alpha1


def _rayleigh(rng: np.random.Generator, mean_square: float, size=None):
    # inverse-CDF draw: |h| = sqrt(-v ln U); -log1p(-U) is Exp(1) for U in [0,1)
    e = -np.log1p(-rng.random(size))
    return np.sqrt(mean_square * e)


def draw_direct(rng: np.random.Generator, cfg: NetworkConfig, k: int, n: int | None = None):
    """Direct fading magnitude(s) for pair k: scalar, or shape (n,)."""
    v = direct_mean_square(cfg, k)
    if n is None:
        return float(_rayleigh(rng, v))
    return _rayleigh(rng, v, n)


def draw_cascaded(rng: np.random.Generator, cfg: NetworkConfig, k: int, n: int | None = None):
    """Per-element cascaded magnitudes |f_m||g_m|: shape (M,), or (n, M)."""
    g = pair_geometry(cfg, k)
    v1 = g.d1 ** -cfg.alpha2
    v2 = g.d2 ** -cfg.alpha2
    shape = (cfg.M,) if n is None else (n, cfg.M)
    return _rayleigh(rng, v1, shape) * _rayleigh(rng, v2, shape)


def cascaded_moments(cfg: NetworkConfig, k: int) -> CascadedMoments:
    """Mean and standard deviation of sum_m |f_m||g_m| for pair k.

    Each factor is Rayleigh, so a single product has mean
    (pi/4) (d1 d2)^(-alpha2/2) and variance (1 - pi^2/16) (d1 d2)^-alpha2;
    the M-element sum scales both accordingly.
    """
    g = pair_geometry(cfg, k)
    a = cfg.alpha2
    mu = cfg.M * (math.pi / 4.0) * g.d1 ** (-a / 2) * g.d2 ** (-a / 2)
    var = cfg.M * (1.0 - math.pi**2 / 16.0) * g.d1**-a * g.d2**-a
    return CascadedMoments(mu, math.sqrt(var))


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
    """Every pair's fading laws in one table, computed once per config."""
    geos = [pair_geometry(cfg, k) for k in range(1, cfg.K + 1)]
    moms = [cascaded_moments(cfg, k) for k in range(1, cfg.K + 1)]
    cols = (np.array([g.d ** -cfg.alpha1 for g in geos]),
            np.array([m.mu for m in moms]),
            np.array([m.sigma for m in moms]),
            np.array([g.d1 ** -cfg.alpha2 for g in geos]),
            np.array([g.d2 ** -cfg.alpha2 for g in geos]))
    for col in cols:
        col.flags.writeable = False
    return PairTables(linear_budget(cfg), *cols)


def direct_cross(lam: float, rho_bar: float) -> float:
    """Direct magnitude whose rate equals lam (inverse of rate_direct)."""
    return math.sqrt(snr_floor(lam) / rho_bar)


def rate_direct(rho_bar: float, h_mag):
    """Spectral rate of the direct link, bits/s/Hz."""
    return np.log2(1.0 + rho_bar * np.square(h_mag))


def rate_ris(rho_bar: float, h_mag, cascaded):
    """Spectral rate with the surface co-phased: magnitudes add coherently."""
    casc = np.asarray(cascaded, dtype=float)
    total = h_mag + (casc.sum(axis=-1) if casc.size else 0.0)
    return np.log2(1.0 + rho_bar * np.square(total))
