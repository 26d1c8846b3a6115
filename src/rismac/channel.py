"""Physical-layer model: link budget, geometry, fading draws, spectral rates.

Direct links fade Rayleigh with mean-square gain d^-alpha1. Each reflecting
element contributes the product of two independent Rayleigh magnitudes
(source->element and element->destination, mean-square d1^-alpha2 and
d2^-alpha2). Under per-element co-phasing the magnitudes add, so phases are
never materialized. A pair's M-element sum is sqrt(ms1 ms2) times one law
S_M, the sum of M unit double-Rayleigh magnitudes, which cascaded_law
tabulates once per M; draw_cascaded keeps the per-element draw as its oracle.
"""

from __future__ import annotations

import itertools
import math
import sys
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy import special

from .config import ConfigError, NetworkConfig
from .numerics import SQRT2, guide_lookup, guide_table, snr_floor


LAW_CELLS = 1 << 16  # cells of cascaded_law's CDF table, and of its guide table
_LAW_TAIL = math.log(1e16)  # the law's window leaves out at most e^-_LAW_TAIL at each end
_LAW_EPS = 1e-8  # bound on the CDF error from the frequencies the inversion drops
_LAW_BLOCK = LAW_CELLS // 8  # frequencies evaluated at a time
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


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


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
    return PairTables(rho, *(_frozen(np.array(col)) for col in zip(*rows)))


def pair_row(k, n_pairs: int):
    """k - 1, the 0-based row of pair index k (an int or an integer array)
    among n_pairs pairs; an index outside 1..n_pairs raises ConfigError."""
    ks = np.asarray(k)
    if ((ks < 1) | (ks > n_pairs)).any():
        raise ConfigError(f"pair index {k} outside 1..{n_pairs}")
    return k - 1


def draw_direct(rng: np.random.Generator, cfg: NetworkConfig, k: int, n: int | None = None):
    """Direct fading magnitude(s) for pair k: scalar, or shape (n,)."""
    v = pair_tables(cfg).v[pair_row(k, cfg.K)]
    if n is None:
        return float(rayleigh(rng, v))
    return rayleigh(rng, v, n)


def draw_cascaded(rng: np.random.Generator, cfg: NetworkConfig, k: int, n: int | None = None):
    """Per-element cascaded magnitudes |f_m||g_m|: shape (M,), or (n, M).

    The per-element oracle: each leg is its own Rayleigh draw, as the model
    states it. The engine draws the row sums through cascaded_sums instead.
    """
    tab = pair_tables(cfg)
    i = pair_row(k, cfg.K)
    shape = (cfg.M,) if n is None else (n, cfg.M)
    return rayleigh(rng, tab.ms1[i], shape) * rayleigh(rng, tab.ms2[i], shape)


def _z_mgf(s):
    """E[exp(s Z)] for real -2 < s < 2, and Z's characteristic function at
    s = i t, Z = sqrt(E1 E2) with E1, E2 ~ Exp(1): Z has density 4 z K0(2 z)
    (Salo, El-Sallabi and Vainikainen 2006), whose Laplace transform is
    4/d + 4 s arccos(-s/2) / d^(3/2) with d = 4 - s^2."""
    d = 4.0 - s * s
    return (4.0 + 4.0 * s * np.arccos(-0.5 * s) / np.sqrt(d)) / d


class CascadedLaw(NamedTuple):
    """S_M, the sum of m i.i.d. Z = sqrt(E1 E2), as a CDF table: F at the nodes
    lo + j step, j = 0..LAW_CELLS, linear between them (uniform within a cell).
    cdf and guide are a numerics.GuideTable's, so numerics.guide_lookup reads
    the law as it is. m = 0 is the point mass at 0, one cell wide with step 0."""

    m: int
    lo: float
    step: float
    cdf: np.ndarray    # read-only, 0 at the first node and 1 at the last
    guide: np.ndarray  # read-only int32


@lru_cache(maxsize=8)
def cascaded_law(m: int) -> CascadedLaw:
    """S_M's law, built the first time it is asked for at each m.

    The window [lo, hi] holds all but e^-_LAW_TAIL of the mass at each end, by
    Chernoff's bound P(S >= x) <= E[e^{sZ}]^m e^{-s x} (s > 0; s < 0 for the
    left end, cut at 0). On it, F is the Fourier series of the periodized
    density (Abate and Whitt 1995): with t_k = 2 pi k / w, w = hi - lo, and
    g_k = E[e^{i t_k Z}]^m e^{-i t_k lo} / (-i t_k),
    F(lo + j w / n) = j / n + (2 / w) Re sum_{k >= 1} g_k (e^{-2 pi i k j / n} - 1),
    one FFT over the g_k folded mod n. |g_k| falls as k^-(2m+1) (log factors
    aside), so the terms past K move F by at most (2 / w) K |g_K| = t_K |g_K| / pi;
    frequencies are added _LAW_BLOCK at a time until that is below _LAW_EPS:
    one block from m = 2 on, 15 at m = 1. Rounding is then made monotone.
    """
    if m == 0:
        return CascadedLaw(0, 0.0, 0.0, *guide_table(np.array([0.0, 1.0]), 1))
    s = np.linspace(0.01, 1.99, 199)
    hi = float(np.min((m * np.log(_z_mgf(s)) + _LAW_TAIL) / s))
    lo = max(0.0, float(np.max((m * np.log(_z_mgf(-s)) + _LAW_TAIL) / -s)))
    n, w = LAW_CELLS, hi - lo
    bins = np.zeros(n, dtype=complex)  # bins[j] sums the g_k with k = j mod n
    for first in itertools.count(1, _LAW_BLOCK):
        k = np.arange(first, first + _LAW_BLOCK)
        t = (2.0 * math.pi / w) * k
        g = np.log(_z_mgf(1j * t))
        g *= m
        g -= 1j * lo * t
        np.exp(g, out=g)
        g *= 1j / t
        bins[k % n] += g
        if t[-1] * abs(g[-1]) / math.pi <= _LAW_EPS:
            break
    total = bins.sum().real
    series = np.fft.fft(bins, out=bins).real
    series -= total
    series *= 2.0 / w
    cdf = np.arange(n + 1.0) / n
    cdf[:n] += series
    np.clip(cdf, 0.0, 1.0, out=cdf)
    np.maximum.accumulate(cdf, out=cdf)
    cdf[0], cdf[n] = 0.0, 1.0
    return CascadedLaw(m, lo, w / n, *guide_table(cdf, n))


def cascaded_sums(rng: np.random.Generator, law: CascadedLaw, scale) -> np.ndarray:
    """Each row's cascaded sum, scale[i] times a draw of law: the law of
    draw_cascaded(...).sum(axis=1) for scale = sqrt(ms1 ms2) and law =
    cascaded_law(M), since sqrt(ms1 E1) sqrt(ms2 E2) = sqrt(ms1 ms2) Z.

    One uniform u per row goes through the inverse of the linear CDF: its
    cell by numerics.guide_lookup (a binary search for the few percent of
    rows, in the tails, whose guide cell spans more than one node), then its
    place within the cell. m = 0 draws nothing.
    """
    scale = np.asarray(scale, dtype=float)
    if law.m == 0:
        return np.zeros(scale.shape)
    cdf = law.cdf
    u = rng.random(scale.shape)
    cell = guide_lookup(law, u)
    # in place from here: lo + step (cell + the share of the cell's mass below u)
    below = cdf[cell]
    x = u - below
    x /= cdf[cell + 1] - below
    x += cell
    x *= law.step
    x += law.lo
    x *= scale
    return x


def direct_cross(lam: float, rho_bar: float) -> float:
    """Direct magnitude whose rate equals lam (inverse of rate_direct)."""
    return math.sqrt(snr_floor(lam) / rho_bar)


def rate_direct(rho_bar: float, h_mag):
    """Spectral rate log2(1 + rho_bar h^2), bits/s/Hz, of magnitude h: the direct
    link's, or with the surface co-phased, h plus the cascaded magnitudes."""
    return np.log2(1.0 + rho_bar * np.square(h_mag))
