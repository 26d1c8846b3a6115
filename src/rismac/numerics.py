"""Numerical building blocks shared by the solver and the baseline analytics.

Adaptive Gauss-Legendre panels, vector bisection, a Brent-Dekker root and
the bracketed root of a balance value(lam) = lam * tau_o built on it, the
SNR floor 2^lam - 1 and an overflow-safe exp(a) * E1(x).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import special

LN2 = math.log(2.0)
LOG2E = 1.0 / LN2
SQRT2 = math.sqrt(2.0)

QUAD_TOL = 1e-11     # absolute tolerance of every value integral...
QUAD_RTOL = 1e-9     # ...tightened to this share of the integral's magnitude
ROOT_XTOL = 1e-11    # final root bracket width, relative to the root's bound
_ORDERS = (16, 32)   # Gauss-Legendre orders compared on each panel
_MAX_ROUNDS = 40     # panel-halving rounds before the quadrature gives up
_MAX_PANELS = 1 << 18  # panels one integral evaluates before it gives up
_EPS = math.ulp(1.0)  # machine epsilon


class SolverError(RuntimeError):
    """Numerical failure: stalled quadrature, broken bracket, no convergence."""


def snr_floor(lam: float) -> float:
    """2^lam - 1, the SNR at which a link carries lam bits/s/Hz. A rate past
    the float range raises SolverError instead of OverflowError."""
    try:
        return math.expm1(lam * LN2)
    except OverflowError:
        raise SolverError(f"rate {lam:g} bits/s/Hz is past the float range of 2^lam") from None


def scaled_e1(a, x):
    """exp(a) * E1(x) elementwise, for 0 <= a <= x. Overflow-safe: large x
    switches to the asymptotic expansion of exp(x) E1(x)."""
    a = np.asarray(a, dtype=float)
    x = np.asarray(x, dtype=float)
    big = x > 700.0
    xs = np.where(big, 1.0, x)
    plain = np.exp(np.where(big, 0.0, a)) * special.exp1(xs)
    u = 1.0 / np.where(big, x, 1.0)
    series = u * (1.0 - u * (1.0 - u * (2.0 - u * (6.0 - 24.0 * u))))
    asym = np.exp(np.where(big, a - x, 0.0)) * series
    return np.where(big, asym, plain)


@lru_cache(maxsize=32)
def _gl_nodes(n: int):
    return leggauss(n)


def adaptive_panels(fvec, edges):
    """Integrate fvec over every row's panels with adaptive refinement.

    edges is a list of equal-length arrays, one entry per row: row i's
    panels are [edges[j][i], edges[j+1][i]] for consecutive j, and must not
    be reversed. fvec(row_idx, h) evaluates the integrand vectorized; each
    panel is judged by comparing two Gauss-Legendre orders and halved until
    its share of the tolerance is met. The tolerance is QUAD_TOL or QUAD_RTOL
    times the first round's sum of |panel integrals|, whichever is smaller,
    so tiny integrals keep their relative precision. Returns the integral
    total. A NaN or infinite integrand value raises SolverError at once;
    halving cannot fix it, and neither can more than _MAX_PANELS panels in
    all rounds, which bounds the last round to about 6M nodes. (The value
    integrals of the default 8 pairs evaluate up to 200k panels at
    tau_d = 100 s.)
    """
    rows = np.tile(np.arange(len(edges[0])), len(edges) - 1)
    lo = np.concatenate(edges[:-1])
    hi = np.concatenate(edges[1:])
    if np.any(hi < lo):
        raise SolverError("reversed quadrature panel (caller edge ordering bug)")
    keep = hi - lo > 0.0
    rows, lo, hi = rows[keep], lo[keep], hi[keep]
    if rows.size == 0:
        return 0.0
    width_total = float((hi - lo).sum())
    x1, w1 = _gl_nodes(_ORDERS[0])
    x2, w2 = _gl_nodes(_ORDERS[1])
    n1 = _ORDERS[0]
    total = 0.0
    used = rows.size
    for r in range(_MAX_ROUNDS):
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        # fused evaluation of both orders across every panel
        offsets = np.concatenate([x1, x2])
        h_nodes = mid[:, None] + half[:, None] * offsets[None, :]
        vals = fvec(np.repeat(rows, offsets.size),
                    h_nodes.ravel()).reshape(rows.size, offsets.size)
        if not np.isfinite(vals).all():
            raise SolverError("non-finite integrand value in quadrature panel")
        i1 = half * (vals[:, :n1] @ w1)
        i2 = half * (vals[:, n1:] @ w2)
        err = np.abs(i2 - i1)
        if r == 0:
            tol = min(QUAD_TOL, QUAD_RTOL * float(np.abs(i2).sum()))
        budget = tol * np.maximum(hi - lo, 1e-300) / width_total
        good = err <= np.maximum(budget, 1e-18)
        total += float(i2[good].sum())
        if good.all():
            return total
        rows, lo, hi, mid = rows[~good], lo[~good], hi[~good], mid[~good]
        rows = np.repeat(rows, 2)
        lo, hi = (np.stack([lo, mid], axis=1).ravel(),
                  np.stack([mid, hi], axis=1).ravel())
        used += rows.size
        if used > _MAX_PANELS:
            break
    raise SolverError(
        f"quadrature stalled: {rows.size} panels above tolerance {tol:g} after "
        f"{used} panels, worst error estimate {float(err.max()):.3e}")


def vec_bisect(f, lo, hi, iters: int):
    """Vector bisection for an increasing sign change on each [lo_i, hi_i]."""
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        neg = f(mid) < 0.0
        lo = np.where(neg, mid, lo)
        hi = np.where(neg, hi, mid)
    return 0.5 * (lo + hi)


def zeroin(f, a, b, fa, fb, xtol: float) -> float:
    """Brent-Dekker root of f on [a, b], given fa = f(a) and fb = f(b) of
    opposite signs (or one of them zero). Inverse quadratic or secant steps
    while they shrink the sign-changing bracket fast enough, bisection
    otherwise (R. P. Brent, Algorithms for Minimization without Derivatives,
    1973, ch. 4). The returned point is within max(xtol, 4 eps |x|) of a sign
    change of f.
    """
    c, fc = a, fa
    d = e = b - a
    while True:
        if (fb > 0.0) == (fc > 0.0):
            # keep [b, c] sign-changing: c takes over the old iterate
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = max(2.0 * _EPS * abs(b), 0.5 * xtol)
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            return b
        if abs(e) < tol or abs(fa) <= abs(fb):
            d = e = m
        else:
            r = fb / fa
            if a == c:  # secant
                p, q = 2.0 * m * r, 1.0 - r
            else:       # inverse quadratic through a, b, c
                q, t = fa / fc, fb / fc
                p = r * (2.0 * m * q * (q - t) - (b - a) * (t - 1.0))
                q = (q - 1.0) * (t - 1.0) * (r - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            # accept the interpolation only inside the bracket and while the
            # steps keep halving; otherwise bisect
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = f(b)


def bracket_root(value, tau_o: float, slope: float) -> float:
    """Root of value(lam) = lam * tau_o for a decreasing value whose fall is
    at most `slope` per unit lam; 0 when value(0) is not positive. Brackets
    x = lam / s by doubling from a lower bound up to an upper bound, then
    runs zeroin to ROOT_XTOL.
    """
    v0 = value(0.0)
    if v0 <= 0.0:
        return 0.0
    # the root is at most value(0) / tau_o, so solving for lam / s with this
    # s makes ROOT_XTOL relative below it
    s = min(1.0, v0 / tau_o)
    # value(lam) >= value(0) - slope * lam, so the residual is not negative
    # up to lam = value(0) / (tau_o + slope): the root is at least that
    lo = v0 / (tau_o + slope) / s

    def residual(x):
        return value(s * x) - s * x * tau_o

    a, fa = lo, residual(lo)
    if fa < 0.0:
        # only quadrature noise puts lo above the root: [0, lo] brackets it
        a, fa, b, fb = 0.0, v0, lo, fa
    else:
        # value(s * x) <= value(s * lo) for x >= lo, so the residual is not
        # positive from cap on: the root is at most cap
        cap = lo + fa / (s * tau_o)
        while True:
            b = min(2.0 * a, cap)
            fb = residual(b)
            if fb < 0.0:
                break
            if b == cap:
                # only quadrature noise keeps the residual positive at cap
                return s * cap
            a, fa = b, fb
    return s * zeroin(residual, a, b, fa, fb, ROOT_XTOL)
