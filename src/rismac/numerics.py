"""Numerical building blocks shared by the solver and the baseline analytics.

Adaptive Gauss-Legendre panels, vector bisection, the bracket-and-bisect
root of a balance value(lam) = lam * tau_o, and an overflow-safe exp(a) * E1(x).
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

QUAD_TOL = 1e-11     # absolute tolerance of every value integral
ROOT_XTOL = 1e-11    # root bisection width, relative to the root's bound
_ORDERS = (16, 32)   # Gauss-Legendre orders compared on each panel
_MAX_ROUNDS = 40     # panel-halving rounds before the quadrature gives up


class SolverError(RuntimeError):
    """Numerical failure: stalled quadrature, broken bracket, no convergence."""


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


def adaptive_panels(fvec, rows, lo, hi, tol):
    """Integrate fvec over per-row panels [lo_i, hi_i] with adaptive refinement.

    fvec(row_idx, h) evaluates the integrand vectorized; each panel is judged
    by comparing two Gauss-Legendre orders and halved until its share of the
    absolute tolerance is met. Returns the integral total. A NaN or infinite
    integrand value raises SolverError at once; halving cannot fix it.
    """
    rows = np.asarray(rows, dtype=np.intp)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
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
    for _ in range(_MAX_ROUNDS):
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
        budget = tol * np.maximum(hi - lo, 1e-300) / width_total
        good = err <= np.maximum(budget, 1e-18)
        total += float(i2[good].sum())
        if good.all():
            return total
        rows, lo, hi, mid = rows[~good], lo[~good], hi[~good], mid[~good]
        rows = np.repeat(rows, 2)
        lo, hi = (np.stack([lo, mid], axis=1).ravel(),
                  np.stack([mid, hi], axis=1).ravel())
    raise SolverError(
        f"quadrature stalled: {rows.size} panels above tolerance {tol:g}, "
        f"worst error estimate {float(err.max()):.3e}")


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


def bracket_root(value, tau_o: float, what: str) -> float:
    """Root of value(lam) = lam * tau_o for a decreasing value; 0 when value(0)
    is not positive. Bisects x = lam / s to ROOT_XTOL after doubling a bracket
    from [0, 1]; `what` names the balance in the error for a missing bracket.
    """
    v0 = value(0.0)
    if v0 <= 0.0:
        return 0.0
    # the root is at most value(0) / tau_o, so bisecting lam / s with this s
    # makes ROOT_XTOL relative below it; s == 1 leaves the arithmetic as is
    s = min(1.0, v0 / tau_o)

    def residual(x):
        return value(s * x) - s * x * tau_o

    lo, hi = 0.0, 1.0
    for _ in range(80):
        if residual(hi) < 0.0:
            break
        lo, hi = hi, 2.0 * hi
    else:
        raise SolverError(f"{what}: residual never turns negative")
    while hi - lo > ROOT_XTOL:
        mid = 0.5 * (lo + hi)
        if residual(mid) < 0.0:
            hi = mid
        else:
            lo = mid
    return s * (0.5 * (lo + hi))
