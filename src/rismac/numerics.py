"""Numerical building blocks shared by the solver, the baseline analytics
and the simulator's draws.

Adaptive Gauss-Legendre panels, vector multisection, the safeguarded Newton
root of a balance value(lam) = lam * tau_o on the value's own slope, the SNR
floor 2^lam - 1 and an overflow-safe exp(a) * E1(x); for the draws, the
guide-table inverse of a tabulated CDF, whole-array geometric counts and
binomial counts through one table per probability.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import special

LN2 = math.log(2.0)
LOG2E = 1.0 / LN2
SQRT2 = math.sqrt(2.0)

QUAD_RTOL = 1e-9     # tolerance of every value integral, relative to its magnitude
ROOT_XTOL = 1e-11    # last Newton step (or bisection half-width), relative to the root's bound
_ORDERS = (16, 32)   # Gauss-Legendre orders compared on each panel
(_X1, _W1), (_X2, _W2) = (leggauss(n) for n in _ORDERS)
_OFFSETS = np.concatenate([_X1, _X2])  # both orders' nodes on [-1, 1], fused
_MAX_ROUNDS = 40     # panel-halving rounds before the quadrature gives up
_MAX_PANELS = 1 << 18  # panels one integral evaluates before it gives up
BISECT_DEPTH = 5     # halvings one evaluation covers (vec_bisect)
_INT64_CAP = 2.0 ** 63  # the smallest double above INT64_MAX, where numpy caps a geometric


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


def adaptive_panels(fvec, edges):
    """Integrate fvec over every row's panels with adaptive refinement.

    edges is one (n_edges, n_rows) array (or nested list): row i's panels
    are [edges[j, i], edges[j+1, i]] for consecutive j, must not be reversed,
    and are skipped where their width is zero. fvec(row_idx, h) evaluates
    the integrand vectorized; each panel is judged by comparing two
    Gauss-Legendre orders and halved until its share of the tolerance is
    met. fvec may return rows of integrands (shape (r, n)): row 0 alone
    judges the panels, and every row is summed over the panels it accepts.
    The tolerance is QUAD_RTOL times the first round's sum of |panel
    integrals|, so it scales with the integrand. Only the floor that passes
    any panel whose error estimate is below 1e-18 is absolute: without it,
    an integral that is zero to rounding (the probe gain at lam = 0) stalls.
    Returns the integral total, one per row. A NaN or infinite integrand
    value raises SolverError at once; halving cannot fix it, and neither can
    more than _MAX_PANELS panels in all rounds, which bounds the last round
    to about 6M nodes. (A lambda* solve of the default 8 pairs at tau_d =
    100 s takes 286 panels, in 23 integrand evaluations over 11 calls.)
    """
    edges = np.asarray(edges, dtype=float)
    lo, hi = edges[:-1], edges[1:]
    if (hi < lo).any():
        raise SolverError("reversed quadrature panel (caller edge ordering bug)")
    keep = hi - lo > 0.0
    rows, lo, hi = np.nonzero(keep)[1], lo[keep], hi[keep]
    if rows.size == 0:
        return fvec(rows, lo).sum(axis=-1)
    width_total = float((hi - lo).sum())
    n1 = _ORDERS[0]
    total = 0.0
    used = rows.size
    for r in range(_MAX_ROUNDS):
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        # fused evaluation of both orders across every panel
        h_nodes = mid[:, None] + half[:, None] * _OFFSETS[None, :]
        vals = fvec(np.repeat(rows, _OFFSETS.size), h_nodes.ravel())
        vals = vals.reshape(vals.shape[:-1] + (rows.size, _OFFSETS.size))
        if not np.isfinite(vals).all():
            raise SolverError("non-finite integrand value in quadrature panel")
        i1 = half * (vals[..., :n1] @ _W1)
        i2 = half * (vals[..., n1:] @ _W2)
        judged = i2.reshape(-1, rows.size)[0]
        err = np.abs(judged - i1.reshape(-1, rows.size)[0])
        if r == 0:
            tol = QUAD_RTOL * float(np.abs(judged).sum())
        budget = tol * np.maximum(hi - lo, 1e-300) / width_total
        good = err <= np.maximum(budget, 1e-18)
        total += i2[..., good].sum(axis=-1)
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
    """Vector multisection for an increasing sign change on each [lo_i, hi_i].

    One call of f covers up to BISECT_DEPTH = d halvings: f gets, as one
    (2^d - 1, n) array, each column's grid lo + (hi - lo) j / 2^d, j = 1..2^d
    - 1, capped at hi, and each column keeps the grid cell left of its first
    point where f is not negative (NaN is not; hi counts as a last such
    point). Where rounding noise makes f change sign many times near the
    root, that first sign change is the one kept. Returns each bracket's
    middle after `iters` halvings.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    cols = np.arange(lo.size)
    while iters > 0:
        d = min(iters, BISECT_DEPTH)
        iters -= d
        size = 1 << d
        grid = np.empty((size + 1, lo.size))
        grid[0], grid[size] = lo, hi
        np.minimum(lo + (hi - lo) * (np.arange(1, size)[:, None] / size), hi, out=grid[1:size])
        neg = np.zeros((size, lo.size), dtype=bool)  # the last row, hi's, stays False
        np.less(f(grid[1:size]), 0.0, out=neg[:-1])
        first = neg.argmin(axis=0)
        lo, hi = grid[first, cols], grid[first + 1, cols]
    return 0.5 * (lo + hi)


def bracket_root(value, tau_o: float) -> float:
    """Root of value(lam) = lam * tau_o for a value convex in lam, given
    value(lam) -> (value, slope); 0 when value(0) is not positive.

    Safeguarded Newton (Dinkelbach's iteration for ratio programs: W.
    Dinkelbach, Management Science 13(7), 1967) from lam = 0 inside the
    bracket [0, value(0) / tau_o] (a non-increasing value puts the root
    there). On a convex value a Newton step from below lands at or below
    the root, so the approach is slow where the value bends. Where this
    iterate and the one before both sit below the root, the step is
    instead the first root s > 0 of r + dr s + c s^2 / 2, c being the
    secant of the two slopes (twice the Newton step where that quadratic
    has no root). Such a step may pass the root; the bracket then keeps
    the iterates to its side. A step that leaves the bracket falls back to
    the Newton step, and then to bisection. Stops once a Newton step is at
    most ROOT_XTOL * s, s = min(1, value(0) / tau_o), and returns that
    step's end; bisection stops once the bracket is 2 ROOT_XTOL * s wide,
    and returns its middle.
    """
    v, d = value(0.0)
    if v <= 0.0:
        return 0.0
    xtol = ROOT_XTOL * min(1.0, v / tau_o)
    a, b, lam = 0.0, v / tau_o, 0.0
    below = None  # (lam, slope) of the previous iterate where it sat below the root
    while True:
        r, dr = v - lam * tau_o, d - tau_o
        if r > 0.0:
            a = lam
        else:
            b = lam
        step = -r / dr if dr < 0.0 else math.inf
        # the stop comes first: a sub-ulp step that lands on a bracket end
        # would otherwise bisect
        if abs(step) <= xtol:
            return lam + step
        nxt = lam + step
        if below is not None and r > 0.0 and dr < 0.0:
            c = (d - below[1]) / (lam - below[0])
            if c > 0.0:
                disc = dr * dr - 2.0 * c * r
                curved = lam + (2.0 * r / (math.sqrt(disc) - dr) if disc >= 0.0 else 2.0 * step)
                if a < curved < b:
                    nxt = curved
        if not a < nxt < b:
            nxt = 0.5 * (a + b)
            if b - a <= 2.0 * xtol:
                return nxt
        below = (lam, d) if r > 0.0 else None
        lam = nxt
        v, d = value(lam)


class GuideTable(NamedTuple):
    """A tabulated CDF with its guide table (Chen and Asau, AIIE Trans. 6(2),
    1974): nodes 0 = cdf[0] <= cdf[1] <= ... <= cdf[-1] = 1, flat steps
    allowed, and guide[j] the last node at or below j / n, j = 0..n, for a
    power of two n, so that j / n and u * n are exact. Arrays read-only."""

    cdf: np.ndarray
    guide: np.ndarray  # int32


def guide_table(cdf: np.ndarray, cells: int) -> GuideTable:
    """cdf (frozen in place) with its guide over `cells` equal cells of
    [0, 1], cells a power of two. A node x is at or below j / cells exactly
    where ceil(x cells) <= j (x cells is exact), so guide[j] counts those
    nodes, less one."""
    at = np.bincount(np.ceil(cdf * cells).astype(np.intp), minlength=cells + 1)
    guide = np.cumsum(at, dtype=np.int32)
    guide -= 1
    cdf.flags.writeable = guide.flags.writeable = False
    return GuideTable(cdf, guide)


def guide_lookup(table, u: np.ndarray) -> np.ndarray:
    """searchsorted(table.cdf, u, side="right") - 1 for u in [0, 1): the last
    node at or below each u, found in O(1). table is a GuideTable or anything
    with its cdf and guide. u's guide cell i bounds the answer to
    [guide[i], guide[i + 1]]; where that span holds at most one further node
    one comparison settles it, and elsewhere (a guide cell holding a flat step
    or two or more nodes) a binary search does."""
    cdf, guide = table.cdf, table.guide
    i = (u * (guide.size - 1)).astype(np.intp)
    cell = guide[i].astype(np.intp)
    wide = np.flatnonzero(guide[i + 1] - cell > 1)
    cell += cdf[cell + 1] <= u
    cell[wide] = np.searchsorted(cdf, u[wide], side="right") - 1
    return cell


def geometric(rng: np.random.Generator, p: float, n: int) -> np.ndarray:
    """rng.geometric(p, n) for 0 < p <= 1, value for value, leaving rng at
    the same next draw. numpy takes p >= 1/3 by a search, summing the pmf
    until it passes one uniform (a few terms there), and inverts one
    exponential below it (Devroye, Non-Uniform Random Variate Generation,
    1986): ceil(E / -log1p(-p)), capped at INT64_MAX. numpy recomputes
    log1p(-p) for every draw of that branch; here it is one exponential fill
    and a few array steps."""
    if p >= 1.0 / 3.0:
        return rng.geometric(p, n)
    z = rng.standard_exponential(n)
    z /= -math.log1p(-p)
    np.ceil(z, out=z)
    big = z >= _INT64_CAP  # only below p of about 1e-17
    if not big.any():
        return z.astype(np.int64)
    z[big] = 0.0
    out = z.astype(np.int64)
    out[big] = np.iinfo(np.int64).max
    return out


_BINOMIAL_INVERSION = 30.0  # numpy inverts one uniform where n min(p, 1 - p) <= 30
_BINOMIAL_ROWS = 256        # rows n = 0..255 at most: 32,897 nodes, 257 KiB
_BINOMIAL_CELLS = 128       # guide cells per row


class BinomialTable(NamedTuple):
    """Bin(n, p) for n = 0..n_max as one flattened guide table (arrays
    read-only): row n holds the nodes (n + F_n(k - 1)) / span, k = 0..n, F_n
    the CDF of Bin(n, min(p, 1 - p)), so row n spans [n, n + 1) / span. span
    is the power of two at or above n_max + 1, and a last node 1 closes the
    table. cdf and guide are None where min(p, 1 - p) = 0."""

    cdf: np.ndarray | None
    guide: np.ndarray | None
    p: float      # min(p, 1 - p), the law the table holds
    flip: bool    # p > 1/2: a draw is n minus a draw of the table
    n_max: int
    scale: float  # 1 / span


@lru_cache(maxsize=32)
def binomial_table(p: float) -> BinomialTable:
    """The table of Bin(., p) for 0 <= p <= 1, over numpy's inversion range
    n min(p, 1 - p) <= 30, capped at _BINOMIAL_ROWS rows. Row n's pmf at k
    is (1 - p)^n times the running product of (n - i + 1) / i * p / (1 - p)
    over i = 1..k, all rows in one array step."""
    flip = p > 0.5
    p = 1.0 - p if flip else p
    if p == 0.0:
        return BinomialTable(None, None, 0.0, flip, 0, 1.0)
    n_max = min(int(_BINOMIAL_INVERSION / p), _BINOMIAL_ROWS - 1)
    n = np.arange(n_max + 1.0)
    # a[n, j] = n + F_n(j - 1): column j first holds the pmf factor of k = j - 1
    a = np.subtract.outer(n, n)
    a += 2.0
    np.maximum(a, 0.0, out=a)
    a[:, 2:] *= (p / (1.0 - p)) / n[1:-1]
    a[:, 1] = np.exp(n * math.log1p(-p))
    a[:, 0] = 0.0
    np.cumprod(a[:, 1:], axis=1, out=a[:, 1:])
    np.cumsum(a, axis=1, out=a)
    np.minimum(a, 1.0, out=a)
    a += n[:, None]
    span = 1 << n_max.bit_length()
    cdf = np.concatenate((a[np.tri(n_max + 1, dtype=bool)],
                          [n_max + 1.0] if span > n_max + 1 else [], [span]))
    cdf /= span
    return BinomialTable(*guide_table(cdf, span * _BINOMIAL_CELLS), p, flip, n_max, 1.0 / span)


def binomial(rng: np.random.Generator, table: BinomialTable, n: np.ndarray) -> np.ndarray:
    """Bin(n_i, p) for each count of n (int64), p the table's: rng.binomial's
    law, not its values. Each entry's uniform u goes to (n_i + u) / span,
    looked up in the table by guide_lookup; an entry past the table's
    n_max instead takes rng.binomial, in a second call. p in {0, 1} draws
    nothing."""
    if table.cdf is None:
        return n.copy() if table.flip else np.zeros_like(n)
    rows = np.minimum(n, table.n_max)
    u = rng.random(n.shape)
    u += rows
    u *= table.scale
    k = guide_lookup(table, u)
    # a row's first node is at n (n + 1) / 2; n + u can round up to n + 1
    first = rows + 1
    first *= rows
    first >>= 1
    k -= first
    np.minimum(k, rows, out=k)
    past = np.flatnonzero(n > table.n_max)
    if past.size:
        k[past] = rng.binomial(n[past], table.p)
    if table.flip:
        np.subtract(n, k, out=k)
    return k
