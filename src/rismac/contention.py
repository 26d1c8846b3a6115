"""Slotted contention: analytic slot statistics, the slot-level reference
simulation and the vectorized steps the simulator engine draws from.

Every slot each pair sends an RTS independently with its probability p_k.
Zero senders burn an idle slot (delta), two or more collide (tau_r), exactly
one wins and pays the RTS+feedback overhead tau_m1 = tau_r + tau_c.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .config import ConfigError, NetworkConfig
from .numerics import GuideTable, geometric, guide_lookup, guide_table


@dataclass(frozen=True)
class ContentionOutcome:
    """One resolved contention: winning pair (1-based) and elapsed time (s).

    Idle/collision slot counts are kept so the elapsed time can be audited
    as tau_m1 + n_idle*delta + n_collisions*tau_r exactly.
    """

    winner: int
    elapsed: float
    n_idle: int
    n_collisions: int


class SlotLaw(NamedTuple):
    """Slot statistics of one probability vector (arrays read-only)."""

    p_s: float  # P(exactly one sender)
    p_idle: float  # P(no sender)
    idle_share: float  # P(idle | the slot failed)
    weights: np.ndarray  # winning pair's law, given a single-sender slot
    winner_table: GuideTable  # the weights' CDF, as winner_table() builds it


@lru_cache(maxsize=32)
def slot_law(p: tuple[float, ...]) -> SlotLaw:
    """The slot law of p, computed once per vector (O(K^2) in Python).

    p_s sums p_k * prod_{i != k} (1 - p_i) left to right; each winner weight
    is p_k times its product of the others, normalized. Raises ConfigError
    when p_s = 0.
    """
    p_s, p_idle, terms = 0.0, 1.0, []
    for k, pk in enumerate(p):
        term, others = pk, 1.0
        for i, pi in enumerate(p):
            if i != k:
                term, others = term * (1.0 - pi), others * (1.0 - pi)
        p_s += term
        p_idle *= 1.0 - pk
        terms.append(pk * others)
    if p_s <= 0.0:
        raise ConfigError("no slot can have exactly one sender (p_s = 0)")
    w = np.array(terms)
    weights = w / w.sum()
    weights.flags.writeable = False
    # at tiny p the quotient rounds above 1 (p_idle and 1 - p_s agree to 1e-16)
    idle_share = min(p_idle / (1.0 - p_s), 1.0) if p_s < 1.0 else 0.0
    return SlotLaw(p_s, p_idle, idle_share, weights, winner_table(np.cumsum(weights)))


def winner_table(cum_weights: np.ndarray) -> GuideTable:
    """The guide table of a winner CDF c (K cumulative weights): nodes
    0, min(c_1, 1), ..., min(c_{K-1}, 1), 1 over the smallest power of two
    of cells at or above 8 K. A uniform u's cell is then
    min(searchsorted(c, u, "right"), K - 1), the 0-based winner, however the
    sum rounds near 1; a zero-weight pair is a flat step."""
    k = cum_weights.size
    cdf = np.concatenate(([0.0], np.minimum(cum_weights[:-1], 1.0), [1.0]))
    return guide_table(cdf, 1 << (8 * k - 1).bit_length())


def winner_weights(p) -> np.ndarray:
    """Distribution of the winning pair conditioned on a single-sender slot
    (the cached, read-only slot_law weights)."""
    return slot_law(tuple(p)).weights


def expected_contention_time(cfg: NetworkConfig) -> float:
    """Mean time from the start of contention to a resolved winner.

    Failures before the first single-sender slot are geometric; each failure
    is an idle (delta) or a collision (tau_r) in proportion to its slot
    probability, and the closing slot costs tau_m1.
    """
    law = slot_law(cfg.p)
    # rounding can take the difference below 0 at tiny p (-1.7e-16 at 1e-9)
    p_coll = max(1.0 - law.p_idle - law.p_s, 0.0)
    return cfg.tau_m1 + (law.p_idle * cfg.delta + p_coll * cfg.tau_r) / law.p_s


def simulate_contention(rng: np.random.Generator, cfg: NetworkConfig) -> ContentionOutcome:
    """Slot-by-slot contention until exactly one pair sends (the scalar
    reference, kept for tests and run_round)."""
    p = np.asarray(cfg.p)
    slot_law(cfg.p)  # raises ConfigError when p_s = 0
    n_idle = 0
    n_coll = 0
    while True:
        senders = rng.random(cfg.K) < p
        c = int(senders.sum())
        if c == 1:
            winner = int(np.flatnonzero(senders)[0]) + 1
            return ContentionOutcome(winner, contention_time(cfg, 1, n_idle, n_coll),
                                     n_idle, n_coll)
        if c == 0:
            n_idle += 1
        else:
            n_coll += 1


def draw_contention(rng: np.random.Generator, p_end: float, n: int, winner_cdf: GuideTable):
    """n independent contentions, each run until a slot that ends it, which
    has probability p_end (the slot law's p_s; for the engine's acting
    attempts, p_s (1 - q)): 1-based winners and the count of slots before
    each end, which is independent of the winner. The counts are drawn
    first, geometric in p_end (numerics.geometric); then one uniform per
    winner goes through winner_cdf (slot_law(cfg.p).winner_table, or a
    winner_table of another winner law) by numerics.guide_lookup."""
    slots = geometric(rng, p_end, n)
    slots -= 1
    winners = guide_lookup(winner_cdf, rng.random(n))
    winners += 1
    return winners, slots


def contention_time(cfg: NetworkConfig, wins, n_idle, n_collisions):
    """Time of `wins` resolved contentions with these failed-slot counts."""
    return wins * cfg.tau_m1 + n_idle * cfg.delta + n_collisions * cfg.tau_r
