"""Slotted contention: analytic slot statistics, the slot-level reference
simulation and the vectorized steps the simulator engine draws from.

Every slot each pair sends an RTS independently with its probability p_k.
Zero senders burn an idle slot (delta), two or more collide (tau_r), exactly
one wins and pays the RTS+feedback overhead tau_m1 = tau_r + tau_c.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import ConfigError, NetworkConfig


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


def idle_probability(p) -> float:
    out = 1.0
    for pk in p:
        out *= 1.0 - pk
    return out


def success_probability(p) -> float:
    """P(exactly one sender in a slot) = sum_k p_k prod_{i != k} (1 - p_i)."""
    total = 0.0
    for k, pk in enumerate(p):
        term = pk
        for i, pi in enumerate(p):
            if i != k:
                term *= 1.0 - pi
        total += term
    return total


def winner_weights(p) -> np.ndarray:
    """Distribution of the winning pair conditioned on a single-sender slot."""
    ps = success_probability(p)
    if ps <= 0.0:
        raise ConfigError("no slot can have exactly one sender (p_s = 0)")
    w = np.array([pk * idle_probability([pi for i, pi in enumerate(p) if i != k])
                  for k, pk in enumerate(p)])
    return w / w.sum()


@lru_cache(maxsize=32)
def _slot_law(p: tuple[float, ...]):
    """(p_s, idle share of failed slots, cumulative winner weights) for one
    probability vector; success_probability is O(K^2) in Python."""
    p_s = success_probability(p)
    cum_weights = np.cumsum(winner_weights(p))
    cum_weights.flags.writeable = False
    idle_frac = idle_probability(p) / (1.0 - p_s) if p_s < 1.0 else 0.0
    return p_s, idle_frac, cum_weights


def expected_contention_time(cfg: NetworkConfig) -> float:
    """Mean time from the start of contention to a resolved winner.

    Failures before the first single-sender slot are geometric; each failure
    is an idle (delta) or a collision (tau_r) in proportion to its slot
    probability, and the closing slot costs tau_m1.
    """
    ps = success_probability(cfg.p)
    if ps <= 0.0:
        raise ConfigError("no slot can have exactly one sender (p_s = 0)")
    pi0 = idle_probability(cfg.p)
    p_coll = 1.0 - pi0 - ps
    return cfg.tau_m1 + (pi0 * cfg.delta + p_coll * cfg.tau_r) / ps


def simulate_contention(rng: np.random.Generator, cfg: NetworkConfig) -> ContentionOutcome:
    """Slot-by-slot contention until exactly one pair sends (the scalar
    reference, kept for tests and run_round)."""
    p = np.asarray(cfg.p)
    _slot_law(tuple(cfg.p))  # raises ConfigError when p_s = 0
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


def draw_contention(rng: np.random.Generator, cfg: NetworkConfig, n: int):
    """n independent contentions: 1-based winners, drawn from the conditional
    winner CDF, and the geometric count of failed slots before each win,
    which is independent of the winner."""
    p_s, _, cum_weights = _slot_law(tuple(cfg.p))
    fails = rng.geometric(p_s, n) - 1
    winners = np.searchsorted(cum_weights, rng.random(n), side="right")
    return np.minimum(winners, cfg.K - 1) + 1, fails


def split_failed_slots(rng: np.random.Generator, cfg: NetworkConfig, fails):
    """(n_idle, n_collisions): each failed slot is idle with the same chance,
    independently, so a count summed over contentions splits in one draw."""
    n_idle = rng.binomial(fails, _slot_law(tuple(cfg.p))[1])
    return n_idle, fails - n_idle


def contention_time(cfg: NetworkConfig, wins, n_idle, n_collisions):
    """Time of `wins` resolved contentions with these failed-slot counts."""
    return wins * cfg.tau_m1 + n_idle * cfg.delta + n_collisions * cfg.tau_r


def simulate_contention_batch(rng: np.random.Generator, cfg: NetworkConfig, n: int):
    """n independent contentions from the engine's steps: (winners, elapsed,
    n_idle, n_collisions) arrays, winners 1-based. Same law as
    simulate_contention, which tests compare it against."""
    winners, fails = draw_contention(rng, cfg, n)
    n_idle, n_coll = split_failed_slots(rng, cfg, fails)
    return winners, contention_time(cfg, 1, n_idle, n_coll), n_idle, n_coll
