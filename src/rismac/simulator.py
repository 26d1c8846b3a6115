"""Event-faithful Monte-Carlo of the contend/observe/decide/transmit loop.

One round is: repeat { contention; winner observes its direct magnitude;
level-1 decision; possibly probe and level-2 decision } until somebody
transmits. Its duration decomposes exactly as

    total = sum of contention times
          + (number of probe-then-release outcomes) * (tau_p + tau_c)
          + (tau_d - tau_m1)

since the final transmission block, probe included when one happened, always
spans tau_d - tau_m1. Durations are composed from those counters at the end
of the round so the identity holds to the last bit.

Every policy is one threshold rule (see strategies): the reference
disciplines are its degenerate thresholds (eta = -inf transmits at once,
zeta = -inf with eta = +inf always probes), so neither path below looks at
which discipline it runs.

Two implementations of the same process: run_round, the scalar oracle that
walks every attempt, and a block engine built on attempts being i.i.d. under
a fixed policy. An attempt releases at level 1 with the closed-form
probability q = sum_k w_k P(h_k <= zeta_k) (w the winner law), so the engine
draws only acting attempts, those that transmit directly or probe, in
vectorized chunks: the slots before its win and the winner from
w_k (1 - r_k) / (1 - q), direct magnitude past zeta_k (|h|^2 is memoryless),
code (direct at or above eta_k, else probe) and, where it probes, the
cascaded sum, one uniform through S_M's tabulated law (channel.cascaded_law,
built the first time an M needs it and looked up once per campaign, before
any worker starts), so a probe costs the same at any M; one spectral rate
per attempt, of the direct magnitude or of it plus the cascaded sum.
Winners and cascaded sums go through numerics.guide_lookup (the acting
winner table is built once per campaign, before any worker starts) and the
slot counts through numerics.geometric. Both return numpy's own values from
the same stream in whole-array steps; the geometric splits at p = 1/3
because numpy does, inverting one exponential per draw below it (one array
fill here) and searching one uniform's pmf sum at or above it (numpy's call
kept).

Each slot is idle, a collision or a win, and the attempt a win starts
releases with probability q. So the slots before an acting attempt's win
that are not acting wins number N ~ Geom0(p_act), p_act = p_s (1 - q); at
q = 0 that is the failed-slot count. A round is the run of acting attempts
up to the first that transmits, so it costs O(acting attempts); a chunk
whose every attempt ends its round is already per round. A round's sum of
N is then split once by two binomial draws (numerics.binomial, one uniform
each through a table the campaign builds before any worker starts):
R ~ Bin(N, p_s q / (1 - p_act)) releases' wins (none at q = 0, where
nothing is drawn, so the reference disciplines, with zeta = -inf, draw no
extra numbers), and, of the F = N - R failed slots, I ~ Bin(F, idle_share)
idle ones and F - I collisions. The round made acting + R attempts, and
its contention time is their tau_m1 each plus I delta + (F - I) tau_r.

A campaign runs in stream units of up to STREAM_ROUNDS rounds (four
4096-round slices), each its own PCG64 stream seeded by (seed, unit) and one
worker task; the plan does not depend on the worker count, so campaign
results are bit-identical for any. Rounds are i.i.d. renewal cycles, so a
campaign's interval is regenerative.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import special

from .channel import (
    CascadedLaw,
    cascaded_law,
    cascaded_sums,
    draw_cascaded,
    draw_direct,
    linear_budget,
    pair_tables,
    rate_direct,
    rayleigh,
    rayleigh_cdf,
)
from .config import NetworkConfig
from .contention import (contention_time, draw_contention, simulate_contention, slot_law,
                         winner_table)
from .numerics import BinomialTable, GuideTable, SolverError, binomial, binomial_table
from .strategies import Decision, Policy, decide_level1_threshold, decide_level2

BLOCK_ROUNDS = 4096  # rounds per slice of a campaign's sums
# rounds per PCG64 stream and worker task: fewer, longer numpy calls per
# round than one slice; four slices measured faster than two or eight
STREAM_ROUNDS = 4 * BLOCK_ROUNDS
_MAX_ATTEMPTS = 100_000  # per round; a longer round raises SimulationError


class SimulationError(SolverError):
    """A campaign the engine cannot run: a numerical failure (exit 4)."""


@dataclass(frozen=True)
class RoundLedger:
    """Full trace of one round from the scalar reference path."""

    path: tuple[Decision, ...]
    bits: float
    total_time: float
    contention_time_total: float
    probe_time_total: float
    n_attempts: int
    winner: int

    @property
    def terminal(self) -> Decision:
        return self.path[-1]


def run_round(rng: np.random.Generator, cfg: NetworkConfig, policy: Policy) -> RoundLedger:
    """Simulate one round at slot fidelity, one decision at a time.

    The scalar oracle of the block engine, kept for tests: it draws every
    attempt, releases included.
    """
    rho = linear_budget(cfg)
    path: list[Decision] = []
    cont_total = 0.0
    probe_rels = 0
    for attempt in range(1, _MAX_ATTEMPTS + 1):
        outcome = simulate_contention(rng, cfg)
        cont_total += outcome.elapsed
        k = outcome.winner
        h = draw_direct(rng, cfg, k)
        d1 = decide_level1_threshold(h, k, policy)
        path.append(d1)
        if d1 is Decision.STOP_DIRECT:
            bits = cfg.tau1 * rate_direct(rho, h)
            break
        if d1 is Decision.CONTINUE:
            continue
        rr = rate_direct(rho, h + draw_cascaded(rng, cfg, k).sum())
        path.append(decide_level2(rr, policy.stop_rate))
        if path[-1] is Decision.STOP_RIS:
            bits = cfg.tau2 * rr
            break
        probe_rels += 1
    else:
        raise SimulationError(f"round did not terminate in {_MAX_ATTEMPTS} attempts")
    probe_time = probe_rels * cfg.tau_pc
    total = cont_total + probe_time + cfg.tau1
    return RoundLedger(tuple(path), float(bits), total, cont_total, probe_time,
                       attempt, k)


class RoundArrays(NamedTuple):
    """Per-round outcomes from the block engine."""

    bits: np.ndarray
    total_time: np.ndarray
    contention_time: np.ndarray
    probe_releases: np.ndarray
    attempts: np.ndarray
    terminal: np.ndarray  # 1 = direct transmission, 2 = surface transmission


def _unit_rng(seed: int, unit: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(unit,))
    return np.random.Generator(np.random.PCG64(ss))


class _ActingLaw(NamedTuple):
    """What a campaign's stream units share: the acting attempts' law and
    the split tables of their slots (see _acting_law)."""

    winner_cdf: GuideTable  # the winner law of an acting attempt
    q: float                # P(an attempt releases at level 1)
    p_act: float            # P(a slot is an acting attempt's win) = p_s (1 - q)
    release: BinomialTable  # P(a slot that is no acting win is a release's win)
    idle: BinomialTable     # P(a failed slot is idle), the slot law's idle_share


def _acting_law(cfg: NetworkConfig, policy: Policy) -> _ActingLaw:
    """The law of an acting attempt (one that transmits directly or probes):
    its winner table, of w_k (1 - r_k) / (1 - q), and the release
    probability q = sum_k w_k r_k of one attempt, with r_k = P(h_k <= zeta_k).
    At q = 0 that is the slot law's own table, built with it. A slot is an
    acting attempt's win with probability p_act = p_s (1 - q); one that is
    not is a release's win with probability p_s q / (1 - p_act), else a
    failed slot, idle with probability idle_share. The tables of those two
    binomial splits are built here, before any worker starts.

    A slot law with p_s < _MAX_ATTEMPTS / 2^63 (about 1.1e-14) is refused: a
    round of up to _MAX_ATTEMPTS contentions fails (1 - p_s) / p_s slots per
    contention on average, so its int64 count could pass 2^63 - 1 (at p_s =
    8e-300 every geometric draw saturates there). p_act below the same bound
    (q within about 5e-14 of 1 at the default slot law) is refused as a round
    that does not terminate, for the same reason."""
    law = slot_law(cfg.p)
    if law.p_s * 2.0 ** 63 < _MAX_ATTEMPTS:
        raise SimulationError(
            f"p_s = {law.p_s:g} is below {_MAX_ATTEMPTS} / 2^63: the failed slots of a "
            f"round of up to {_MAX_ATTEMPTS} contentions could pass int64")
    r = rayleigh_cdf(policy.zeta, pair_tables(cfg).v)
    q = float(law.weights @ r)
    winner_cdf = law.winner_table
    if q:
        acting = np.cumsum(law.weights * (1.0 - r))
        if q >= 1.0 or acting[-1] <= 0.0:
            raise SimulationError(f"every attempt releases (q = {q}): rounds did not terminate")
        winner_cdf = winner_table(acting / acting[-1])
    p_act = law.p_s * (1.0 - q)
    if p_act * 2.0 ** 63 < _MAX_ATTEMPTS:
        raise SimulationError(
            f"rounds did not terminate: an attempt acts with probability 1 - q = {1.0 - q:g}, "
            f"so the slots of a round could pass int64")
    release = min(law.p_s * q / (1.0 - p_act), 1.0) if q else 0.0
    return _ActingLaw(winner_cdf, q, p_act, binomial_table(release),
                      binomial_table(law.idle_share))


def _draw_attempts(rng: np.random.Generator, cfg: NetworkConfig, policy: Policy, m: int,
                   acting: _ActingLaw, law: CascadedLaw | None):
    """m i.i.d. acting attempts: contention, direct draw past zeta, level-1
    code and, where it probes, the cascaded sum drawn from law (None where
    no pair probes). Returns per-attempt [slots before its win (failed or
    won by a release), bits (0 where a probe releases), terminal code: 0
    probe released, 1 direct, 2 surface]."""
    tab = pair_tables(cfg)
    winners, slots = draw_contention(rng, acting.p_act, m, acting.winner_cdf)
    winners -= 1
    floor = np.maximum(policy.zeta[winners], 0.0) if acting.q else 0.0
    h = rayleigh(rng, tab.v[winners], m, floor)
    # an acting attempt transmits directly at or above eta and probes below,
    # which adds the cascaded sum to its magnitude; one rate serves both
    direct = h >= policy.eta[winners]
    rows = np.flatnonzero(~direct)
    if rows.size:
        h[rows] += cascaded_sums(rng, law, np.sqrt(tab.ms1 * tab.ms2)[winners[rows]])
    rate = rate_direct(tab.rho, h)
    # code 2 * stop - direct (1 direct, 2 a probe that stops, 0 one that
    # releases); bits are the rate times the code's window, tau1, tau2 or 0
    stop = rate >= policy.stop_rate
    stop |= direct
    terminal = stop.view(np.uint8) << 1
    terminal -= direct
    bits = np.array((0.0, cfg.tau1, cfg.tau2)).take(terminal)
    bits *= rate
    return [slots, bits, terminal]


def _simulate_unit(seed: int, unit: int, n_rounds: int, cfg: NetworkConfig,
                   policy: Policy, acting: _ActingLaw, law: CascadedLaw | None) -> RoundArrays:
    """n_rounds rounds cut from one stream of i.i.d. acting attempts: a round
    is the run of acting attempts up to and including its first terminal
    one. Every acting attempt but the last probes and releases, so a round
    of n acting attempts has n - 1 probe-then-release outcomes.

    Each chunk is summed per round as soon as it is drawn, so memory stays
    O(n_rounds); the attempts of the round left open at a chunk's end are
    held over to the front of the next chunk. A chunk whose every attempt
    ends its round is already per round. At the end, a round's slots before
    its acting wins are split once: the releases' wins (a binomial draw,
    none at q = 0), then the idle and collision slots among the rest.
    """
    rng = _unit_rng(seed, unit)
    parts = []
    held = ()
    drawn = done = 0
    size = n_rounds
    while done < n_rounds:
        chunk = _draw_attempts(rng, cfg, policy, size, acting, law)
        if held:
            chunk = [np.concatenate(pair) for pair in zip(held, chunk)]
        ends = np.flatnonzero(chunk[2])[:n_rounds - done]
        cut = ends[-1] + 1 if ends.size else 0
        held = [a[cut:] for a in chunk]
        if held[0].size >= _MAX_ATTEMPTS:
            raise SimulationError(
                f"unit {unit}: a round did not terminate in {_MAX_ATTEMPTS} attempts")
        if ends.size == cut:  # every attempt ends its round: one acting attempt each
            parts.append([a[:cut] for a in chunk] + [np.ones(cut, dtype=np.int64)])
        else:
            slots, bits, terminal = chunk
            starts = np.concatenate(([0], ends[:-1] + 1))
            parts.append([np.add.reduceat(slots[:cut], starts), bits[ends], terminal[ends],
                          ends - starts + 1])
        drawn += size
        done += ends.size
        # size the next chunk from the acting attempts per round seen so far
        size = min(STREAM_ROUNDS, -(-(n_rounds - done) * drawn // max(done, 1)))
    slots, bits, terminal, n_acting = (np.concatenate(c) for c in zip(*parts))
    attempts = binomial(rng, acting.release, slots)  # the releases' wins
    slots -= attempts  # the failed slots
    attempts += n_acting
    if attempts.max() > _MAX_ATTEMPTS:
        raise SimulationError(
            f"unit {unit}: a round did not terminate in {_MAX_ATTEMPTS} attempts")
    n_idle = binomial(rng, acting.idle, slots)
    slots -= n_idle
    cont_time = contention_time(cfg, attempts, n_idle, slots)
    releases = n_acting - 1
    total = cont_time + releases * cfg.tau_pc + cfg.tau1
    return RoundArrays(bits, total, cont_time, releases, attempts, terminal)


def _run_units(cfg: NetworkConfig, policy: Policy, n_rounds: int, seed: int,
               workers: int | None, reduce) -> list:
    """reduce(RoundArrays) of every stream unit of an n_rounds campaign, in
    unit order, on up to `workers` threads (default min(4, CPUs)). The
    acting law is solved, and refused, and the cascaded law built where a
    pair can probe, before any thread starts."""
    if n_rounds <= 0:
        raise ValueError("n_rounds must be positive")
    if workers is None:
        workers = min(4, os.cpu_count() or 1)
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    acting = _acting_law(cfg, policy)
    # a direct magnitude is never below an eta <= 0: no-wait-direct never probes
    law = cascaded_law(cfg.M) if np.any(policy.eta > 0.0) else None
    full, rem = divmod(n_rounds, STREAM_ROUNDS)
    plan = [(i, STREAM_ROUNDS) for i in range(full)] + ([(full, rem)] if rem else [])
    nw = min(workers, len(plan))

    def one(item):
        return reduce(_simulate_unit(seed, *item, cfg, policy, acting, law))

    if nw == 1:
        return [one(item) for item in plan]
    with ThreadPoolExecutor(max_workers=nw) as pool:
        return list(pool.map(one, plan))


def simulate_rounds(cfg: NetworkConfig, policy: Policy, n_rounds: int,
                    seed: int, workers: int | None = None) -> RoundArrays:
    """Per-round outcome arrays for n_rounds rounds (units concatenated)."""
    units = _run_units(cfg, policy, n_rounds, seed, workers, lambda arr: arr)
    return RoundArrays(*(np.concatenate(parts) for parts in zip(*units)))


@dataclass(frozen=True)
class ThroughputEstimate:
    """Ratio estimate of long-run throughput with a regenerative interval."""

    mean: float
    ci_halfwidth: float
    n_rounds: int
    total_bits: float
    total_time: float
    n_batches: int  # BLOCK_ROUNDS slices summed, ceil(n_rounds / BLOCK_ROUNDS)


def _batch_sums(arr: RoundArrays) -> list[tuple[float, ...]]:
    """(Y, T, Y^2, YT, T^2) sums, Y a round's bits and T its time, of each
    BLOCK_ROUNDS slice of a unit, in order: a unit starts at a multiple of
    BLOCK_ROUNDS, so these are the campaign's."""
    slices = [(arr.bits[s:s + BLOCK_ROUNDS], arr.total_time[s:s + BLOCK_ROUNDS])
              for s in range(0, arr.bits.size, BLOCK_ROUNDS)]
    return [(float(y.sum()), float(t.sum()), float(y @ y), float(y @ t), float(t @ t))
            for y, t in slices]


def run_campaign(cfg: NetworkConfig, policy: Policy, n_rounds: int, seed: int,
                 workers: int | None = None) -> ThroughputEstimate:
    """Estimate long-run throughput r (bits/s/Hz) over n = n_rounds rounds.

    r is total bits over total time, each the in-order sum of the slice sums.
    Rounds are i.i.d. under a fixed policy, so the 95% interval is
    t(0.975, n - 1) sd(Y - r T) / (sqrt(n) mean T) (nan at n = 1). Both are
    deterministic for a given seed regardless of worker count.
    """
    sums = [b for unit in _run_units(cfg, policy, n_rounds, seed, workers, _batch_sums)
            for b in unit]
    y, t, yy, yt, tt = (float(np.array(col).sum()) for col in zip(*sums))
    mean = y / t
    n = n_rounds
    if n >= 2:
        var = max((yy - 2.0 * mean * yt + mean * mean * tt) / (n - 1), 0.0)
        ci = float(special.stdtrit(n - 1, 0.975)) * math.sqrt(var / n) * n / t
    else:
        ci = math.nan
    return ThroughputEstimate(mean, ci, n, y, t, len(sums))
