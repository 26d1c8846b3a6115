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

Two implementations of the same process: a scalar reference that walks one
round at a time through the per-decision functions, and a block engine that
advances 4096 rounds per wave of vectorized draws. Each block owns a counter
RNG stream derived from (seed, block index), so campaign results are
bit-identical for any worker count.
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
    draw_cascaded,
    draw_direct,
    linear_budget,
    pair_tables,
    rate_direct,
    rate_ris,
)
from .config import NetworkConfig
from .contention import (
    idle_probability,
    simulate_contention,
    success_probability,
    winner_weights,
)
from .strategies import (
    Decision,
    Policy,
    PolicyKind,
    decide_level1_threshold,
    threshold_params,
)

BLOCK_ROUNDS = 4096
_MAX_WAVES = 100_000


class SimulationError(RuntimeError):
    pass


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

    The scalar reference for the block engine, kept for tests.
    """
    rho = linear_budget(cfg)
    tau1 = cfg.tau_d - cfg.tau_m1
    tau2 = cfg.tau_d - cfg.tau_m2
    tau_pc = cfg.tau_p + cfg.tau_c
    path: list[Decision] = []
    cont_total = 0.0
    probe_rels = 0
    for attempt in range(1, _MAX_WAVES + 1):
        outcome = simulate_contention(rng, cfg)
        cont_total += outcome.elapsed
        k = outcome.winner
        h = draw_direct(rng, cfg, k)
        if policy.kind is PolicyKind.PROPOSED:
            d1 = decide_level1_threshold(h, k, policy.table, cfg)
        elif policy.kind is PolicyKind.NO_WAIT_DIRECT:
            d1 = Decision.STOP_DIRECT
        else:
            d1 = Decision.ASSIST_RIS
        path.append(d1)
        if d1 is Decision.STOP_DIRECT:
            bits = tau1 * rate_direct(rho, h)
            break
        if d1 is Decision.CONTINUE:
            continue
        rr = rate_ris(rho, h, draw_cascaded(rng, cfg, k))
        if rr >= policy.stop_rate:
            path.append(Decision.STOP_RIS)
            bits = tau2 * rr
            break
        path.append(Decision.CONTINUE)
        probe_rels += 1
    else:
        raise SimulationError(f"round did not terminate in {_MAX_WAVES} attempts")
    probe_time = probe_rels * tau_pc
    total = cont_total + probe_time + tau1
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


class _CompiledPolicy(NamedTuple):
    mode: PolicyKind
    stop_rate: float
    v: np.ndarray
    ms1: np.ndarray
    ms2: np.ndarray
    zeta: np.ndarray
    eta: np.ndarray
    worthy: np.ndarray
    h_cross: float
    cum_weights: np.ndarray
    p_success: float
    idle_frac: float


def _compile(cfg: NetworkConfig, policy: Policy) -> _CompiledPolicy:
    tab = pair_tables(cfg)
    p_s = success_probability(cfg.p)
    p_idle = idle_probability(cfg.p)
    idle_frac = p_idle / (1.0 - p_s) if p_s < 1.0 else 0.0
    return _CompiledPolicy(policy.kind, policy.stop_rate, tab.v, tab.ms1, tab.ms2,
                           *threshold_params(policy.table, cfg),
                           np.cumsum(winner_weights(cfg.p)), p_s, idle_frac)


def _block_rng(seed: int, block: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(block,))
    return np.random.Generator(np.random.Philox(ss))


def _simulate_block(seed: int, block: int, n_rounds: int, cfg: NetworkConfig,
                    pol: _CompiledPolicy) -> RoundArrays:
    rng = _block_rng(seed, block)
    rho = linear_budget(cfg)
    tau1 = cfg.tau_d - cfg.tau_m1
    tau2 = cfg.tau_d - cfg.tau_m2
    tau_pc = cfg.tau_p + cfg.tau_c
    n = n_rounds
    bits = np.zeros(n)
    cont_time = np.zeros(n)
    releases = np.zeros(n, dtype=np.int64)
    attempts = np.zeros(n, dtype=np.int64)
    terminal = np.zeros(n, dtype=np.uint8)
    active = np.arange(n)
    for _ in range(_MAX_WAVES):
        if active.size == 0:
            break
        m = active.size
        attempts[active] += 1
        # contention: failed slots before success, split idle vs collision
        if pol.p_success >= 1.0:
            fails = np.zeros(m, dtype=np.int64)
        else:
            fails = rng.geometric(pol.p_success, m).astype(np.int64) - 1
        n_idle = rng.binomial(fails, pol.idle_frac)
        n_coll = fails - n_idle
        cont_time[active] += (cfg.tau_m1 + n_idle * cfg.delta + n_coll * cfg.tau_r)
        winners = np.searchsorted(pol.cum_weights, rng.random(m), side="right")
        winners = np.minimum(winners, cfg.K - 1)
        h = np.sqrt(pol.v[winners] * -np.log1p(-rng.random(m)))
        # level-1 codes: 0 transmit direct, 1 probe, 2 release
        if pol.mode is PolicyKind.NO_WAIT_DIRECT:
            codes = np.zeros(m, dtype=np.uint8)
        elif pol.mode is PolicyKind.PROPOSED:
            codes = np.where(
                pol.worthy[winners],
                np.where(h >= pol.eta[winners], 0,
                         np.where(h <= pol.zeta[winners], 2, 1)),
                np.where(h >= pol.h_cross, 0, 2)).astype(np.uint8)
        else:
            codes = np.ones(m, dtype=np.uint8)
        direct = codes == 0
        rows = active[direct]
        bits[rows] = tau1 * np.log2(1.0 + rho * np.square(h[direct]))
        terminal[rows] = 1
        assist = codes == 1
        next_active = active[codes == 2]
        if assist.any():
            rows = active[assist]
            ww = winners[assist]
            na = rows.size
            leg1 = np.sqrt(pol.ms1[ww][:, None] * -np.log1p(-rng.random((na, cfg.M))))
            leg2 = np.sqrt(pol.ms2[ww][:, None] * -np.log1p(-rng.random((na, cfg.M))))
            boosted = h[assist] + (leg1 * leg2).sum(axis=1)
            rr = np.log2(1.0 + rho * np.square(boosted))
            stop = rr >= pol.stop_rate
            srows = rows[stop]
            bits[srows] = tau2 * rr[stop]
            terminal[srows] = 2
            crows = rows[~stop]
            releases[crows] += 1
            next_active = np.concatenate([next_active, crows])
            next_active.sort()
        active = next_active
    else:
        raise SimulationError(f"block {block} did not terminate in {_MAX_WAVES} waves")
    total = cont_time + releases * tau_pc + tau1
    return RoundArrays(bits, total, cont_time, releases, attempts, terminal)


def _run_blocks(cfg: NetworkConfig, policy: Policy, n_rounds: int, seed: int,
                workers: int | None, reduce) -> list:
    """reduce(RoundArrays) of every block of an n_rounds campaign, in block
    order, on up to `workers` threads (RISMAC_THREADS, else min(4, CPUs))."""
    if n_rounds <= 0:
        raise ValueError("n_rounds must be positive")
    pol = _compile(cfg, policy)
    full, rem = divmod(n_rounds, BLOCK_ROUNDS)
    plan = [(i, BLOCK_ROUNDS) for i in range(full)] + ([(full, rem)] if rem else [])
    if workers is None:
        env = os.environ.get("RISMAC_THREADS")
        workers = int(env) if env else min(4, os.cpu_count() or 1)
    nw = max(1, min(workers, len(plan)))

    def one(item):
        return reduce(_simulate_block(seed, item[0], item[1], cfg, pol))

    if nw == 1:
        return [one(item) for item in plan]
    with ThreadPoolExecutor(max_workers=nw) as pool:
        return list(pool.map(one, plan))


def simulate_rounds(cfg: NetworkConfig, policy: Policy, n_rounds: int,
                    seed: int, workers: int | None = None) -> RoundArrays:
    """Per-round outcome arrays for n_rounds rounds (blocks concatenated)."""
    blocks = _run_blocks(cfg, policy, n_rounds, seed, workers, lambda arr: arr)
    return RoundArrays(*(np.concatenate(parts) for parts in zip(*blocks)))


@dataclass(frozen=True)
class ThroughputEstimate:
    """Ratio estimate of long-run throughput with a batch-means interval."""

    mean: float
    ci_halfwidth: float
    n_rounds: int
    total_bits: float
    total_time: float
    n_batches: int


def run_campaign(cfg: NetworkConfig, policy: Policy, n_rounds: int, seed: int,
                 workers: int | None = None, n_batches: int = 100) -> ThroughputEstimate:
    """Estimate long-run throughput (bits/s/Hz) over n_rounds rounds.

    Mean is total bits over total time; the 95% interval comes from batch
    means over contiguous block groups, so it is deterministic for a given
    seed regardless of worker count.
    """
    sums = _run_blocks(cfg, policy, n_rounds, seed, workers,
                       lambda arr: (float(arr.bits.sum()), float(arr.total_time.sum())))
    y = np.array([s[0] for s in sums])
    t = np.array([s[1] for s in sums])
    mean = float(y.sum() / t.sum())
    nb = min(n_batches, len(sums))
    if nb >= 2:
        groups_y = [g.sum() for g in np.array_split(y, nb)]
        groups_t = [g.sum() for g in np.array_split(t, nb)]
        lams = np.array(groups_y) / np.array(groups_t)
        se = float(lams.std(ddof=1)) / math.sqrt(nb)
        ci = float(special.stdtrit(nb - 1, 0.975)) * se
    else:
        ci = math.nan
    return ThroughputEstimate(mean, ci, n_rounds, float(y.sum()), float(t.sum()), nb)
