import math

import numpy as np
import pytest
from scipy import stats

from make_pins import load_pins
from rismac import (
    ConfigError,
    apply_overrides,
    expected_contention_time,
    replace_config,
    simulate_contention,
)
from rismac.channel import cascaded_law
from rismac.contention import (contention_time, draw_contention, slot_law, winner_table,
                               winner_weights)
from rismac.numerics import binomial, binomial_table, geometric, guide_lookup

# frozen oracles from independent arithmetic
TAU_O_DEFAULT = 0.0002956803497712527
TAU_O_K2 = 0.0001375                 # K=2, p=0.5: 100us + (0.25*25 + 0.25*50)/0.5 us
TAU_O_HET = 0.00013636363636363637   # p = (0.2, 0.4)


def test_idle_and_success_oracles(cfg):
    assert slot_law(cfg.p).p_idle == pytest.approx(0.7 ** 8, rel=1e-13)
    assert slot_law(cfg.p).p_s == pytest.approx(8 * 0.3 * 0.7 ** 7, rel=1e-13)


def test_winner_weights_uniform(cfg):
    w = winner_weights(cfg.p)
    assert np.allclose(w, 1.0 / 8.0, rtol=1e-13)
    assert math.isclose(w.sum(), 1.0, rel_tol=1e-13)


def test_heterogeneous_weights():
    w = winner_weights((0.2, 0.4))
    assert w[0] == pytest.approx(0.2727272727272727, rel=1e-13)
    assert w[1] == pytest.approx(0.7272727272727272, rel=1e-13)


def test_expected_contention_time_oracles(cfg):
    assert expected_contention_time(cfg) == pytest.approx(TAU_O_DEFAULT, rel=1e-12)
    k2 = replace_config(cfg, K=2, p=(0.5, 0.5),
                        sources=cfg.sources[:2], dests=cfg.dests[:2])
    assert expected_contention_time(k2) == pytest.approx(TAU_O_K2, rel=1e-12)
    het = replace_config(cfg, K=2, p=(0.2, 0.4),
                         sources=cfg.sources[:2], dests=cfg.dests[:2])
    assert expected_contention_time(het) == pytest.approx(TAU_O_HET, rel=1e-12)


@pytest.mark.parametrize("p", [None, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8])
def test_expected_contention_time_is_pinned(cfg, p):
    # the value feeds every root and baseline: a reordered product in the slot
    # law would move lambda* in its last bits (p = 0.3 is the default's)
    c = cfg if p is None else apply_overrides(cfg, [f"p={p}"])
    entry = "default" if p in (None, 0.3) else f"p={p}"
    assert expected_contention_time(c).hex() == load_pins()[entry]["expected_contention_time"]


def test_certain_collision_rejected(cfg):
    jam = replace_config(cfg, K=2, p=(1.0, 1.0),
                         sources=cfg.sources[:2], dests=cfg.dests[:2])
    with pytest.raises(ConfigError):
        winner_weights(jam.p)
    with pytest.raises(ConfigError):
        expected_contention_time(jam)


def test_scalar_slot_simulation(cfg):
    rng = np.random.default_rng(42)
    n = 20000
    elapsed = np.empty(n)
    for i in range(n):
        out = simulate_contention(rng, cfg)
        # time decomposes exactly on the slot lattice
        assert out.elapsed == cfg.tau_m1 + out.n_idle * cfg.delta + out.n_collisions * cfg.tau_r
        assert 1 <= out.winner <= cfg.K
        elapsed[i] = out.elapsed
    se = elapsed.std(ddof=1) / math.sqrt(n)
    assert abs(elapsed.mean() - TAU_O_DEFAULT) < 5 * se


def engine_contentions(rng, cfg, n):
    """n contentions through the engine's steps: winners, elapsed, n_idle,
    n_collisions (the engine splits the failed slots once per round, by a
    binomial draw in the idle share)."""
    law = slot_law(cfg.p)
    winners, fails = draw_contention(rng, law.p_s, n, law.winner_table)
    n_idle = binomial(rng, binomial_table(law.idle_share), fails)
    n_coll = fails - n_idle
    return winners, contention_time(cfg, 1, n_idle, n_coll), n_idle, n_coll


def test_batch_slot_simulation(cfg):
    rng = np.random.default_rng(9)
    n = 200_000
    winners, elapsed, n_idle, n_coll = engine_contentions(rng, cfg, n)
    assert np.array_equal(
        elapsed, cfg.tau_m1 + n_idle * cfg.delta + n_coll * cfg.tau_r)
    se = elapsed.std(ddof=1) / math.sqrt(n)
    assert abs(elapsed.mean() - TAU_O_DEFAULT) < 5 * se
    counts = np.bincount(winners - 1, minlength=cfg.K)
    assert stats.chisquare(counts).pvalue > 0.001


def test_batch_determinism(cfg):
    a = engine_contentions(np.random.default_rng(5), cfg, 4096)
    b = engine_contentions(np.random.default_rng(5), cfg, 4096)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_batch_vs_scalar_distribution(cfg):
    rng = np.random.default_rng(31)
    n_s = 8000
    scalar = np.array([simulate_contention(rng, cfg).elapsed for _ in range(n_s)])
    _, batch, _, _ = engine_contentions(np.random.default_rng(32), cfg, 64000)
    se = math.hypot(scalar.std(ddof=1) / math.sqrt(n_s),
                    batch.std(ddof=1) / math.sqrt(batch.size))
    assert abs(scalar.mean() - batch.mean()) < 5 * se


def test_single_pair_always_wins(cfg):
    solo = replace_config(cfg, K=1, p=(1.0,),
                          sources=cfg.sources[:1], dests=cfg.dests[:1])
    out = simulate_contention(np.random.default_rng(0), solo)
    assert out.winner == 1
    assert out.elapsed == solo.tau_m1
    assert expected_contention_time(solo) == pytest.approx(solo.tau_m1, rel=1e-14)


# numerics.geometric and numerics.guide_lookup return numpy's own values: the
# slots before each acting win through geometric, on both sides of numpy's
# p = 1/3 switch and past its INT64_MAX cap (p = 1e-19 and 1e-300); winners
# and cascaded sums through guide_lookup
GEOMETRIC_P = [1e-300, 1e-19, 1e-14, 1e-9, 1e-3, "p_s", float(np.nextafter(1.0 / 3.0, 0.0)),
               1.0 / 3.0, 0.5, 0.75, 1.0]


@pytest.mark.parametrize("p", GEOMETRIC_P)
def test_geometric_is_numpys(cfg, p):
    p = slot_law(cfg.p).p_s if p == "p_s" else p
    ours, numpys = np.random.default_rng(17), np.random.default_rng(17)
    got = geometric(ours, p, 50_000)
    want = numpys.geometric(p, 50_000)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert ours.random(4).tolist() == numpys.random(4).tolist()  # the same next draws


# numerics.binomial has rng.binomial's law, not its values: at p = 0 and 1 it
# draws nothing; its table's pmf is math.comb's at every row, up to n_max, the
# end of numpy's inversion range n min(p, 1 - p) <= 30 (capped); an entry
# past n_max is numpy's own draw, after the uniforms; and 10^6 draws at n_max
# pass a chi-square against 10^6 of numpy's
BINOMIAL_P = [0.0, 1e-9, "idle_share", 0.5, 0.93, 1.0]


@pytest.mark.parametrize("p", BINOMIAL_P)
def test_binomial_law(cfg, p):
    p = slot_law(cfg.p).idle_share if p == "idle_share" else p
    table = binomial_table(p)
    counts = np.arange(300)
    ours, numpys = np.random.default_rng(19), np.random.default_rng(19)
    if p in (0.0, 1.0):
        assert binomial(ours, table, counts).tolist() == (p * counts).tolist()
        assert ours.random(4).tolist() == numpys.random(4).tolist()
        return
    q = min(p, 1.0 - p)
    assert table.n_max == min(int(30.0 / q), 255)
    nodes = table.cdf / table.scale
    for n in range(table.n_max + 1):
        first = n * (n + 1) // 2
        pmf = np.diff(np.append(nodes[first:first + n + 1], n + 1.0))
        exact = [math.comb(n, k) * q ** k * (1.0 - q) ** (n - k) for k in range(n + 1)]
        assert np.allclose(pmf, exact, rtol=0.0, atol=1e-12), n
    past = np.full(1000, table.n_max + 1)
    numpys.random(past.size)
    want = numpys.binomial(past, p)
    assert np.array_equal(binomial(ours, table, past), want)
    m = 10 ** 6
    a = binomial(ours, table, np.full(m, table.n_max))
    b = numpys.binomial(table.n_max, p, m)
    # pool each tail into the value at its 0.1% quantile
    lo, hi = np.quantile(np.concatenate((a, b)), [1e-3, 1.0 - 1e-3]).astype(int)
    if lo < hi:
        cells = [np.bincount(np.clip(x, lo, hi) - lo, minlength=hi - lo + 1) for x in (a, b)]
        assert stats.chi2_contingency(cells).pvalue > 1e-3


def _probe_points(table, n=100_000):
    """Uniforms, every node below 1 and the float just below it, every guide
    cell's left end, and the last float below 1."""
    inner = table.cdf[table.cdf < 1.0]
    cells = table.guide.size - 1
    return np.concatenate((np.random.default_rng(3).random(n), inner,
                           np.nextafter(inner[inner > 0.0], 0.0), np.arange(cells) / cells,
                           [np.nextafter(1.0, 0.0)]))


WINNER_CDFS = {
    "zero-weight pairs": np.cumsum([0.0, 0.0, 0.2, 0.0, 0.3, 0.0, 0.5, 0.0]),
    "sum past 1": np.array([0.25, 0.5, 1.0000000000000002, 1.0000000000000002]),
    "tiny weight": np.array([0.0, 1.2e-8, 0.0214, 0.348, 0.674, 1.0]),
    "tenths": np.cumsum(np.full(10, 0.1)),
    "K = 1": np.array([1.0]),
}


@pytest.mark.parametrize("name", list(WINNER_CDFS))
def test_winner_lookup_is_clamped_searchsorted(name):
    cw = WINNER_CDFS[name]
    table = winner_table(cw)
    u = np.concatenate((_probe_points(table), cw[cw < 1.0]))
    want = np.minimum(np.searchsorted(cw, u, side="right"), cw.size - 1)
    assert np.array_equal(guide_lookup(table, u), want)


def test_engine_winners_are_clamped_searchsorted(cfg):
    cum = np.cumsum(winner_weights(cfg.p))
    law = slot_law(cfg.p)
    winners, _ = draw_contention(np.random.default_rng(8), law.p_s, 20_000, law.winner_table)
    rng = np.random.default_rng(8)
    rng.geometric(slot_law(cfg.p).p_s, 20_000)
    u = rng.random(20_000)
    assert np.array_equal(winners, np.minimum(np.searchsorted(cum, u, side="right"), cfg.K - 1) + 1)


@pytest.mark.parametrize("m", [1, 32])
def test_cascaded_lookup_is_searchsorted(m):
    law = cascaded_law(m)
    u = _probe_points(law)
    want = np.searchsorted(law.cdf, u, side="right") - 1
    assert np.array_equal(guide_lookup(law, u), want)
