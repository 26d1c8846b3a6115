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
from rismac.contention import (contention_time, draw_contention, slot_law, split_failed_slots,
                               winner_weights)

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
    n_collisions (the engine splits the failed slots once per round)."""
    winners, fails = draw_contention(rng, cfg, n)
    n_idle, n_coll = split_failed_slots(rng, cfg, fails)
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
