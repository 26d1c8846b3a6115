import dataclasses
import math
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import stats

from make_pins import load_pins
from rismac import (
    ConfigError,
    Decision,
    PolicyKind,
    SimulationError,
    analytic_throughput,
    apply_overrides,
    build_threshold_table,
    expected_contention_time,
    make_policy,
    replace_config,
    run_campaign,
    run_round,
    simulate_rounds,
)
from rismac import simulator
from rismac.channel import cascaded_law, pair_tables
from rismac.simulator import BLOCK_ROUNDS, STREAM_ROUNDS
from rismac.contention import winner_weights


@pytest.fixture(scope="module")
def policies(cfg, table):
    return {kind: make_policy(kind, cfg, table if kind is PolicyKind.PROPOSED else None)
            for kind in PolicyKind}


def test_round_ledger_accounting_identity(cfg, policies):
    tau1 = cfg.tau_d - cfg.tau_m1
    rng = np.random.default_rng(99)
    for kind, policy in policies.items():
        for _ in range(150):
            led = run_round(rng, cfg, policy)
            assert led.total_time == led.contention_time_total + led.probe_time_total + tau1
            assert led.terminal in (Decision.STOP_DIRECT, Decision.STOP_RIS)
            assert led.bits >= 0.0 and led.n_attempts >= 1
            assert 1 <= led.winner <= cfg.K
            if kind is PolicyKind.NO_WAIT_DIRECT:
                assert led.terminal is Decision.STOP_DIRECT
                assert led.n_attempts == 1 and led.probe_time_total == 0.0
            if kind is PolicyKind.NO_WAIT_RIS:
                assert led.terminal is Decision.STOP_RIS
                assert led.n_attempts == 1


def test_engine_accounting_identity(cfg, policies):
    tau1 = cfg.tau_d - cfg.tau_m1
    tau_pc = cfg.tau_p + cfg.tau_c
    for kind, policy in policies.items():
        arr = simulate_rounds(cfg, policy, 8192, seed=5)
        assert np.array_equal(
            arr.total_time, arr.contention_time + arr.probe_releases * tau_pc + tau1)
        assert np.all(arr.terminal > 0)
        assert np.all(arr.attempts >= 1)
        assert np.all(arr.bits >= 0.0)
        if kind is PolicyKind.NO_WAIT_DIRECT:
            assert np.all(arr.attempts == 1)
            assert np.all(arr.terminal == 1)
        if kind is PolicyKind.NO_WAIT_RIS:
            assert np.all(arr.terminal == 2)
            assert np.all(arr.probe_releases == 0)


@pytest.mark.parametrize("kind", list(PolicyKind), ids=lambda kind: kind.value)
def test_determinism_across_worker_counts(cfg, policies, kind):
    # every discipline: q = 0 draws no release split, and a chunk whose
    # every attempt ends its round is not summed, both inside worker threads
    policy = policies[kind]
    est1 = run_campaign(cfg, policy, 40_000, seed=5, workers=1)
    est3 = run_campaign(cfg, policy, 40_000, seed=5, workers=3)
    assert est1 == est3  # bitwise identical, including the interval
    a = simulate_rounds(cfg, policy, 20_000, seed=5, workers=1)
    b = simulate_rounds(cfg, policy, 20_000, seed=5, workers=4)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_determinism_at_large_surface(cfg):
    # a full stream unit, a partial one and partial draw tiles, split over threads
    wide = replace_config(cfg, M=1024)
    policy = make_policy(PolicyKind.PROPOSED, wide, build_threshold_table(wide))
    n = STREAM_ROUNDS + 193
    est1 = run_campaign(wide, policy, n, seed=6, workers=1)
    assert run_campaign(wide, policy, n, seed=6, workers=2) == est1
    assert run_campaign(wide, policy, n, seed=6, workers=4) == est1


@pytest.mark.parametrize("workers", [1, 2])
def test_campaign_totals_are_in_order_batch_sums(cfg, policies, workers):
    # a caller can rebuild run_campaign from simulate_rounds: its totals are
    # the in-order sums of the 4,096-round slice sums, bit for bit, and its
    # interval is the two-pass regenerative one over the rounds. A slice
    # summed in another order (np.add.reduceat) moves a last bit, so all
    # four disciplines are checked
    n = 2 * STREAM_ROUNDS + 193
    starts = range(0, n, BLOCK_ROUNDS)
    for kind, policy in policies.items():
        arr = simulate_rounds(cfg, policy, n, seed=7, workers=workers)
        est = run_campaign(cfg, policy, n, seed=7, workers=workers)
        totals = [float(np.array([float(a[s:s + BLOCK_ROUNDS].sum()) for s in starts]).sum())
                  for a in (arr.bits, arr.total_time)]
        assert [est.total_bits, est.total_time] == totals, kind
        assert est.n_batches == math.ceil(n / BLOCK_ROUNDS)
        z = arr.bits - est.mean * arr.total_time
        ref = stats.t.ppf(0.975, n - 1) * z.std(ddof=1) / (math.sqrt(n) * arr.total_time.mean())
        assert est.ci_halfwidth == pytest.approx(ref, rel=1e-9, abs=0.0), kind


def test_campaign_refusals_come_before_any_thread(cfg, monkeypatch):
    # the acting law is solved once per campaign, so its refusals fire before
    # a worker pool starts, as the worker-count check does
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool started")

    monkeypatch.setattr(simulator, "ThreadPoolExecutor", no_pool)
    rare = apply_overrides(cfg, ["p=1e-300"])
    with pytest.raises(SimulationError, match="could pass int64"):
        run_campaign(rare, make_policy(PolicyKind.NO_WAIT_DIRECT, rare), 2 * STREAM_ROUNDS,
                     seed=1, workers=2)
    v = pair_tables(cfg).v
    never = dataclasses.replace(make_policy(PolicyKind.NO_WAIT_RIS, cfg),
                                zeta=np.full(v.shape, np.inf), eta=np.full(v.shape, np.inf))
    with pytest.raises(SimulationError, match="every attempt releases"):
        run_campaign(cfg, never, 2 * STREAM_ROUNDS, seed=1, workers=2)
    # q within 1e-15 of 1: an acting win takes about 5e15 slots on average,
    # so the slots of a round of many acting attempts could pass int64
    almost = dataclasses.replace(never, zeta=np.sqrt(-v * math.log(1e-15)))
    with pytest.raises(SimulationError, match="did not terminate"):
        run_campaign(cfg, almost, 2 * STREAM_ROUNDS, seed=1, workers=2)


def test_cascaded_law_resolved_once_before_any_thread(cfg, monkeypatch):
    # the engine looks the law up once per campaign, not once per stream unit
    # (each campaign here has three), and not at all for no-wait-direct
    built = []
    monkeypatch.setattr(simulator, "cascaded_law", lambda m: built.append(m) or cascaded_law(m))
    n = 3 * STREAM_ROUNDS
    for kind in PolicyKind:
        run_campaign(cfg, make_policy(kind, cfg), n, seed=1, workers=2)
    assert built == [cfg.M] * 3


def test_wide_draw_memory_is_bounded(cfg):
    # 4096 probing attempts at M = 1024 are 4M elements per leg (32 MiB each)
    # if drawn per element; the tabulated law draws one uniform per probe, and
    # the law itself (built before the traced campaign) is under 1 MB
    wide = replace_config(cfg, M=1024)
    policy = make_policy(PolicyKind.NO_WAIT_RIS, wide)
    simulate_rounds(wide, policy, 64, seed=1, workers=1)  # warm the caches
    tracemalloc.start()
    try:
        arr = simulate_rounds(wide, policy, 4096, seed=1, workers=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert arr.bits.shape == (4096,)
    assert peak < 8 * 2**20


def test_seed_changes_results(cfg, policies):
    policy = policies[PolicyKind.PROPOSED]
    est1 = run_campaign(cfg, policy, 20_000, seed=1)
    est2 = run_campaign(cfg, policy, 20_000, seed=2)
    assert est1.mean != est2.mean


def _compare_engine_and_scalar(cfg, policy, label, n_s=4000):
    """Same process, independent implementations: compare their estimates
    and how they cut rounds (attempts and probe releases per round)."""
    rng = np.random.default_rng(404)
    bits = np.empty(n_s)
    times = np.empty(n_s)
    attempts = np.empty(n_s)
    releases = np.empty(n_s)
    for i in range(n_s):
        led = run_round(rng, cfg, policy)
        bits[i], times[i] = led.bits, led.total_time
        attempts[i] = led.n_attempts
        releases[i] = round(led.probe_time_total / cfg.tau_pc)
    scalar_mean = bits.sum() / times.sum()
    arr = simulate_rounds(cfg, policy, 65_536, seed=404)
    engine_mean = arr.bits.sum() / arr.total_time.sum()
    # delta-method errors of both ratio estimates, combined
    def ratio_se(b, t):
        r = b.sum() / t.sum()
        resid = b - r * t
        return math.sqrt(np.square(resid).mean() / len(b)) / t.mean()

    se = math.hypot(ratio_se(bits, times), ratio_se(arr.bits, arr.total_time))
    assert abs(scalar_mean - engine_mean) < 5 * se
    for scalar, engine in ((attempts, arr.attempts), (releases, arr.probe_releases)):
        se = math.hypot(scalar.std(ddof=1) / math.sqrt(n_s),
                        engine.std(ddof=1) / math.sqrt(engine.size))
        assert abs(scalar.mean() - engine.mean()) <= 5 * se, label


def test_engine_and_scalar_paths_agree(cfg, policies):
    for kind in (PolicyKind.PROPOSED, PolicyKind.NO_WAIT_RIS, PolicyKind.OPTIMAL_RIS_STOP):
        _compare_engine_and_scalar(cfg, policies[kind], kind)


def test_engine_and_scalar_paths_agree_when_releases_dominate(cfg):
    # about 16 attempts per round, nearly all of them level-1 releases, which
    # the engine counts among a round's slots before its acting wins and
    # splits off in one binomial draw, and the scalar path walks
    c = apply_overrides(cfg, ["pt=30 dBm", "tau_d=100 ms"])
    policy = make_policy(PolicyKind.PROPOSED, c, build_threshold_table(c))
    _compare_engine_and_scalar(c, policy, "release-heavy")


def test_optimal_stop_attempt_law(cfg, policies):
    """Attempts-1 under a fixed accept probability must look geometric."""
    arr = simulate_rounds(cfg, policies[PolicyKind.OPTIMAL_RIS_STOP], 50_000, seed=17)
    p_hat = 1.0 / arr.attempts.mean()
    expect_var = (1.0 - p_hat) / p_hat ** 2
    assert arr.attempts.var(ddof=1) == pytest.approx(expect_var, rel=0.1)


def test_interval_covers_exact_model(cfg, policies):
    # no-wait-direct's model is exact, so its 95% interval over i.i.d. rounds
    # must cover it at the nominal rate; with 400 campaigns, 93-97% holds
    # with probability 0.95
    policy = policies[PolicyKind.NO_WAIT_DIRECT]
    model = analytic_throughput(PolicyKind.NO_WAIT_DIRECT, cfg)
    short = [run_campaign(cfg, policy, 8192, seed=s) for s in range(400)]
    coverage = np.mean([abs(e.mean - model) <= e.ci_halfwidth for e in short])
    assert 0.93 <= coverage <= 0.97, coverage
    # a 4-fold longer campaign halves the interval: the interval does not
    # depend on how a campaign is cut into slices or stream units
    long = [run_campaign(cfg, policy, 32_768, seed=s) for s in range(100)]
    ratio = np.median([e.ci_halfwidth for e in short]) / np.median([e.ci_halfwidth for e in long])
    assert ratio == pytest.approx(2.0, rel=0.1)


def test_short_campaign_interval(cfg, policies):
    # one slice still gives an interval from its rounds; one round gives none
    policy = policies[PolicyKind.NO_WAIT_DIRECT]
    est = run_campaign(cfg, policy, 4000, seed=5)
    assert math.isfinite(est.ci_halfwidth) and est.ci_halfwidth > 0.0
    assert est.n_batches == 1
    assert math.isnan(run_campaign(cfg, policy, 1, seed=5).ci_halfwidth)


def test_throughput_near_model_value(cfg, policies, table):
    est = run_campaign(cfg, policies[PolicyKind.PROPOSED], 80_000, seed=21)
    assert abs(est.mean - table.lambda_star) / table.lambda_star < 0.03
    assert est.total_bits > 0.0 and est.total_time > 0.0
    assert est.mean == pytest.approx(est.total_bits / est.total_time, rel=1e-15)


@pytest.mark.parametrize("kind, overrides", [
    (PolicyKind.OPTIMAL_RIS_STOP, ["M=1"]),
    (PolicyKind.OPTIMAL_RIS_STOP, ["M=2"]),
    (PolicyKind.OPTIMAL_RIS_STOP, ["M=64"]),
    (PolicyKind.PROPOSED, ["M=2", "pt=-38.9 dBm", "tau_d=84.9 ms"]),
], ids=["optimal-ris-stop-M=1", "optimal-ris-stop-M=2", "optimal-ris-stop-M=64",
        "proposed-M=2--38.9dBm-84.9ms"])
def test_model_matches_million_round_campaign(cfg, kind, overrides):
    """The optimal-ris-stop model is lambda_b on the exact level-2 charge, and
    the proposed model at M = 2 credits the surrogate's whole floor mass: each
    is within max(3 CI, 2e-4 relative) of a 1M-round campaign. With the floor
    credited only where X >= 0, the M = 1 model sat 5% below simulation, and
    the proposed table at -38.9 dBm made 2 pairs of 8 probe-worthy, its
    lambda* 13.6 CI below the campaign."""
    c = apply_overrides(cfg, overrides)
    table = build_threshold_table(c) if kind is PolicyKind.PROPOSED else None
    model = analytic_throughput(kind, c, table)
    est = run_campaign(c, make_policy(kind, c, table), 1_000_000, seed=31, workers=2)
    assert abs(est.mean - model) <= max(3.0 * est.ci_halfwidth, 2e-4 * model), (
        est.mean, est.ci_halfwidth, model)


def test_partial_block_and_argument_validation(cfg, policies):
    arr = simulate_rounds(cfg, policies[PolicyKind.NO_WAIT_DIRECT], 5000, seed=3)
    assert arr.bits.shape == (5000,)
    est = run_campaign(cfg, policies[PolicyKind.NO_WAIT_DIRECT], 5000, seed=3)
    assert est.n_rounds == 5000
    with pytest.raises(ValueError):
        run_campaign(cfg, policies[PolicyKind.NO_WAIT_DIRECT], 0, seed=3)
    with pytest.raises(ValueError):
        simulate_rounds(cfg, policies[PolicyKind.NO_WAIT_DIRECT], -1, seed=3)


@pytest.mark.parametrize("workers", [0, -3])
def test_worker_count_below_one_rejected(cfg, policies, workers):
    # such a count used to run one worker; it is refused before any thread starts
    threads = threading.active_count()
    with pytest.raises(ValueError, match="workers must be at least 1"):
        run_campaign(cfg, policies[PolicyKind.NO_WAIT_DIRECT], 8192, seed=3, workers=workers)
    assert threading.active_count() == threads


def test_no_surface_round_trip(cfg):
    """M = 0 still runs end to end; probing never happens."""
    off = replace_config(cfg, M=0)
    table = build_threshold_table(off)
    policy = make_policy(PolicyKind.PROPOSED, off, table)
    arr = simulate_rounds(off, policy, 4096, seed=13)
    assert np.all(arr.terminal == 1)
    assert np.all(arr.probe_releases == 0)


def test_direct_gain_underflow_rejected(cfg):
    # alpha1 = 200 puts every direct mean square below the float range (v = 0);
    # the engine refuses it before drawing, as the model does
    dark = replace_config(cfg, alpha1=200.0)
    with pytest.raises(ConfigError, match="pair 1: direct mean-square gain"):
        simulate_rounds(dark, make_policy(PolicyKind.NO_WAIT_DIRECT, dark), 4096, seed=2)


def test_round_that_never_ends_raises(cfg):
    """A policy that releases every attempt hits the attempts bound."""
    off = replace_config(cfg, M=0)
    never = dataclasses.replace(make_policy(PolicyKind.NO_WAIT_RIS, off), stop_rate=math.inf)
    with pytest.raises(SimulationError, match="did not terminate"):
        simulate_rounds(off, never, 10, seed=1)


def test_pair_too_weak_for_the_price_simulates_without_warning(cfg):
    """Pair 1's rho v is 1.9e-305, so its zeta = h_cross(lambda*) gives
    h^2 / v past the float range: its release probability is 1, and the
    proposed run neither warns nor fails on the way."""
    c = apply_overrides(cfg, ["alpha1=100",
                              "dests=1340,0; 1,10; 1,20; 1,30; 1,40; 1,50; 1,60; 1,70"])
    policy = make_policy(PolicyKind.PROPOSED, c, build_threshold_table(c))
    assert policy.zeta[0] ** 2 > pair_tables(c).v[0] * sys.float_info.max
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        est = run_campaign(c, policy, 8192, seed=5, workers=1)
    assert est.mean > 0.0


def _release_heavy(cfg):
    """M = 0 at -40 dBm / 250 ms: no pair probes, so a round is a run of
    level-1 releases ended by one direct transmission."""
    c = apply_overrides(cfg, ["M=0", "pt=-40 dBm", "tau_d=250 ms"])
    return c, make_policy(PolicyKind.PROPOSED, c, build_threshold_table(c))


def test_skipped_releases_follow_the_closed_form(cfg):
    c, policy = _release_heavy(cfg)
    v = pair_tables(c).v
    r = [1.0 - math.exp(-max(z, 0.0) ** 2 / vk) for z, vk in zip(policy.zeta, v)]
    q = float(np.dot(winner_weights(c.p), r))
    assert 0.5 < q < 1.0
    n = 200_000
    arr = simulate_rounds(c, policy, n, seed=31)
    assert np.all(arr.terminal == 1)
    # attempts per round are geometric with success probability 1 - q
    mean, sd = 1.0 / (1.0 - q), math.sqrt(q) / (1.0 - q)
    assert abs(arr.attempts.mean() - mean) <= 5 * sd / math.sqrt(n)
    # Wald: a round's contention time is its attempts times one contention's
    tau_o = expected_contention_time(c)
    wald = arr.contention_time - arr.attempts * tau_o
    assert abs(wald.mean()) <= 5 * wald.std(ddof=1) / math.sqrt(n)
    assert abs(arr.contention_time.mean() - mean * tau_o) <= (
        5 * arr.contention_time.std(ddof=1) / math.sqrt(n))


# run_campaign's (mean, total_bits, total_time), 8,192 rounds, seed 5,
# 1 worker: the reference disciplines never release at level 1, so the
# release split of a round's slots draws nothing from their streams
REFERENCE_STREAMS = {"default": [], "-40 dBm / 250 ms": ["pt=-40 dBm", "tau_d=250 ms"]}
REFERENCE_KINDS = (PolicyKind.NO_WAIT_DIRECT, PolicyKind.NO_WAIT_RIS, PolicyKind.OPTIMAL_RIS_STOP)


@pytest.mark.parametrize("where, kind",
                         [(w, k) for w in REFERENCE_STREAMS for k in REFERENCE_KINDS],
                         ids=[f"{w}-{k.value}" for w in REFERENCE_STREAMS
                              for k in REFERENCE_KINDS])
def test_reference_streams_are_pinned(cfg, where, kind):
    c = apply_overrides(cfg, REFERENCE_STREAMS[where])
    est = run_campaign(c, make_policy(kind, c), 8192, seed=5, workers=1)
    entry = "default" if where == "default" else ", ".join(REFERENCE_STREAMS[where])
    assert [est.mean.hex(), est.total_bits.hex(), est.total_time.hex()] == load_pins()[
        entry][f"stream {kind.value}"]


@pytest.mark.parametrize("gap", [0.0, 1e-9], ids=["q-rounds-to-1", "q-just-below-1"])
def test_release_forever_raises_quickly(cfg, gap):
    """Every pair releases with probability 1 - gap: at gap 0 the acting law
    does not exist, and at 1e-9 a round's mean length is far past the bound."""
    v = pair_tables(cfg).v
    zeta = np.inf if gap == 0.0 else np.sqrt(-v * math.log(gap))
    policy = dataclasses.replace(make_policy(PolicyKind.NO_WAIT_RIS, cfg),
                                 zeta=np.broadcast_to(zeta, v.shape),
                                 eta=np.full(v.shape, np.inf))
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SimulationError, match="did not terminate"):
            simulate_rounds(cfg, policy, 10, seed=1)
    assert time.perf_counter() - start < 1.0
