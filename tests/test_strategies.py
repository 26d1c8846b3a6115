import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate

from make_pins import load_pins
from rismac import (
    ConfigError,
    Decision,
    PolicyKind,
    analytic_throughput,
    apply_overrides,
    decide_level1_reference,
    decide_level1_threshold,
    decide_level2,
    expected_contention_time,
    make_policy,
    mean_probe_value,
    probe_value,
    replace_config,
    solve_lambda_b,
    solve_max_throughput,
)
from rismac.channel import linear_budget, pair_tables, rate_direct
from rismac.contention import winner_weights
from rismac.strategies import (
    no_wait_direct_throughput,
    no_wait_ris_throughput,
    policy_from_name,
)


def test_policy_names_round_trip():
    for kind in PolicyKind:
        assert policy_from_name(kind.value) is kind
    with pytest.raises(ValueError, match="unknown policy"):
        policy_from_name("wait-forever")


def test_threshold_rule_regions(cfg, table):
    policy = make_policy(PolicyKind.PROPOSED, cfg, table)
    for k in sorted(table.kstar):
        zeta, eta = table.zeta[k], table.eta[k]
        mid = 0.5 * (zeta + eta)
        assert decide_level1_threshold(0.5 * zeta, k, policy) is Decision.CONTINUE
        assert decide_level1_threshold(mid, k, policy) is Decision.ASSIST_RIS
        assert decide_level1_threshold(2.0 * eta, k, policy) is Decision.STOP_DIRECT
        # boundary ties: at eta transmit, at zeta release
        assert decide_level1_threshold(eta, k, policy) is Decision.STOP_DIRECT
        assert decide_level1_threshold(zeta, k, policy) is Decision.CONTINUE


def test_reference_rule_matches_regions(cfg, table):
    lam = table.lambda_star
    for k in sorted(table.kstar):
        zeta, eta = table.zeta[k], table.eta[k]
        for h, expect in [(0.5 * zeta, Decision.CONTINUE),
                          (0.5 * (zeta + eta), Decision.ASSIST_RIS),
                          (2.0 * eta, Decision.STOP_DIRECT)]:
            assert decide_level1_reference(h, k, lam, cfg) is expect


def test_level2_tie_is_stop():
    assert decide_level2(5.0, 5.0) is Decision.STOP_RIS
    assert decide_level2(5.0 - 1e-12, 5.0) is Decision.CONTINUE
    assert decide_level2(7.0, 5.0) is Decision.STOP_RIS


def test_rules_agree_on_dense_grid(cfg, table):
    """Threshold comparisons reproduce the value-comparison rule exactly."""
    lam = table.lambda_star
    rho = linear_budget(cfg)
    tau1 = cfg.tau_d - cfg.tau_m1
    policy = make_policy(PolicyKind.PROPOSED, cfg, table)
    zeta, eta = policy.zeta, policy.eta
    for k in range(1, cfg.K + 1):
        i = k - 1
        h = np.linspace(1e-6, 2.0 * eta[i], 10_000)
        a = tau1 * (rate_direct(rho, h) - lam)
        b = np.asarray(probe_value(lam, h, k, cfg))
        ref = np.where((a >= b) & (a >= 0.0), 0,
                       np.where((a < 0.0) & (b < 0.0), 2, 1))
        thr = np.where(h >= eta[i], 0, np.where(h <= zeta[i], 2, 1))
        assert np.array_equal(ref, thr)
        # spot checks through the scalar entry points
        for hv in h[:: 2048]:
            assert decide_level1_reference(float(hv), k, lam, cfg) is decide_level1_threshold(
                float(hv), k, policy)


def test_nonworthy_pair_uses_direct_cutoff(cfg):
    """With the surface off, the rule degenerates to a single rate cutoff."""
    off = replace_config(cfg, M=0)
    from rismac import build_threshold_table

    table = build_threshold_table(off)
    assert table.kstar == frozenset()
    rho = linear_budget(off)
    lam = table.lambda_star
    h_cut = math.sqrt(math.expm1(lam * math.log(2.0)) / rho)
    policy = make_policy(PolicyKind.PROPOSED, off, table)
    for h in (0.5 * h_cut, 0.999999 * h_cut, 1.000001 * h_cut, 2.0 * h_cut):
        d = decide_level1_threshold(h, 1, policy)
        expect = (Decision.STOP_DIRECT if rate_direct(rho, h) >= lam
                  else Decision.CONTINUE)
        assert d is expect
        assert decide_level1_reference(h, 1, lam, off) is expect


def test_make_policy_contracts(cfg, table):
    with pytest.raises(ValueError, match="threshold table"):
        make_policy(PolicyKind.PROPOSED, cfg)
    prop = make_policy(PolicyKind.PROPOSED, cfg, table)
    assert prop.stop_rate == table.lambda_star
    for k in table.kstar:
        assert (prop.zeta[k - 1], prop.eta[k - 1]) == (table.zeta[k], table.eta[k])
    nwd = make_policy(PolicyKind.NO_WAIT_DIRECT, cfg)
    assert np.all(nwd.eta == -math.inf)  # always transmits directly
    nwr = make_policy(PolicyKind.NO_WAIT_RIS, cfg)
    assert nwr.stop_rate == -math.inf  # always transmits after probing
    opt = make_policy(PolicyKind.OPTIMAL_RIS_STOP, cfg)
    assert opt.stop_rate == pytest.approx(solve_lambda_b(cfg), abs=1e-9)
    for always_probe in (nwr, opt):
        assert np.all(always_probe.zeta == -math.inf) and np.all(always_probe.eta == math.inf)


def test_make_policy_rejects_a_table_of_another_network(cfg, table):
    # a table solved at 30 dBm must not bind to a 20 dBm network
    with pytest.raises(ConfigError, match="hash mismatch"):
        make_policy(PolicyKind.PROPOSED, apply_overrides(cfg, ["pt=20 dBm"]), table)


def test_make_policy_rejects_pairs_outside_k(cfg, table):
    nine = dataclasses.replace(table, kstar=table.kstar | {9},
                               zeta={**table.zeta, 9: table.zeta[8]},
                               eta={**table.eta, 9: table.eta[8]})
    with pytest.raises(ConfigError, match=r"outside 1\.\.8: \[9\]"):
        make_policy(PolicyKind.PROPOSED, cfg, nine)


def test_policy_thresholds_are_read_only(cfg, table):
    for kind in PolicyKind:
        policy = make_policy(kind, cfg, table)
        assert policy.zeta.shape == policy.eta.shape == (cfg.K,)
        for arr in (policy.zeta, policy.eta):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0


def test_lambda_b_balances_and_sits_below_lambda_star(cfg, table):
    lam_b = solve_lambda_b(cfg)
    tau_o = expected_contention_time(cfg)
    assert abs(mean_probe_value(lam_b, cfg) - lam_b * tau_o) < 1e-9
    # forcing a probe can only reduce the achievable balance point
    assert lam_b < table.lambda_star


def test_no_wait_direct_closed_form_vs_quadrature(cfg):
    rho = linear_budget(cfg)
    tau1 = cfg.tau_d - cfg.tau_m1
    w = winner_weights(cfg.p)
    total = 0.0
    for k in range(1, cfg.K + 1):
        v = pair_tables(cfg).v[k - 1]

        def f(h, v=v):
            return rate_direct(rho, h) * (2.0 * h / v) * math.exp(-h * h / v)

        val, err = integrate.quad(f, 0.0, math.sqrt(v * math.log(1e18)), limit=400,
                                  epsabs=1e-12, epsrel=1e-12)
        assert err < 1e-10
        total += w[k - 1] * val
    expect = tau1 * total / (expected_contention_time(cfg) + tau1)
    assert no_wait_direct_throughput(cfg) == pytest.approx(expect, rel=1e-9)


def test_no_wait_ris_analytic_vs_nested_quadrature(cfg):
    solo = replace_config(cfg, K=1, p=(0.3,),
                          sources=cfg.sources[:1], dests=cfg.dests[:1])
    rho = linear_budget(solo)
    v = pair_tables(solo).v[0]
    mu, sigma = pair_tables(solo).mu[0], pair_tables(solo).sigma[0]

    def inner(h):
        def g(x):
            pdf = math.exp(-0.5 * ((x - mu) / sigma) ** 2) / (
                sigma * math.sqrt(2.0 * math.pi))
            return math.log2(1.0 + rho * (h + x) ** 2) * pdf

        lo, hi = mu - 12 * sigma, mu + 12 * sigma
        return integrate.quad(g, lo, hi, limit=200)[0]

    def outer(h):
        return inner(h) * (2.0 * h / v) * math.exp(-h * h / v)

    mean_rate, err = integrate.quad(outer, 0.0, math.sqrt(v * math.log(1e14)),
                                    limit=200)
    assert err < 1e-8
    tau1 = solo.tau_d - solo.tau_m1
    tau2 = solo.tau_d - solo.tau_m2
    expect = tau2 * mean_rate / (expected_contention_time(solo) + tau1)
    assert no_wait_ris_throughput(solo) == pytest.approx(expect, rel=1e-7)


def test_analytic_throughput_dispatch(cfg, table):
    assert analytic_throughput(PolicyKind.PROPOSED, cfg, table) == table.lambda_star
    assert analytic_throughput(PolicyKind.NO_WAIT_DIRECT, cfg) == pytest.approx(
        no_wait_direct_throughput(cfg), rel=1e-12)
    assert analytic_throughput(PolicyKind.NO_WAIT_RIS, cfg) == pytest.approx(
        no_wait_ris_throughput(cfg), rel=1e-12)
    assert analytic_throughput(PolicyKind.OPTIMAL_RIS_STOP, cfg) == pytest.approx(
        solve_lambda_b(cfg), abs=1e-9)
    # ordering of the model predictions
    lam_star = solve_max_throughput(cfg)
    assert (no_wait_direct_throughput(cfg) < no_wait_ris_throughput(cfg)
            < lam_star)


HET_P = "p=0.05,0.6,0.05,0.05,0.6,0.05,0.05,0.05"
# pins.json entry of each case: every pair average weighs by the winner law, so
# a change of that law, of a closed form or of the quadrature tolerance moves
# lambda*, lambda_b, no-wait-direct and no-wait-ris
MODEL_PINS = {"default": "default", "p=0.1": "p=0.1", "K=5": "K=5, p=0.3", HET_P: HET_P}


def _pin_config(cfg, name):
    if name == "K=5":
        return replace_config(cfg, K=5, p=(0.3,) * 5,
                              sources=cfg.sources[:5], dests=cfg.dests[:5])
    return cfg if name == "default" else apply_overrides(cfg, [name])


@pytest.mark.parametrize("name", list(MODEL_PINS))
def test_model_values_are_pinned(cfg, name):
    c = _pin_config(cfg, name)
    pinned = load_pins()[MODEL_PINS[name]]
    values = (solve_max_throughput(c), solve_lambda_b(c),
              no_wait_direct_throughput(c), no_wait_ris_throughput(c))
    assert [x.hex() for x in values] == [pinned[f] for f in (
        "lambda_star", "optimal-ris-stop", "no-wait-direct", "no-wait-ris")]
