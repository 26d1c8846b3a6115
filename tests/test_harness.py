"""The harness's relative gap, root check on near-zero models, its one
lambda_b solve per sweep point and its model values under a non-uniform
winner law."""

import math

from rismac import apply_overrides, default_config, make_policy, run_campaign, solve_lambda_b
from rismac import build_threshold_table, strategies
from rismac.harness import AXES, cmd_simulate, cmd_sweep, cmd_validate, relative_gap
from rismac.strategies import PolicyKind


def test_sweep_strict_fails_when_model_is_zero():
    # `simulate --strict` and `sweep --strict` read this gap: a zero model
    # against a non-zero simulation is an infinite gap, zero against zero none
    assert relative_gap(1e-7, 0.0) == math.inf
    assert relative_gap(0.0, 0.0) == 0.0


def test_validate_root_check_is_relative():
    # lambda* is of order 1e-5 here; an absolute stop left it 3.6% low
    cfg = apply_overrides(default_config(), ["pt=-40 dBm"])
    checks = {c.name: c for c in cmd_validate(cfg, n_rounds=4096, seed=3, tol=0.05)}
    assert checks["root bracket"].ok


def test_sweep_solves_lambda_b_once_per_point(monkeypatch):
    cfg = default_config()
    calls = []

    def counted(c):
        calls.append(c)
        return solve_lambda_b(c)

    monkeypatch.setattr(strategies, "solve_lambda_b", counted)
    rows = cmd_sweep(cfg, "pt", [26.0, 30.0], [PolicyKind.OPTIMAL_RIS_STOP], 2000, 5)
    assert len(calls) == 2
    monkeypatch.undo()
    # the rows are those of a policy and a model value solved on their own
    for row in rows:
        cfg_i = AXES["pt"](cfg, row["axis_value"])
        kind = PolicyKind.OPTIMAL_RIS_STOP
        est = run_campaign(cfg_i, make_policy(kind, cfg_i), 2000, row["seed"])
        assert row["analytic_lambda"] == strategies.analytic_throughput(kind, cfg_i)
        assert (row["simulated_mean"], row["ci_halfwidth"]) == (est.mean, est.ci_halfwidth)


def test_simulate_and_validate_solve_lambda_b_once(monkeypatch):
    # the optimal-ris-stop model value is its policy's own stop rate
    cfg = default_config()
    calls = []

    def counted(c):
        calls.append(c)
        return solve_lambda_b(c)

    monkeypatch.setattr(strategies, "solve_lambda_b", counted)
    result = cmd_simulate(cfg, PolicyKind.OPTIMAL_RIS_STOP, 2000, 5)
    assert len(calls) == 1
    assert result.analytic == solve_lambda_b(cfg)
    cmd_validate(cfg, n_rounds=2000, seed=3, tol=0.05)
    assert len(calls) == 2


def test_model_values_follow_the_winner_law():
    # winner weights 0.016 and 0.452: averaging the pairs uniformly put three
    # of the four model values 2.1-2.8% above their campaigns
    cfg = apply_overrides(default_config(), ["p=0.05,0.6,0.05,0.05,0.6,0.05,0.05,0.05"])
    table = build_threshold_table(cfg)
    for kind in PolicyKind:
        result = cmd_simulate(cfg, kind, 200_000, 3,
                              table=table if kind is PolicyKind.PROPOSED else None)
        est = result.estimate
        margin = max(3.0 * est.ci_halfwidth, 5e-3 * result.analytic)
        assert abs(est.mean - result.analytic) <= margin, (kind, est, result.analytic)
