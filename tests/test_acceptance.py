"""End-to-end acceptance battery.

Each test covers one gate at its stated tolerance and prints a single
PASS/FAIL line (visible with pytest -s); the assert carries the same detail.
Run: pytest tests/test_acceptance.py -v -s
"""

import math
import time

import numpy as np
from scipy import stats

from rismac import (
    decide_level1_reference,
    decide_level1_threshold,
    effective_probe_snr,
    expected_contention_time,
    make_policy,
    probe_value,
    replace_config,
    run_campaign,
    run_round,
    simulate_rounds,
    solve_max_throughput,
    solve_max_throughput_fixed_point,
    throughput_residual,
    PolicyKind,
)
from rismac.channel import (cascaded_law, cascaded_sums, draw_direct, linear_budget, pair_tables,
                            rate_direct)
from rismac.config import dbm_to_watt
from rismac.contention import contention_time, draw_contention, slot_law
from rismac.numerics import binomial, binomial_table
from rismac.solver import admissible_step_band
from rismac.harness import cmd_sweep

LN2 = math.log(2.0)


def report(num: int, name: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    tail = "" if not failures else " -- " + "; ".join(failures)
    print(f"\n[criterion {num}] {status}: {name}{tail}")
    assert not failures, f"criterion {num}: " + "; ".join(failures)


def test_criterion_1_solver_convergence(cfg):
    """Fixed point converges at both admissible band ends within budget and
    matches an independent bisection root."""
    failures = []
    eps = 1.0
    lo, hi = admissible_step_band(cfg, eps)
    for alpha in (lo, hi):
        t0 = time.perf_counter()
        lam = solve_max_throughput_fixed_point(cfg, alpha=alpha, eps=eps, tol=1e-6)
        dt = time.perf_counter() - t0
        res = throughput_residual(lam, cfg)
        if not abs(res) < 1e-6:
            failures.append(f"alpha={alpha:.3g}: residual {res:.2e} >= 1e-6")
        if not dt < 10.0:
            failures.append(f"alpha={alpha:.3g}: took {dt:.1f} s >= 10 s")
    lam_bis = solve_max_throughput(cfg)
    lam_fp = solve_max_throughput_fixed_point(cfg, tol=1e-9)
    gap = abs(lam_fp - lam_bis)
    if not gap < 1e-6:
        failures.append(f"fixed point vs bisection gap {gap:.2e} >= 1e-6")
    report(1, f"solver convergence (lambda*={lam_bis:.6f}, band=[{lo:.3g},{hi:.3g}])",
           failures)


def test_criterion_2_simulation_matches_model(cfg, table):
    """Sample throughput of the proposed policy over 2e5 rounds within 3%."""
    policy = make_policy(PolicyKind.PROPOSED, cfg, table)
    est = run_campaign(cfg, policy, 200_000, seed=2024)
    gap = abs(est.mean - table.lambda_star) / table.lambda_star
    failures = []
    if not gap < 0.03:
        failures.append(f"relative gap {gap:.4%} >= 3%")
    report(2, f"simulated {est.mean:.4f} +- {est.ci_halfwidth:.4f} vs "
              f"model {table.lambda_star:.4f} (gap {gap:.3%})", failures)


def test_criterion_3_closed_form_fidelity(cfg, table):
    """Probe-SNR closed form within 0.3% of the surrogate Monte-Carlo, and
    the probe value within 3% of the exact-channel Monte-Carlo, on a 5x5
    grid of (time price, direct magnitude) around the operating point."""
    n = 10_000_000
    rho = linear_budget(cfg)
    tau1 = cfg.tau_d - cfg.tau_m1
    tau2 = cfg.tau_d - cfg.tau_m2
    tau_pc = cfg.tau_p + cfg.tau_c
    lam_star = table.lambda_star
    h_mid = math.sqrt(math.expm1(lam_star * LN2) / rho)
    lams = lam_star * np.array([0.25, 0.5, 1.0, 1.5, 2.0])
    hs = h_mid * np.array([0.25, 0.5, 1.0, 2.0, 4.0])
    failures = []
    worst_om = 0.0
    worst_lb = 0.0
    tab = pair_tables(cfg)
    for k in (1, 8):
        mu, sigma = tab.mu[k - 1], tab.sigma[k - 1]
        rng = np.random.default_rng(30_000 + k)
        x = mu + sigma * rng.standard_normal(n)
        for lam in lams:
            c = math.expm1(lam * LN2)
            for h in hs:
                mc = float(np.maximum(rho * np.square(h + x), c).mean())
                closed = float(effective_probe_snr(lam, h, mu, sigma, rho))
                rel = abs(closed - mc) / mc
                worst_om = max(worst_om, rel)
                if rel >= 0.003:
                    failures.append(
                        f"probe-SNR pair {k} lam={lam:.2f} h={h:.2e}: {rel:.3%}")
        del x
        # the exact channel's row sums, drawn as the engine draws them
        sums = cascaded_sums(rng, cascaded_law(cfg.M),
                             np.full(n, math.sqrt(tab.ms1[k - 1] * tab.ms2[k - 1])))
        for lam in lams:
            for h in hs:
                vals = np.maximum(
                    tau2 * np.log2(1.0 + rho * np.square(h + sums)) - lam * tau1,
                    -lam * tau_pc)
                mc = float(vals.mean())
                closed = float(probe_value(lam, h, k, cfg))
                scale = max(abs(mc), lam * tau_pc)
                rel = abs(closed - mc) / scale
                worst_lb = max(worst_lb, rel)
                if rel >= 0.03:
                    failures.append(
                        f"probe value pair {k} lam={lam:.2f} h={h:.2e}: {rel:.3%}")
        del sums
    report(3, f"closed forms vs MC 1e7 (worst probe-SNR {worst_om:.4%}, "
              f"worst probe value {worst_lb:.3%})", failures)


def test_criterion_4_contention_analytics(cfg):
    """1e6 simulated contentions match the mean-time formula within 0.5%
    and the winner distribution is uniform by chi-square at the 1% level."""
    tau_o = expected_contention_time(cfg)
    rng = np.random.default_rng(4040)
    law = slot_law(cfg.p)
    winners, fails = draw_contention(rng, law.p_s, 1_000_000, law.winner_table)
    n_idle = binomial(rng, binomial_table(law.idle_share), fails)
    elapsed = contention_time(cfg, 1, n_idle, fails - n_idle)
    rel = abs(elapsed.mean() - tau_o) / tau_o
    counts = np.bincount(winners - 1, minlength=cfg.K)
    pval = float(stats.chisquare(counts).pvalue)
    failures = []
    if not rel < 0.005:
        failures.append(f"mean contention time off by {rel:.4%} >= 0.5%")
    if not pval > 0.01:
        failures.append(f"winner uniformity rejected (p={pval:.4f})")
    report(4, f"mean {elapsed.mean()*1e6:.3f} us vs {tau_o*1e6:.3f} us "
              f"(gap {rel:.4%}), chi-square p={pval:.3f}", failures)


def test_criterion_5_decision_rule_equivalence(cfg, table):
    """Threshold rule and value-comparison rule agree on 1e5 random
    magnitudes per pair with zero disagreements."""
    lam = table.lambda_star
    rho = linear_budget(cfg)
    tau1 = cfg.tau_d - cfg.tau_m1
    policy = make_policy(PolicyKind.PROPOSED, cfg, table)
    zeta, eta = policy.zeta, policy.eta
    failures = []
    total = 0
    for k in range(1, cfg.K + 1):
        rng = np.random.default_rng(50_000 + k)
        h = draw_direct(rng, cfg, k, 100_000)
        a = tau1 * (rate_direct(rho, h) - lam)
        b = np.asarray(probe_value(lam, h, k, cfg))
        ref = np.where((a >= b) & (a >= 0.0), 0,
                       np.where((a < 0.0) & (b < 0.0), 2, 1))
        i = k - 1
        thr = np.where(h >= eta[i], 0, np.where(h <= zeta[i], 2, 1))
        bad = int((ref != thr).sum())
        total += bad
        if bad:
            failures.append(f"pair {k}: {bad} disagreements")
    # the scalar entry points implement the same comparisons
    for k in (1, 8):
        rng = np.random.default_rng(60_000 + k)
        for h in draw_direct(rng, cfg, k, 50):
            if decide_level1_reference(float(h), k, lam, cfg) is not decide_level1_threshold(
                    float(h), k, policy):
                failures.append(f"scalar rule mismatch pair {k} h={h:.3e}")
    report(5, f"decision rules identical on 8x1e5 draws ({total} disagreements)",
           failures)


def _sweep_index(rows):
    out = {}
    for r in rows:
        out[(r["axis_value"], r["policy"])] = r
    return out


def test_criterion_6_power_sweep(cfg):
    """Transmit-power sweep: policy ordering at the top point beyond the
    intervals, and the throughput gains across the sweep clear the floors."""
    values = [20.0, 22.0, 24.0, 26.0, 28.0, 30.0]
    rows = cmd_sweep(cfg, "pt_dbm", values, None, 100_000, seed=2026)
    by = _sweep_index(rows)
    failures = []

    def sim(v, name):
        return by[(v, name)]["simulated_mean"], by[(v, name)]["ci_halfwidth"]

    order = ["proposed", "optimal-ris-stop", "no-wait-ris", "no-wait-direct"]
    for hi_name, lo_name in zip(order, order[1:]):
        m_hi, c_hi = sim(30.0, hi_name)
        m_lo, c_lo = sim(30.0, lo_name)
        if not m_hi - c_hi > m_lo + c_lo:
            failures.append(f"at 30 dBm {hi_name} !> {lo_name} beyond intervals")
    gains = {name: max(sim(v, "proposed")[0] / sim(v, name)[0] - 1.0
                       for v in values)
             for name in order[1:]}
    floors = {"optimal-ris-stop": 0.04, "no-wait-direct": 0.50, "no-wait-ris": 0.15}
    for name, floor in floors.items():
        if not gains[name] >= floor:
            failures.append(f"gain over {name} {gains[name]:.1%} < {floor:.0%}")
    report(6, "power sweep ordering + gains "
              + ", ".join(f"{n} {g:.1%}" for n, g in gains.items()), failures)


def test_criterion_7_coherence_sweep(cfg):
    """Coherence-time sweep at 26 dBm: nondecreasing curves and gains at
    the shortest coherence time clear the floors."""
    base = replace_config(cfg, pt=dbm_to_watt(26.0))
    values = [5.0, 10.0, 15.0, 20.0, 25.0]
    rows = cmd_sweep(base, "tau_d_ms", values, None, 100_000, seed=2027)
    by = _sweep_index(rows)
    failures = []
    names = ["proposed", "optimal-ris-stop", "no-wait-ris", "no-wait-direct"]
    for name in names:
        for lo_v, hi_v in zip(values, values[1:]):
            a_lo = by[(lo_v, name)]["analytic_lambda"]
            a_hi = by[(hi_v, name)]["analytic_lambda"]
            if not a_hi >= a_lo - 1e-9:
                failures.append(f"{name} model value decreases {lo_v}->{hi_v} ms")
            m_lo, c_lo = by[(lo_v, name)]["simulated_mean"], by[(lo_v, name)]["ci_halfwidth"]
            m_hi, c_hi = by[(hi_v, name)]["simulated_mean"], by[(hi_v, name)]["ci_halfwidth"]
            if not m_hi >= m_lo - (c_lo + c_hi):
                failures.append(f"{name} simulated curve drops {lo_v}->{hi_v} ms")
    prop5 = by[(5.0, "proposed")]["simulated_mean"]
    gains = {name: prop5 / by[(5.0, name)]["simulated_mean"] - 1.0
             for name in names[1:]}
    floors = {"optimal-ris-stop": 0.05, "no-wait-direct": 0.20, "no-wait-ris": 0.08}
    for name, floor in floors.items():
        if not gains[name] >= floor:
            failures.append(f"gain at 5 ms over {name} {gains[name]:.1%} < {floor:.0%}")
    report(7, "coherence sweep monotone + gains at 5 ms "
              + ", ".join(f"{n} {g:.1%}" for n, g in gains.items()), failures)


def test_criterion_8_property_battery(cfg, table):
    """Monotonicity properties, threshold ordering, per-round accounting
    identity, and bit-level determinism under varying worker counts."""
    failures = []
    rho = linear_budget(cfg)
    lam = table.lambda_star
    tau1 = cfg.tau_d - cfg.tau_m1
    tau_pc = cfg.tau_p + cfg.tau_c

    mu, sigma = pair_tables(cfg).mu[7], pair_tables(cfg).sigma[7]
    h_grid = np.linspace(0.0, 4e-3, 200)
    om_h = effective_probe_snr(lam, h_grid, mu, sigma, rho)
    if not np.all(np.diff(om_h) > 0.0):
        failures.append("probe SNR not increasing in the direct magnitude")
    lam_grid = np.linspace(0.0, 2.5 * lam, 100)
    om_l = effective_probe_snr(lam_grid, 5e-4, mu, sigma, rho)
    # where the true derivative underflows, the closed form is flat in lam
    # up to rounding
    if not np.all(np.diff(om_l) >= -1e-9):
        failures.append("probe SNR not nondecreasing in the time price")

    lb_h = np.asarray(probe_value(lam, h_grid, 8, cfg))
    if not np.all(np.diff(lb_h) > 0.0):
        failures.append("probe value not increasing in the direct magnitude")
    for l0 in (1.0, lam, 1.8 * lam):
        d = 1e-6
        slope = (float(probe_value(l0 + d, 5e-4, 8, cfg))
                 - float(probe_value(l0 - d, 5e-4, 8, cfg))) / (2 * d)
        if not -tau1 - 1e-6 <= slope <= -tau_pc + 1e-6:
            failures.append(f"probe value slope {slope:.3e} outside band at lam={l0:.2f}")

    lam26 = solve_max_throughput(replace_config(cfg, pt=dbm_to_watt(26.0)))
    if not lam26 < lam:
        failures.append("lambda* not increasing in transmit power")

    h_mid = math.sqrt(math.expm1(lam * LN2) / rho)
    for k in sorted(table.kstar):
        if not table.zeta[k] < h_mid < table.eta[k]:
            failures.append(f"threshold ordering violated for pair {k}")

    policy = make_policy(PolicyKind.PROPOSED, cfg, table)
    arr = simulate_rounds(cfg, policy, 20_000, seed=88)
    if not np.array_equal(arr.total_time,
                          arr.contention_time + arr.probe_releases * tau_pc + tau1):
        failures.append("per-round time accounting identity broken (engine)")
    rng = np.random.default_rng(88)
    for _ in range(100):
        led = run_round(rng, cfg, policy)
        if led.total_time != led.contention_time_total + led.probe_time_total + tau1:
            failures.append("per-round time accounting identity broken (scalar)")
            break

    est1 = run_campaign(cfg, policy, 40_960, seed=777, workers=1)
    est3 = run_campaign(cfg, policy, 40_960, seed=777, workers=3)
    if est1 != est3:
        failures.append("campaign results differ across worker counts")
    a = simulate_rounds(cfg, policy, 12_288, seed=777, workers=1)
    b = simulate_rounds(cfg, policy, 12_288, seed=777, workers=4)
    if not all(np.array_equal(x, y) for x, y in zip(a, b)):
        failures.append("round arrays differ across worker counts")

    report(8, "monotonicity, threshold ordering, accounting identity, "
              "worker-count determinism", failures)
