"""Correctness checks for a workload's outputs, run after the timed rounds.

Every reference here is computed by the benchmark itself from the
configuration fields (link budget, geometry, slot probabilities) and SciPy
quadrature and root finding; none is a stored copy of an earlier output.
Each point of a workload is one operation: it fails when any of its checks
fails in round 1, or when a later round's outputs differ from round 1's.
"""

from __future__ import annotations

import math
import sys
import warnings

import numpy as np
from scipy import integrate, optimize

from rismac import config, harness, simulator, solver, strategies
from rismac.strategies import PolicyKind

from workloads import BLOCK, KINDS, REFERENCE_KINDS, Workload, derived_seed

ROOT_RTOL = 1e-6        # lambda* against the brentq root of the residual
ATTEMPT_RTOL = 1e-8     # attempt_value against the nested quadrature
DIRECT_RTOL = 1e-9      # no-wait-direct against its renewal-ratio quadrature
SIM_MIN_BATCHES = 16    # with fewer, the t-interval's tails fail 3*CI by chance
SAMPLE_SEED = 12345     # fixed: the simulate_rounds work counts repeat exactly
SAMPLE_ROUNDS = 2 * BLOCK
# Policies whose model value is checked against simulation. The proposed and
# optimal-ris-stop models sit 0.08-0.12% above 1M-round simulations at M = 32
# and 64 (CHANGES.md, FOUND), right at the 1e-3 floor, so that check would
# fail on some seeds only; it is left out for them.
EXACT_MODELS = {PolicyKind.NO_WAIT_DIRECT, PolicyKind.NO_WAIT_RIS}
# the only checks the known solver fault (absolute stopping rule) may fail
EXPECTED = {"root", "above-baselines"}


def link_budget(cfg) -> float:
    return cfg.pt * cfg.gt * cfg.gr * cfg.beta0 / cfg.n0


def pair_laws(cfg):
    """Per pair: direct mean square v and the cascaded sum's mean and std."""
    out = []
    rx, ry = cfg.ris
    for (sx, sy), (dx, dy) in zip(cfg.sources, cfg.dests):
        d = math.hypot(dx - sx, dy - sy)
        d12 = math.hypot(rx - sx, ry - sy) * math.hypot(dx - rx, dy - ry)
        a = cfg.alpha2
        mu = cfg.M * (math.pi / 4.0) * d12 ** (-a / 2.0)
        sd = math.sqrt(cfg.M * (1.0 - math.pi ** 2 / 16.0) * d12 ** -a)
        out.append((d ** -cfg.alpha1, mu, sd))
    return out


def contention_time(cfg) -> float:
    """Mean contention time from the idle / success / collision slot probabilities."""
    q = [1.0 - p for p in cfg.p]
    p_idle = math.prod(q)
    p_one = sum(p * math.prod(q[:k] + q[k + 1:]) for k, p in enumerate(cfg.p))
    p_coll = 1.0 - p_idle - p_one
    return cfg.tau_r + cfg.tau_c + (p_idle * cfg.delta + p_coll * cfg.tau_r) / p_one


def floored_snr(h, c, rho, mu, sd):
    """E[max(rho*(h+X)^2, c)] for X ~ Normal(mu, sd^2): the exact second
    moment plus the quadrature of the floor's excess over |h+X| < sqrt(c/rho)."""
    if sd == 0.0:
        return max(rho * (h + mu) ** 2, c)
    mean = rho * ((h + mu) ** 2 + sd * sd)
    b = math.sqrt(c / rho)
    lo, hi = max(-b - h, mu - 14.0 * sd), min(b - h, mu + 14.0 * sd)
    if hi <= lo:
        return mean

    def excess(x):
        return (c - rho * (h + x) ** 2) * math.exp(-0.5 * ((x - mu) / sd) ** 2)

    val, _ = integrate.quad(excess, lo, hi, points=[mu] if lo < mu < hi else None,
                            epsabs=0.0, epsrel=1e-13, limit=200)
    return mean + val / (sd * math.sqrt(2.0 * math.pi))


def attempt_value_ref(lam, cfg) -> float:
    """Mean over pairs of E[max(direct stop, probe, release)], integrated over
    the exponential law of h^2/v with scipy quad."""
    rho = link_budget(cfg)
    tau1 = cfg.tau_d - cfg.tau_r - cfg.tau_c
    tau2 = tau1 - cfg.tau_p - cfg.tau_c
    c = 2.0 ** lam - 1.0
    total = 0.0
    for v, mu, sd in pair_laws(cfg):
        def best(u, v=v, mu=mu, sd=sd):
            h = math.sqrt(v * u)
            stop = tau1 * (math.log2(1.0 + rho * h * h) - lam)
            probe = tau2 * math.log2(1.0 + floored_snr(h, c, rho, mu, sd)) - lam * tau1
            return max(stop, probe, 0.0) * math.exp(-u)

        u_cross = c / (rho * v)
        val, _ = integrate.quad(best, 0.0, 80.0,
                                points=[u_cross] if 0.0 < u_cross < 80.0 else None,
                                epsabs=0.0, epsrel=1e-11, limit=400)
        total += val
    return total / cfg.K


def no_wait_direct_ref(cfg) -> float:
    """tau1 * E[log2(1 + rho |h|^2)] / (tau_o + tau1), by quadrature."""
    rho = link_budget(cfg)
    tau1 = cfg.tau_d - cfg.tau_r - cfg.tau_c
    rates = [integrate.quad(lambda u, w=rho * v: math.log2(1.0 + w * u) * math.exp(-u),
                            0.0, math.inf, epsabs=0.0, epsrel=1e-12, limit=200)[0]
             for v, _, _ in pair_laws(cfg)]
    return tau1 * (sum(rates) / cfg.K) / (contention_time(cfg) + tau1)


def root_ref(cfg) -> float:
    """brentq root of attempt_value(lam) - lam * tau_o, tau_o from the slot law."""
    tau_o = contention_time(cfg)

    def g(lam):
        return solver.attempt_value(lam, cfg) - lam * tau_o

    if g(0.0) <= 0.0:
        return 0.0
    hi = 1.0
    while g(hi) > 0.0:
        hi *= 2.0
    return optimize.brentq(g, 0.0, hi, xtol=1e-300, rtol=1e-12, maxiter=500)


def rel_gap(x, ref) -> float:
    if ref == 0.0:
        return 0.0 if x == 0.0 else math.inf
    return abs(x - ref) / abs(ref)


def check_point(pt, out) -> list[tuple[str, str]]:
    """Failed (check, detail) pairs for one point's round-1 outputs."""
    table, analytic, estimates = out
    cfg, lam = pt.cfg, table.lambda_star
    bad = []
    ref = root_ref(cfg)
    if rel_gap(lam, ref) > ROOT_RTOL:
        bad.append(("root", f"lambda* {lam!r} vs brentq {ref!r}, gap {rel_gap(lam, ref):.2e}"))
    below = {k.value: analytic[k] for k in REFERENCE_KINDS if analytic[k] > lam}
    if below:
        bad.append(("above-baselines", f"lambda* {lam!r} below {below}"))
    rho = link_budget(cfg)
    h_cross = math.sqrt(math.expm1(lam * math.log(2.0)) / rho)
    for k in sorted(table.kstar):
        if not table.zeta[k] < h_cross < table.eta[k]:
            bad.append(("threshold-order",
                        f"pair {k}: {table.zeta[k]!r}, {h_cross!r}, {table.eta[k]!r}"))
    direct = no_wait_direct_ref(cfg)
    got = analytic[PolicyKind.NO_WAIT_DIRECT]
    if rel_gap(got, direct) > DIRECT_RTOL:
        bad.append(("no-wait-direct", f"{got!r} vs quadrature {direct!r}"))
    for kind, (one, two) in estimates.items():
        if repr(one) != repr(two):
            bad.append(("workers", f"{kind.value}: 1 worker {one} != 2 workers {two}"))
        if one.n_batches >= SIM_MIN_BATCHES and kind in EXACT_MODELS:
            model = analytic[kind]
            margin = max(3.0 * one.ci_halfwidth, 1e-3 * abs(model))
            if not abs(one.mean - model) <= margin:
                bad.append(("sim", f"{kind.value}: simulated {one.mean!r} vs model "
                                   f"{model!r}, margin {margin:.3g}"))
    return bad


def check_attempt_value(pt, table) -> list[tuple[str, str]]:
    got = solver.attempt_value(table.lambda_star, pt.cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        ref = attempt_value_ref(table.lambda_star, pt.cfg)
    if rel_gap(got, ref) > ATTEMPT_RTOL:
        return [("attempt-value", f"{got!r} vs quadrature {ref!r}")]
    return []


def sample_arrays(pt, table) -> dict:
    """simulate_rounds per policy on the fixed sample seed."""
    return {kind: simulator.simulate_rounds(
                pt.cfg, strategies.make_policy(kind, pt.cfg, table), SAMPLE_ROUNDS,
                SAMPLE_SEED, workers=2)
            for kind in KINDS}


def check_sample(pt, table) -> list[tuple[str, str]]:
    """The accounting identity of simulator.py on every round, plus the
    campaign totals rebuilt from the per-round arrays, bit for bit."""
    cfg = pt.cfg
    tau_pc = cfg.tau_p + cfg.tau_c
    tau1 = cfg.tau_d - cfg.tau_m1
    bad = []
    for kind, arr in sample_arrays(pt, table).items():
        name = kind.value
        if not np.array_equal(arr.total_time,
                              arr.contention_time + arr.probe_releases * tau_pc + tau1):
            bad.append(("identity", f"{name}: total != contention + releases*tau_pc + tau1"))
        if (np.any(arr.attempts < 1) or np.any(arr.probe_releases > arr.attempts - 1)
                or np.any(arr.contention_time < arr.attempts * cfg.tau_m1
                          * (1.0 - 1e-12))
                or not np.all((arr.terminal == 1) | (arr.terminal == 2))):
            bad.append(("identity", f"{name}: per-round counters out of range"))
        if kind is PolicyKind.NO_WAIT_DIRECT and not (
                np.all(arr.terminal == 1) and np.all(arr.attempts == 1)):
            bad.append(("identity", f"{name}: a round did not stop directly at once"))
        if kind is PolicyKind.NO_WAIT_RIS and not (
                np.all(arr.terminal == 2) and np.all(arr.attempts == 1)):
            bad.append(("identity", f"{name}: a round did not stop on the surface at once"))
        est = simulator.run_campaign(cfg, strategies.make_policy(kind, cfg, table),
                                     SAMPLE_ROUNDS, SAMPLE_SEED, workers=1)
        starts = range(0, SAMPLE_ROUNDS, BLOCK)
        bits = float(np.array([float(arr.bits[s:s + BLOCK].sum()) for s in starts]).sum())
        time_ = float(np.array([float(arr.total_time[s:s + BLOCK].sum())
                                for s in starts]).sum())
        if (bits, time_) != (est.total_bits, est.total_time):
            bad.append(("identity", f"{name}: simulate_rounds totals differ from run_campaign"))
    return bad


def check_replay(wl: Workload, outputs) -> list[tuple[str, str]]:
    """harness.cmd_sweep on the first sweep value must give the benchmark's row."""
    axis, values = wl.sweep
    base = config.parse_config(config.default_config_path())
    rows = harness.cmd_sweep(base, axis, values[:1], None, wl.points[0].n_rounds,
                             wl.seed, workers=2)
    _, analytic, estimates = outputs[0]
    mine = [{"axis": axis, "axis_value": values[0], "policy": kind.value,
             "analytic_lambda": analytic[kind], "simulated_mean": estimates[kind][1].mean,
             "ci_halfwidth": estimates[kind][1].ci_halfwidth,
             "n_rounds": estimates[kind][1].n_rounds, "seed": derived_seed(wl.seed, 0, j)}
            for j, kind in enumerate(KINDS)]
    if repr(rows) != repr(mine):
        return [("replay", f"cmd_sweep rows {rows} != benchmark rows {mine}")]
    return []


def check_rounds(wl: Workload, rounds) -> dict:
    """attempted / failed counts and overall correctness for a run's rounds."""
    first = rounds[0].outputs
    failures = {i: check_point(pt, first[i]) for i, pt in enumerate(wl.points)}
    for i in wl.attempt_points:
        failures[i] += check_attempt_value(wl.points[i], first[i][0])
    failures[wl.sample_point] += check_sample(wl.points[wl.sample_point],
                                              first[wl.sample_point][0])
    if wl.sweep:
        failures[0] += check_replay(wl, first)

    correct = True
    failed = 0
    for i, pt in enumerate(wl.points):
        for name, detail in failures[i]:
            unexpected = not (pt.expect_fail and name in EXPECTED)
            correct &= not unexpected
            print(f"{'FAIL' if unexpected else 'known'} {pt.label} {name}: {detail}",
                  file=sys.stderr)
        if failures[i]:
            failed += len(rounds)
            continue
        for r, rnd in enumerate(rounds[1:], start=2):
            if repr(rnd.outputs[i]) != repr(first[i]):
                print(f"FAIL {pt.label}: round {r} differs from round 1", file=sys.stderr)
                correct = False
                failed += 1
    return {"correct": correct, "attempted": len(rounds) * len(wl.points), "failed": failed}
