import math

import numpy as np
import pytest
from scipy import integrate, optimize, special

from make_pins import load_pins
from rismac import (
    ConfigError,
    PolicyKind,
    SolverError,
    analytic_throughput,
    apply_overrides,
    attempt_value,
    build_threshold_table,
    effective_probe_snr,
    expected_contention_time,
    mean_probe_value,
    parse_threshold_table,
    probe_value,
    probe_value_mc,
    replace_config,
    serialize_threshold_table,
    solve_lambda_b,
    solve_max_throughput,
    solve_max_throughput_fixed_point,
    throughput_residual,
)
from rismac import solver, strategies
from rismac.channel import direct_cross, linear_budget, pair_tables, rate_direct
from rismac.contention import winner_weights
from rismac.numerics import scaled_e1 as _scaled_e1
from rismac.numerics import LOG2E, ROOT_XTOL, adaptive_panels, zeroin
from rismac.solver import admissible_step_band


def small_config(cfg):
    """Two-pair variant for fast solver property checks."""
    return replace_config(cfg, K=2, M=16, p=(0.3, 0.3),
                          sources=cfg.sources[:2], dests=cfg.dests[:2])


def rayleigh_pdf(h, v):
    return (2.0 * h / v) * np.exp(-h * h / v)


def test_scaled_e1_matches_library_product():
    a = np.array([0.0, 1.0, 5.0])
    x = np.array([0.5, 3.0, 100.0])
    expect = np.exp(a) * special.exp1(x)
    assert np.allclose(_scaled_e1(a, x), expect, rtol=1e-12)


def test_scaled_e1_branch_continuity_and_bounds():
    for x in (699.99, 700.01):
        oracle = math.exp(0.0) * float(special.exp1(x)) * math.exp(x)
        assert float(_scaled_e1(x, x)) == pytest.approx(oracle, rel=1e-8)
    # classical envelope 1/(x+1) < exp(x) E1(x) < 1/x
    for x in (800.0, 1e4, 1e6):
        val = float(_scaled_e1(x, x))
        assert 1.0 / (x + 1.0) < val < 1.0 / x


def test_effective_probe_snr_degenerate_branches(cfg):
    c4 = math.expm1(4.0 * math.log(2.0))
    # deterministic cascade: pointwise max of the composed magnitude
    rho = 1e8
    assert effective_probe_snr(4.0, 1e-3, 2e-4, 0.0, rho) == max(
        rho * (1e-3 + 2e-4) ** 2, c4)
    assert effective_probe_snr(12.0, 1e-5, 2e-5, 0.0, rho) == max(
        rho * (1e-5 + 2e-5) ** 2, math.expm1(12.0 * math.log(2.0)))


def test_effective_probe_snr_vectorized_and_monotone(cfg):
    mu, sigma = pair_tables(cfg).mu[7], pair_tables(cfg).sigma[7]
    rho = linear_budget(cfg)
    h = np.linspace(0.0, 3e-3, 64)
    om = effective_probe_snr(5.0, h, mu, sigma, rho)
    assert om.shape == h.shape
    assert np.all(np.diff(om) > 0.0)  # increasing in the direct magnitude
    lams = np.linspace(0.0, 12.0, 25)
    om_l = effective_probe_snr(lams, 5e-4, mu, sigma, rho)
    # floor only rises with lam; where its weight underflows, the constant
    # erf term of the closed form leaves sub-1e-12 dips
    assert np.all(np.diff(om_l) >= -1e-9)


def test_effective_probe_snr_monte_carlo(cfg):
    mu, sigma = pair_tables(cfg).mu[7], pair_tables(cfg).sigma[7]
    rho = linear_budget(cfg)
    rng = np.random.default_rng(123)
    x = mu + sigma * rng.standard_normal(2_000_000)
    for lam in (2.0, 5.0, 8.0):
        c = math.expm1(lam * math.log(2.0))
        for h in (2e-4, 8e-4, 2e-3):
            mc = np.maximum(rho * np.square(h + x), c).mean()
            closed = effective_probe_snr(lam, h, mu, sigma, rho)
            assert closed == pytest.approx(mc, rel=5e-3)


_HETERO_P = (0.05, 0.6, 0.05, 0.05, 0.6, 0.05, 0.05, 0.05)


@pytest.mark.parametrize("overrides", [{}, {"M": 0}, {"p": _HETERO_P}],
                         ids=["default", "no-surface", "heterogeneous-p"])
def test_probe_form_matches_probe_value_bitwise(cfg, overrides):
    """The bound form gives every element of probe_value and of the closed
    form effective_probe_snr evaluates, with rows given or omitted."""
    c = replace_config(cfg, **overrides)
    tab = pair_tables(c)
    h = np.linspace(0.0, 3e-3, 61)
    rows = np.repeat(np.arange(c.K), h.size)
    hh = np.tile(h, c.K)
    for lam in (0.0, 2.5, 6.0, 12.0):
        pv = solver.probe_form(lam, c)
        expect = np.stack([
            c.tau2 * np.log2(1.0 + effective_probe_snr(lam, h, tab.mu[i], tab.sigma[i], tab.rho))
            - lam * c.tau1 for i in range(c.K)])
        assert (pv(h[:, None]) == expect.T).all()
        assert (pv(hh, rows) == expect.ravel()).all()
        assert (probe_value(lam, hh, rows + 1, c) == expect.ravel()).all()
        for k in range(1, c.K + 1):
            assert (pv(h, k - 1) == expect[k - 1]).all()
            assert probe_value(lam, h[7], k, c) == expect[k - 1, 7]


def test_probe_value_against_exact_channel_mc(cfg):
    lam, h, k = 4.0, 6e-4, 8
    est = probe_value_mc(lam, h, k, cfg, 400_000, np.random.default_rng(77))
    closed = float(probe_value(lam, h, k, cfg))
    scale = max(abs(est.mean), lam * (cfg.tau_p + cfg.tau_c))
    assert abs(closed - est.mean) < max(5.0 * est.stderr, 0.03 * scale)
    assert est.n == 400_000 and est.stderr > 0.0


def test_probe_value_slope_band(cfg):
    # time-price sensitivity is pinned between the full window and the probe cost
    tau1 = cfg.tau_d - cfg.tau_m1
    tau_pc = cfg.tau_p + cfg.tau_c
    d = 1e-6
    for lam in (1.0, 3.0, 6.0, 9.0):
        for h in (2e-4, 8e-4, 1.6e-3):
            up = float(probe_value(lam + d, h, 1, cfg))
            dn = float(probe_value(lam - d, h, 1, cfg))
            slope = (up - dn) / (2 * d)
            assert -tau1 - 1e-6 <= slope <= -tau_pc + 1e-6


def test_attempt_value_against_library_quadrature(cfg):
    rho = linear_budget(cfg)
    tau1 = cfg.tau_d - cfg.tau_m1
    w = winner_weights(cfg.p)
    for lam in (2.0, 6.2, 12.0):
        total = 0.0
        for k in range(1, cfg.K + 1):
            v = pair_tables(cfg).v[k - 1]

            def f(h, k=k, v=v):
                a = tau1 * (rate_direct(rho, h) - lam)
                b = float(probe_value(lam, h, k, cfg))
                return max(a, b, 0.0) * rayleigh_pdf(h, v)

            hi = math.sqrt(v * math.log(1e18))
            val, err = integrate.quad(f, 0.0, hi, limit=400,
                                      epsabs=1e-12, epsrel=1e-12)
            assert err < 1e-10
            total += w[k - 1] * val
        assert attempt_value(lam, cfg) == pytest.approx(total, abs=5e-8)


def test_attempt_value_monotone_decreasing(cfg):
    lams = np.linspace(0.0, 14.0, 15)
    vals = [attempt_value(l, cfg) for l in lams]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert all(v >= 0.0 for v in vals)


def test_residual_sign_structure(cfg):
    lam_star = solve_max_throughput(cfg)
    assert throughput_residual(0.0, cfg) > 0.0
    assert throughput_residual(lam_star * 0.5, cfg) > 0.0
    assert throughput_residual(lam_star * 1.5, cfg) < 0.0


def test_fixed_point_agrees_with_bisection(cfg):
    lam_fp = solve_max_throughput_fixed_point(cfg, tol=1e-9)
    lam_bis = solve_max_throughput(cfg)
    assert abs(lam_fp - lam_bis) < 1e-6
    assert abs(throughput_residual(lam_fp, cfg)) < 1e-9


def test_fixed_point_step_and_start_insensitivity(cfg):
    small = small_config(cfg)
    tau_o = expected_contention_time(small)
    L = tau_o + small.tau_d - small.tau_m1
    lam_bis = solve_max_throughput(small)
    for alpha in (0.5 / L, 1.0 / L, 1.5 / L):
        lam = solve_max_throughput_fixed_point(small, alpha=alpha, tol=1e-9)
        assert abs(lam - lam_bis) < 2e-6
    lam_above = solve_max_throughput_fixed_point(small, lam0=12.0, tol=1e-9)
    assert abs(lam_above - lam_bis) < 2e-6


def test_step_band_validation(cfg):
    lo, hi = admissible_step_band(cfg, 1e-3)
    assert lo == 1e-3 and hi > lo
    with pytest.raises(SolverError):
        admissible_step_band(cfg, 0.0)
    with pytest.raises(SolverError):
        admissible_step_band(cfg, 1e6)  # empty band
    with pytest.raises(SolverError):
        solve_max_throughput_fixed_point(cfg, alpha=hi * 10.0)


def test_probe_worthy_pairs_default(cfg, table):
    assert build_threshold_table(cfg, table.lambda_star).kstar == frozenset(range(1, 9))
    assert build_threshold_table(cfg, 0.0).kstar == frozenset()


def test_no_surface_makes_probing_worthless(cfg):
    off = replace_config(cfg, M=0)
    lam = solve_max_throughput(off)
    assert build_threshold_table(off, lam).kstar == frozenset()
    assert lam < solve_max_throughput(cfg)
    # with no probe branch the value is the pure direct part
    from rismac.solver import direct_value_term

    rho = linear_budget(off)
    v = pair_tables(off).v
    for l in (2.0, 5.0):
        direct = float(direct_value_term(l, rho * v, off.tau_d - off.tau_m1).sum())
        assert attempt_value(l, off) == pytest.approx(direct / off.K, rel=1e-12)


@pytest.mark.parametrize("tau_d", ["5 ms", "250 ms", "10 s"])
@pytest.mark.parametrize("pt", [-60, -40, 0, 30, 80])
def test_root_is_relative_across_power_and_coherence(cfg, pt, tau_d):
    """lambda* is brentq's root of the same residual to 1e-6 relative, from
    -60 to 80 dBm, and no baseline's model value exceeds it."""
    c = apply_overrides(cfg, [f"pt={pt} dBm", f"tau_d={tau_d}"])
    tau_o = expected_contention_time(c)
    lam = solve_max_throughput(c)
    # the root is at most attempt_value(0) / tau_o, and no rate here reaches 64
    hi = min(attempt_value(0.0, c) / tau_o, 64.0)
    ref = optimize.brentq(lambda l: throughput_residual(l, c), 0.0, hi,
                          xtol=1e-300, rtol=1e-12)
    assert abs(lam - ref) <= 1e-6 * ref
    for kind in (PolicyKind.NO_WAIT_DIRECT, PolicyKind.NO_WAIT_RIS,
                 PolicyKind.OPTIMAL_RIS_STOP):
        assert lam >= analytic_throughput(kind, c)


def test_dead_link_budget(cfg):
    # a zero budget used to solve to lambda* = 0 through its own branch in
    # every model value; a positive one whose direct SNR scale 1 / (rho v)
    # overflows made attempt_value(0) NaN and hung the root
    with pytest.raises(ConfigError, match="antenna gains"):
        replace_config(cfg, gt=0.0)
    with pytest.raises(ConfigError, match="pair 1: direct mean-square gain"):
        attempt_value(3.0, replace_config(cfg, gt=1e-310))


def test_threshold_invariants(cfg, table):
    lam = table.lambda_star
    rho = linear_budget(cfg)
    h_mid = math.sqrt(math.expm1(lam * math.log(2.0)) / rho)
    tau1 = cfg.tau_d - cfg.tau_m1
    assert table.kstar == frozenset(range(1, 9))
    for k in sorted(table.kstar):
        zeta, eta = table.zeta[k], table.eta[k]
        assert 0.0 < zeta < h_mid < eta
        assert abs(float(probe_value(lam, zeta, k, cfg))) < 1e-10
        gap = tau1 * (rate_direct(rho, eta) - lam) - float(probe_value(lam, eta, k, cfg))
        assert abs(gap) < 1e-10
        # crossing the thresholds flips the best action
        assert float(probe_value(lam, zeta * (1 - 1e-9), k, cfg)) < 0.0
        assert float(probe_value(lam, zeta * (1 + 1e-9), k, cfg)) > 0.0


@pytest.mark.parametrize("name", ["default", "M=8", "pt=30 dBm, tau_d=5 ms",
                                  "pt=80 dBm, tau_d=15 ms", "M=0"])
def test_thresholds_are_pinned(cfg, name):
    # probe-worthy rows, some of them and none of them: a change of which rows
    # the threshold routine bisects, or of how, moves these bits
    c = apply_overrides(cfg, [] if name == "default" else name.split(", "))
    t = build_threshold_table(c)
    ks = sorted(t.kstar)
    pinned = load_pins()[name]
    assert (t.lambda_star.hex(), ks, [t.zeta[k].hex() for k in ks],
            [t.eta[k].hex() for k in ks]) == (
        pinned["lambda_star"], pinned["kstar"], pinned["zeta"], pinned["eta"])


def test_table_round_trip_bitwise(cfg, table):
    text = serialize_threshold_table(table)
    back = parse_threshold_table(text)
    assert back.lambda_star == table.lambda_star
    assert back.kstar == table.kstar
    assert back.zeta == table.zeta and back.eta == table.eta
    assert back.config_hash == table.config_hash
    # no surface, no probe-worthy pair: kstar is written as 'none'
    empty = build_threshold_table(replace_config(cfg, M=0))
    assert "kstar = none" in serialize_threshold_table(empty)
    assert parse_threshold_table(serialize_threshold_table(empty)) == empty


def test_table_parse_errors(table):
    with pytest.raises(ConfigError, match="version"):
        parse_threshold_table("version = 9\nlambda_star = 1.0\nkstar = 1\n")
    text = serialize_threshold_table(table)
    broken = "\n".join(l for l in text.splitlines() if not l.startswith("zeta.3"))
    with pytest.raises(ConfigError, match="missing"):
        parse_threshold_table(broken)


def test_mean_probe_value_against_library_quadrature(cfg):
    w = winner_weights(cfg.p)
    for lam in (3.0, 6.0):
        total = 0.0
        for k in range(1, cfg.K + 1):
            v = pair_tables(cfg).v[k - 1]

            def f(h, k=k, v=v):
                return float(probe_value(lam, h, k, cfg)) * rayleigh_pdf(h, v)

            hi = math.sqrt(v * math.log(1e14))
            val, err = integrate.quad(f, 0.0, hi, limit=400,
                                      epsabs=1e-12, epsrel=1e-12)
            assert err < 1e-10
            total += w[k - 1] * val
        assert mean_probe_value(lam, cfg) == pytest.approx(total, abs=5e-8)


def test_build_table_accepts_given_root(cfg, table):
    again = build_threshold_table(cfg, lam_star=table.lambda_star)
    assert again.lambda_star == table.lambda_star
    assert again.zeta == table.zeta and again.eta == table.eta


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_integrand_fails_at_once(bad):
    """Halving cannot repair a NaN or infinite integrand; the quadrature must
    give up on the first one instead of refining until memory runs out."""
    with pytest.raises(SolverError, match="non-finite"):
        adaptive_panels(lambda rows, h: np.full_like(h, bad), [[0.0], [1.0]])


def test_zeroin_finds_sign_change_of_smooth_kinked_and_step():
    """Brent-Dekker returns a point within ROOT_XTOL of the sign change, and
    on a smooth function it takes far fewer calls than bisection's 37."""
    root = 0.7390851332151607  # cos(x) = x
    step_at = 0.3141592653589793
    cases = [
        (lambda x: math.cos(x) - x, root, 12),
        # decreasing max of affines, kinked at 13/30 and crossing zero at 0.7
        (lambda x: max(1.0 - 2.0 * x, 0.35 - 0.5 * x), 0.7, 20),
        (lambda x: 1.0 if x < step_at else -1.0, step_at, 80),
    ]
    for f, at, max_calls in cases:
        calls = []

        def counted(x, f=f):
            calls.append(x)
            return f(x)

        x = zeroin(counted, 0.0, 1.0, f(0.0), f(1.0), ROOT_XTOL)
        assert abs(x - at) <= ROOT_XTOL
        assert len(calls) <= max_calls


def _count_calls(monkeypatch, module, name):
    calls = []
    inner = getattr(module, name)

    def counted(lam, cfg):
        calls.append(lam)
        return inner(lam, cfg)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("tau_d", ["5 ms", "250 ms", "10 s"])
@pytest.mark.parametrize("pt", [-60, -40, 0, 30, 80])
def test_root_lower_bound_and_call_budget(cfg, monkeypatch, pt, tau_d):
    """Each balance value falls by at most tau_d - tau_m1 per unit lam, so its
    residual is not negative at value(0) / (tau_o + tau_d - tau_m1); from that
    bracket Brent-Dekker needs at most 20 calls for lambda* and for lambda_b."""
    c = apply_overrides(cfg, [f"pt={pt} dBm", f"tau_d={tau_d}"])
    tau_o = expected_contention_time(c)
    tau1 = c.tau_d - c.tau_m1
    for value in (attempt_value, mean_probe_value):
        lo = value(0.0, c) / (tau_o + tau1)
        assert value(lo, c) - lo * tau_o >= 0.0
    av_calls = _count_calls(monkeypatch, solver, "attempt_value")
    assert solve_max_throughput(c) > 0.0
    assert len(av_calls) <= 20
    mpv_calls = _count_calls(monkeypatch, strategies, "mean_probe_value")
    assert solve_lambda_b(c) > 0.0
    assert len(mpv_calls) <= 20


def nested_attempt_value(lam, cfg):
    """attempt_value's model by nested scipy quad: the outer integral over the
    exponential law of h^2 / v, the inner one over the Gaussian surrogate X for
    E[max(rho (h+X)^2, 2^lam - 1)], as the exact second moment plus the
    floor's excess where |h + X| < sqrt((2^lam - 1) / rho). Pairs weigh by
    the winner law."""
    rho = linear_budget(cfg)
    tau1 = cfg.tau_d - cfg.tau_m1
    tau2 = cfg.tau_d - cfg.tau_m2
    c = 2.0 ** lam - 1.0
    b = math.sqrt(c / rho)
    w = winner_weights(cfg.p)
    total = 0.0
    for k in range(1, cfg.K + 1):
        v = pair_tables(cfg).v[k - 1]
        mu, sd = pair_tables(cfg).mu[k - 1], pair_tables(cfg).sigma[k - 1]

        def floored_snr(h, mu=mu, sd=sd):
            if sd == 0.0:  # no surface: the surrogate is the point mu
                return max(rho * (h + mu) ** 2, c)
            # past 40 sd the Gaussian weight is below exp(-800): cut there, so
            # quad never chases a relative tolerance on a zero integral
            lo, hi = max(-b - h, mu - 40.0 * sd), min(b - h, mu + 40.0 * sd)
            excess = 0.0 if lo >= hi else integrate.quad(
                lambda x: (c - rho * (h + x) ** 2) * math.exp(-0.5 * ((x - mu) / sd) ** 2),
                lo, hi, epsabs=0.0, epsrel=1e-10)[0]
            return rho * ((h + mu) ** 2 + sd * sd) + excess / (sd * math.sqrt(2.0 * math.pi))

        def best(u, v=v, floored_snr=floored_snr):
            h = math.sqrt(v * u)
            stop = tau1 * (math.log2(1.0 + rho * h * h) - lam)
            probe = tau2 * math.log2(1.0 + floored_snr(h)) - lam * tau1
            return max(stop, probe, 0.0) * math.exp(-u)

        val, _ = integrate.quad(best, 0.0, 80.0, points=[c / (rho * v)],
                                epsabs=0.0, epsrel=1e-9, limit=200)
        total += w[k - 1] * val
    return total


def test_root_at_tiny_values_matches_nested_quadrature(cfg):
    """At -60 dBm the value integrals are about 1e-10, ten times an absolute
    1e-11 quadrature tolerance; the tolerance is relative there, so lambda*
    is within 1e-6 of the nested-quadrature root."""
    c = apply_overrides(cfg, ["pt=-60 dBm", "tau_d=250 ms"])
    tau_o = expected_contention_time(c)
    lam = solve_max_throughput(c)
    below, above = lam * (1.0 - 1e-6), lam * (1.0 + 1e-6)
    assert nested_attempt_value(below, c) - below * tau_o >= 0.0
    assert nested_attempt_value(above, c) - above * tau_o <= 0.0


def test_root_at_the_largest_surface_matches_nested_quadrature(cfg):
    """M = 65,536 is the largest surface a config accepts; lambda* is still the
    root of the nested-quadrature balance there (at 10^6 it was off by 2.5)."""
    c = replace_config(cfg, M=65_536)
    lam = solve_max_throughput(c)
    target = lam * expected_contention_time(c)
    assert abs(nested_attempt_value(lam, c) - target) <= 1e-9 * target
    with pytest.raises(ConfigError, match="M = 65537 exceeds 65536"):
        replace_config(cfg, M=65_537)


@pytest.mark.parametrize("pt", ["-40 dBm", "0 dBm"])
def test_attempt_value_at_long_coherence_matches_nested_quadrature(cfg, pt):
    """At tau_d = 10 s the overtake root eta lies past the direct law's tail;
    probe panels running out to it left attempt_value(lambda*) 7% low at
    -40 dBm. Cut at the 1 - 1e-14 quantile, it matches the nested value."""
    c = apply_overrides(cfg, [f"pt={pt}", "tau_d=10 s"])
    lam = solve_max_throughput(c)
    ref = nested_attempt_value(lam, c)
    assert abs(attempt_value(lam, c) - ref) <= 1e-8 * ref


def test_root_at_long_coherence_matches_nested_quadrature(cfg):
    # the uncut probe panels put lambda* 0.31% below the nested root here
    c = apply_overrides(cfg, ["pt=0 dBm", "tau_d=10 s"])
    lam = solve_max_throughput(c)
    tau_o = expected_contention_time(c)
    root = optimize.brentq(lambda x: nested_attempt_value(x, c) - x * tau_o,
                           0.99 * lam, 1.01 * lam, xtol=1e-14, rtol=1e-14)
    assert abs(lam - root) <= 1e-8 * root


def test_attempt_value_at_zero_price_past_the_tail(cfg):
    """At 80 dBm / 10 s / M = 1024 and lam = 0 the probe gain lives below
    h = 0.015 while eta = 5.04; both Gauss orders used to miss it, and
    attempt_value(0) came out 206.66 against 294.62."""
    c = apply_overrides(cfg, ["pt=80 dBm", "tau_d=10 s", "M=1024"])
    ref = nested_attempt_value(0.0, c)
    assert abs(attempt_value(0.0, c) - ref) <= 1e-8 * ref


@pytest.mark.parametrize("overrides", [
    ["M=0"], ["M=1"],
    ["pt=80 dBm", "tau_d=5 ms"],   # no pair probe-worthy
    ["pt=80 dBm", "tau_d=15 ms"],  # 6 of 8 pairs probe-worthy
    ["p=0.05,0.6,0.05,0.05,0.6,0.05,0.05,0.05"],  # unequal winner weights
], ids=["M=0", "M=1", "80dBm-5ms", "80dBm-15ms", "heterogeneous-p"])
def test_attempt_value_matches_nested_quadrature(cfg, overrides):
    """Dominated pairs enter the probe correction as empty panels; with none,
    some or all of the pairs probe-worthy, and with unequal winner weights,
    attempt_value(lambda*) is the nested-quadrature value. (At M = 8 the
    closed form's floor term drops the surrogate's mass below X = 0 and sits
    1.1e-4 below it.)"""
    c = apply_overrides(cfg, overrides)
    lam = solve_max_throughput(c)
    ref = nested_attempt_value(lam, c)
    assert abs(attempt_value(lam, c) - ref) <= 1e-8 * ref


def test_quadrature_panel_cap():
    """A finite integrand that never converges stops at the panel cap instead
    of doubling its panels for every remaining round."""
    rng = np.random.default_rng(3)
    with pytest.raises(SolverError, match="stalled"):
        adaptive_panels(lambda rows, h: rng.random(h.shape), [[0.0], [1.0]])


def test_root_at_extreme_power_stays_below_its_bound(cfg):
    """At 2000 dBm the lower bound is already close to lambda*, and doubling
    from it without a cap passes lam ~ 1024, past the float range of 2^lam;
    the bracket stops at the monotone upper bound value(lo) / tau_o."""
    c = apply_overrides(cfg, ["pt=2000 dBm"])
    lam = solve_max_throughput(c)
    assert lam == pytest.approx(645.66, abs=0.01)
    assert throughput_residual(lam * (1.0 - 1e-6), c) >= 0.0
    assert throughput_residual(lam * (1.0 + 1e-6), c) <= 0.0


def test_direct_value_of_a_pair_too_weak_for_the_price(cfg):
    # w = 1.9e-305 passes the 1/float-max check, but (1 + c) / w at lam = 26
    # is past float-max: the term is 0 without an overflow warning, and a
    # quotient in range keeps its bits
    tau1 = cfg.tau1
    w = np.array([1.9e-305, 1e8])
    out = solver.direct_value_term(26.0, w, tau1)
    assert out[0] == 0.0
    c = math.expm1(26.0 * math.log(2.0))
    assert out[1] == tau1 * LOG2E * _scaled_e1(1.0 / w[1], (1.0 + c) / w[1])


def test_rate_past_float_range_is_a_solver_error(cfg):
    with pytest.raises(SolverError, match="float range"):
        attempt_value(2000.0, cfg)
    with pytest.raises(SolverError, match="float range"):
        direct_cross(2000.0, linear_budget(cfg))
