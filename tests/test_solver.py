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
from rismac.numerics import (BISECT_DEPTH, LOG2E, QUAD_RTOL, ROOT_XTOL, adaptive_panels,
                             bracket_root, vec_bisect)
from rismac.solver import admissible_step_band, attempt_value_and_slope, pair_thresholds, probe_form
from rismac.strategies import mean_probe_value_and_slope


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
    # floor only rises with lam; where its weight underflows, the closed form
    # is flat up to rounding
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
            c.tau2 * (np.log1p(effective_probe_snr(lam, h, tab.mu[i], tab.sigma[i], tab.rho))
                      * LOG2E) - lam * c.tau1 for i in range(c.K)])
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


@pytest.mark.parametrize("m", [1, 2])
def test_probe_values_keep_their_floor(cfg, m):
    """After a probe the winner may still give the channel back, so no probe
    value falls below -lam tau_pc, the probe's own charge: not the closed
    form at any h, and not its mean over the winner and the fading, at
    lambda_b and at prices far above it. Within 4 ulps of lam tau1, the
    largest term. With the floor credited only where X >= 0, the mean at
    M = 1 sat 2.2e-3 below it."""
    c = replace_config(cfg, M=m)
    h = np.linspace(0.0, 6.0 * math.sqrt(pair_tables(c).v.max()), 401)
    k = np.arange(1, c.K + 1)[:, None]
    for lam in (solve_lambda_b(c), 8.0, 20.0):
        floor = -lam * c.tau_pc
        tol = 4.0 * np.spacing(lam * c.tau1)
        assert probe_value(lam, h, k, c).min() >= floor - tol
        assert mean_probe_value(lam, c) >= floor - tol


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
    rho = linear_budget(off)
    v = pair_tables(off).v
    uniform = np.full(off.K, 1.0 / off.K)
    for l in (2.0, 5.0):
        direct = solver.direct_branch(l, rho * v, uniform, off.tau_d - off.tau_m1)[0]
        assert attempt_value(l, off) == pytest.approx(direct, rel=1e-12)


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


def nested_stop_gain(lam, cfg, epsabs=0.0):
    """sum_k w_k E[(R - lam)^+] by nested scipy quad, R = log2(1 + rho (h+X)^2)
    the boosted rate: the inner integral over the Gaussian surrogate X on
    |h + X| >= sqrt((2^lam - 1) / rho), where R reaches lam, the outer one over
    the exponential law of h^2 / v. R - lam is taken as log2((1 + rho y^2) /
    (1 + c)), exact near the floor. So tau2 * gain - lam * tau_pc is
    E[max(tau2 R - lam tau1, -lam tau_pc)], the level-2 charge
    mean_probe_value evaluates. The outer quad stops at 1e-12 relative or
    epsabs; its error estimates, summed over the pairs, come second."""
    tab = pair_tables(cfg)
    rho = tab.rho
    c = math.expm1(lam * math.log(2.0))
    b = math.sqrt(c / rho)
    total = err = 0.0
    for k, w in enumerate(winner_weights(cfg.p)):
        v, mu, sd = tab.v[k], tab.mu[k], tab.sigma[k]

        def excess(y):
            return math.log1p((rho * y * y - c) / (1.0 + c)) / math.log(2.0)

        def inner(h, mu=mu, sd=sd, excess=excess):
            if sd == 0.0:  # no surface: the surrogate is the point mu
                return excess(h + mu) if abs(h + mu) >= b else 0.0
            # past 40 sd the Gaussian weight is below exp(-800)
            out = 0.0
            for lo, hi in ((max(b - h, mu - 40.0 * sd), mu + 40.0 * sd),
                           (mu - 40.0 * sd, min(-b - h, mu + 40.0 * sd))):
                if lo < hi:
                    out += integrate.quad(
                        lambda x: excess(h + x) * math.exp(-0.5 * ((x - mu) / sd) ** 2),
                        lo, hi, points=[mu] if lo < mu < hi else None,
                        epsabs=0.0, epsrel=1e-12, limit=200)[0]
            return out / (sd * math.sqrt(2.0 * math.pi))

        # the inner value bends where h + mu crosses b, over a few sd
        points = sorted({min(max(b - mu + z * sd, 0.0), 9.0 * math.sqrt(v)) ** 2 / v
                         for z in (-6.0, 0.0, 6.0)} - {0.0, 81.0})
        val, e = integrate.quad(lambda u: inner(math.sqrt(v * u)) * math.exp(-u), 0.0, 81.0,
                                points=points or None, limit=400,
                                epsabs=epsabs, epsrel=1e-12)
        total, err = total + w * val, err + e
    return total, err


def test_mean_probe_value_against_library_quadrature(cfg):
    for lam in (3.0, 6.0):
        gain, err = nested_stop_gain(lam, cfg)
        assert err < 1e-10
        ref = cfg.tau2 * gain - lam * cfg.tau_pc
        assert mean_probe_value(lam, cfg) == pytest.approx(ref, abs=5e-8)


_SOLVE_GRID = [[f"pt={pt} dBm", f"tau_d={ms} ms"]
               for pt in (-60, -40, 0, 30, 80) for ms in (5, 15, 100, 250)]


@pytest.mark.parametrize("overrides", [[]] + _SOLVE_GRID, ids=lambda o: " ".join(o) or "default")
def test_build_table_accepts_given_root(cfg, overrides):
    """A table built at a given root matches the one whose root it solved,
    on the default config and the 20 solve-grid configs."""
    c = apply_overrides(cfg, overrides)
    table = build_threshold_table(c)
    again = build_threshold_table(c, lam_star=table.lambda_star)
    assert again.lambda_star == table.lambda_star
    assert again.zeta == table.zeta and again.eta == table.eta


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_integrand_fails_at_once(bad):
    """Halving cannot repair a NaN or infinite integrand; the quadrature must
    give up on the first one instead of refining until memory runs out."""
    with pytest.raises(SolverError, match="non-finite"):
        adaptive_panels(lambda rows, h: np.full_like(h, bad), [[0.0], [1.0]])


def test_quadrature_on_an_edges_array():
    """adaptive_panels takes the edges as one (n_edges, n_rows) array: a
    zero-width panel is skipped (its row integrates only its other panels),
    a call whose panels all have zero width gives a zero per integrand row,
    and a reversed panel is refused."""
    def f(rows, h):
        return np.array((3.0 * h * h, rows + 1.0))

    edges = np.array([[0.0, 1.0, 2.0], [0.5, 1.0, 2.0], [1.0, 1.0, 3.0]])
    got = adaptive_panels(f, edges)
    assert got == pytest.approx([1.0 + 19.0, 1.0 + 3.0], rel=1e-14)
    assert adaptive_panels(f, edges[:, 1:2]).tolist() == [0.0, 0.0]
    with pytest.raises(SolverError, match="reversed"):
        adaptive_panels(f, edges[::-1])


@pytest.mark.parametrize("lam", [0.0, 5.0])
def test_surface_law_without_a_surface_is_the_direct_law(cfg, lam):
    """At M = 0 every sigma is 0 and the law of h + X is the law of h, so
    fading_average over either gives the same value and slope rows for the
    same integrand and edges; only their support cuts differ."""
    c = replace_config(cfg, M=0)
    rho = pair_tables(c).rho
    b = direct_cross(lam, rho)

    def f(rows, y):
        r = np.log2(1.0 + rho * y * y) - lam
        return np.array((np.maximum(r, 0.0), r >= 0.0))

    edges = np.array((np.zeros(c.K), np.full(c.K, b), np.full(c.K, np.inf)))
    surface = solver.fading_average(c, f, edges, surface=True)
    direct = solver.fading_average(c, f, edges)
    assert surface == pytest.approx(direct, rel=1e-12, abs=0.0)
    assert direct.min() > 0.0


def test_newton_root_finds_sign_change_of_smooth_kinked_and_step():
    """The Newton root of value(x) = x (tau_o = 1, so the bracket is [0, 1])
    returns a point within ROOT_XTOL of the sign change. On the smooth and
    the kinked convex value it takes a handful of calls; on the step, whose
    slope gives no step, it bisects, as in bisection's 37 calls."""
    step_at = 0.3141592653589793
    cases = [
        # cos(x) = x
        (lambda x: (math.cos(x), -math.sin(x)), 0.7390851332151607, 8),
        # convex max of affines, kinked at 13/30; value - x crosses zero at 0.7
        (lambda x: max((1.0 - x, -1.0), (0.35 + 0.5 * x, 0.5)), 0.7, 6),
        (lambda x: (x + (1.0 if x < step_at else -1.0), 1.0), step_at, 40),
    ]
    for value, at, max_calls in cases:
        calls = []

        def counted(x, value=value):
            calls.append(x)
            return value(x)

        x = bracket_root(counted, 1.0)
        assert abs(x - at) <= ROOT_XTOL
        assert len(calls) <= max_calls


def grid_scan(f, lo, hi, iters):
    """vec_bisect's model, one column and one grid point at a time: each batch
    of d <= BISECT_DEPTH halvings steps j = 1, 2, ... through a + (b - a) j /
    2^d, capped at b, until f(point, column) is not negative, and keeps the
    cell left of that point (the top cell if there is none)."""
    out = []
    for i, (a, b) in enumerate(zip(lo.tolist(), hi.tolist())):
        left = iters
        while left > 0:
            d = min(left, BISECT_DEPTH)
            left -= d
            size = 2 ** d
            grid = [a] + [min(a + (b - a) * (j / size), b) for j in range(1, size)] + [b]
            j = 1
            while j < size and f(grid[j], i) < 0.0:
                j += 1
            a, b = grid[j - 1], grid[j]
        out.append(0.5 * (a + b))
    return np.array(out)


@pytest.mark.parametrize("steps", sorted({0, 1, BISECT_DEPTH - 1, BISECT_DEPTH, 18, 64}))
@pytest.mark.parametrize("noisy", [False, True], ids=["monotone", "noisy"])
def test_vec_bisect_is_the_one_step_loop_bitwise(steps, noisy):
    """Each call of f covers BISECT_DEPTH halvings on one grid per column, and
    the result is the one-step loop's to the bit: grid_scan, which steps one
    grid point at a time. The noisy f changes sign over 2,000 times within
    5e-7 of each root, as the overtake residual does at low power, so the
    bits also fix which sign change the grid keeps: its first. The last four
    columns have zero width, as pair_thresholds' unsolved columns do, and
    return their end whatever the sign of f there."""
    rng = np.random.default_rng(3)
    root = rng.uniform(0.2, 0.8, 16)
    lo, hi = root - rng.uniform(0.01, 1.0, 16), root + rng.uniform(0.01, 1.0, 16)
    lo[12:] = hi[12:] = root[12:] + np.array([-0.1, 0.0, 0.1, 0.3])

    def f(h, cols=slice(None)):
        # the sawtooth in h * 2^30 is exact, so both loops see the same signs
        noise = 1e-6 * (np.mod(h * 2.0 ** 30, 1.0) - 0.5) if noisy else 0.0
        return h - root[cols] + noise

    calls = []

    def counted(h):
        calls.append(h.shape)
        return f(h)

    got = vec_bisect(counted, lo, hi, steps)
    assert (got == grid_scan(f, lo, hi, steps)).all()
    assert (got[12:] == lo[12:]).all()
    assert len(calls) == -(-steps // BISECT_DEPTH)
    if noisy and steps == 64:
        h = root[:12] + np.linspace(-5e-7, 5e-7, 100_001)[:, None]
        assert (np.diff(f(h, slice(12)) < 0.0, axis=0).sum(axis=0) > 2000).all()


def one_step_thresholds(lam, cfg, pv, steps):
    """pair_thresholds as one doubling per evaluation of pv, over the
    probe-worthy pairs only, with its roots from vec_bisect; also returns
    each probe-worthy pair's number of doublings."""
    rho, _, mu, sigma, _, _ = pair_tables(cfg)
    tau1 = cfg.tau1
    h_cross = direct_cross(lam, rho)
    zeta, eta = np.full(cfg.K, h_cross), np.full(cfg.K, h_cross)
    act = np.flatnonzero(pv(h_cross) > 0.0)
    n = act.size
    rows = np.tile(act, 2)

    def gap(h):
        out = pv(h, rows)
        hu = h[..., n:]
        out[..., n:] = tau1 * (np.log2(1.0 + rho * hu * hu) - lam) - out[..., n:]
        return out

    lo = np.concatenate([np.zeros(n), np.full(n, h_cross)])
    hi = np.concatenate([np.full(n, h_cross),
                         np.maximum(2.0 * h_cross, h_cross + 8.0 * (mu[act] + 6.0 * sigma[act]))])
    doublings = np.zeros(n, dtype=int)
    for _ in range(60):
        pending = gap(hi)[n:] <= 0.0
        if not pending.any():
            break
        hi[n:][pending] *= 2.0
        doublings += pending
    else:
        raise SolverError("direct value never overtakes the probe value")
    roots = vec_bisect(gap, lo, hi, steps)
    zeta[act] = np.where(pv(0.0, act) >= 0.0, 0.0, roots[:n])
    eta[act] = roots[n:]
    return zeta, eta, doublings


def test_eta_doubling_keeps_each_pairs_first_lead(cfg, table):
    """Pair k's direct stop value is held back (the probe value raised by 1e3)
    on (h_cross, hi_k * 2^j_k), hi_k being eta's first upper end, so pair k
    first leads after j_k doublings: in different batches of 8, past 8, at 59
    of the 60 allowed, and at 60, where both loops give up."""
    lam = table.lambda_star
    rho, _, mu, sigma, _, _ = pair_tables(cfg)
    h_cross = direct_cross(lam, rho)
    pv = probe_form(lam, cfg)
    assert (pv(h_cross) > 0.0).all()
    hi = np.maximum(2.0 * h_cross, h_cross + 8.0 * (mu + 6.0 * sigma))

    def held_back(j):
        until = hi * 2.0 ** np.array(j)

        def pv_held(h, rows=None):
            rows = slice(None) if rows is None else rows
            return np.where((h > h_cross) & (h < until[rows]), 1e3, 0.0) + pv(h, rows)

        return pv_held

    j = [0, 3, 7, 8, 9, 17, 30, 59]
    for steps in (18, 64):
        zeta, eta = pair_thresholds(lam, cfg, held_back(j), steps)
        zeta_1, eta_1, doublings = one_step_thresholds(lam, cfg, held_back(j), steps)
        assert doublings.tolist() == j
        assert (zeta == zeta_1).all() and (eta == eta_1).all()
    for thresholds in (pair_thresholds, one_step_thresholds):
        with pytest.raises(SolverError, match="never overtakes"):
            thresholds(lam, cfg, held_back([0, 60, 1, 2, 3, 4, 5, 6]), 18)
    # at 0.9 lambda* of 80 dBm / 5 ms, pairs 1 and 2 are not probe-worthy and
    # pairs 7 and 8 give up at h = 0: the set-up evaluation serves all three
    # tests over every pair, and keeps one_step_thresholds' bits
    c = apply_overrides(cfg, ["pt=80 dBm", "tau_d=5 ms"])
    lam = 0.9 * float.fromhex(load_pins()["pt=80 dBm, tau_d=5 ms"]["lambda_star"])
    pv = probe_form(lam, c)
    for steps in (18, 64):
        zeta, eta = pair_thresholds(lam, c, pv, steps)
        zeta_1, eta_1, _ = one_step_thresholds(lam, c, pv, steps)
        assert (zeta == eta).tolist() == [True, True] + [False] * 6
        assert (zeta == 0.0).tolist() == [False] * 6 + [True, True]
        assert (zeta == zeta_1).all() and (eta == eta_1).all()


@pytest.mark.parametrize("name", ["default", "pt=-60 dBm, tau_d=250 ms"])
def test_threshold_solve_evaluation_count(cfg, name):
    """Cost guard, in probe-value evaluations of one pair_thresholds call at
    lambda*: one for the probe-worthy test, the give-up test at h = 0 and the
    first 8 doublings of eta's upper end together, then one per BISECT_DEPTH
    bisection steps. With those three set-up probes apart it took 7 and 16;
    one evaluation per step and per doubling takes 21 and 67 on the default
    config, and 27 and 73 at -60 dBm, where eta's upper end doubles 6 times."""
    c = apply_overrides(cfg, [] if name == "default" else name.split(", "))
    lam = float.fromhex(load_pins()[name]["lambda_star"])
    pv = probe_form(lam, c)
    for steps, expect in ((18, 5), (64, 14)):
        calls = []

        def counted(h, rows=None):
            calls.append(np.shape(h))
            return pv(h, rows)

        zeta, eta = pair_thresholds(lam, c, counted, steps)
        assert (zeta < eta).any()
        assert len(calls) == expect == 1 + -(-steps // BISECT_DEPTH)


@pytest.mark.parametrize("overrides", [[], ["pt=80 dBm", "tau_d=250 ms"],
                                       ["pt=0 dBm", "tau_d=10 s"], ["M=1024"], ["M=0"], ["M=1"]],
                         ids=["default", "80dBm-250ms", "0dBm-10s", "M=1024", "M=0", "M=1"])
def test_lambda_b_quadrature_round_count(cfg, monkeypatch, overrides):
    """Cost guard: every mean_probe_value call of a lambda_b solve converges
    in its first quadrature round, one integrand evaluation per call. With
    the floor's edges +-b alone, the six configs took 13, 12, 15, 18, 9 and
    12 evaluations for 5, 7, 10, 6, 6 and 6 calls."""
    c = apply_overrides(cfg, overrides)
    inner = solver.adaptive_panels
    calls, evaluations = [], []

    def counted(fvec, edges):
        calls.append(edges)

        def f(rows, h):
            evaluations.append(h.size)
            return fvec(rows, h)

        return inner(f, edges)

    monkeypatch.setattr(solver, "adaptive_panels", counted)
    assert solve_lambda_b(c) > 0.0
    assert calls and len(evaluations) == len(calls)


def _count_calls(monkeypatch, module, name):
    calls = []
    inner = getattr(module, name)

    def counted(lam, cfg, *args, **kwargs):
        calls.append(lam)
        return inner(lam, cfg, *args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("tau_d", ["5 ms", "250 ms", "10 s"])
@pytest.mark.parametrize("pt", [-60, -40, 0, 30, 80])
def test_root_lower_bound_and_call_budget(cfg, monkeypatch, pt, tau_d):
    """Each balance value falls by at most tau_d - tau_m1 per unit lam, so its
    residual is not negative at value(0) / (tau_o + tau_d - tau_m1). The root
    from lam = 0 on the value's own slope, with its curvature steps, needs at
    most 12 value-and-slope calls for lambda* and for lambda_b (Newton steps
    alone took up to 14 and 13 on these configs)."""
    c = apply_overrides(cfg, [f"pt={pt} dBm", f"tau_d={tau_d}"])
    tau_o = expected_contention_time(c)
    tau1 = c.tau_d - c.tau_m1
    for value in (attempt_value, mean_probe_value):
        lo = value(0.0, c) / (tau_o + tau1)
        assert value(lo, c) - lo * tau_o >= 0.0
    av_calls = _count_calls(monkeypatch, solver, "attempt_value_and_slope")
    assert solve_max_throughput(c) > 0.0
    assert 0 < len(av_calls) <= 12
    mpv_calls = _count_calls(monkeypatch, strategies, "mean_probe_value_and_slope")
    assert solve_lambda_b(c) > 0.0
    assert 0 < len(mpv_calls) <= 12


# each balance value with its value-and-slope entry point and its root
_BALANCES = [(attempt_value_and_slope, solve_max_throughput),
             (mean_probe_value_and_slope, solve_lambda_b)]


def test_solve_grid_root_call_count(cfg, monkeypatch):
    """Cost guard over a pass of the 20 solve-grid configs: at most 145
    value-and-slope calls for the lambda* roots and 133 for the lambda_b
    roots. Newton steps alone took 164 and 143; with curvature steps they
    take 137 and 127."""
    av_calls = _count_calls(monkeypatch, solver, "attempt_value_and_slope")
    mpv_calls = _count_calls(monkeypatch, strategies, "mean_probe_value_and_slope")
    for overrides in _SOLVE_GRID:
        c = apply_overrides(cfg, overrides)
        assert solve_max_throughput(c) > 0.0
        assert solve_lambda_b(c) > 0.0
    assert 0 < len(av_calls) <= 145
    assert 0 < len(mpv_calls) <= 133


def test_solve_grid_threshold_evaluation_count(cfg, monkeypatch):
    """Cost guard over a build_threshold_table pass of the 20 solve-grid
    configs, in probe-value evaluations of the threshold solves and in
    integrand evaluations of the quadrature. The 18-step threshold solves
    of the lambda* roots take 673 evaluations. The table's 64-step solves
    stay within their bound of 1 + ceil(64 / BISECT_DEPTH) evaluations per
    config: 267. The quadrature takes 182 integrand evaluations."""
    evaluations = {18: 0, 64: 0}
    integrand = []
    thresholds, panels = solver.pair_thresholds, solver.adaptive_panels

    def counted_thresholds(lam, c, pv, steps):
        def counted(h, rows=None, **kwargs):
            evaluations[steps] += 1
            return pv(h, rows, **kwargs)

        return thresholds(lam, c, counted, steps)

    def counted_panels(fvec, edges):
        def f(rows, h):
            integrand.append(h.size)
            return fvec(rows, h)

        return panels(f, edges)

    monkeypatch.setattr(solver, "pair_thresholds", counted_thresholds)
    monkeypatch.setattr(solver, "adaptive_panels", counted_panels)
    for overrides in _SOLVE_GRID:
        assert build_threshold_table(apply_overrides(cfg, overrides)).lambda_star > 0.0
    assert 0 < evaluations[18] <= 673
    assert 0 < evaluations[64] <= len(_SOLVE_GRID) * (1 + -(-64 // BISECT_DEPTH))
    assert 0 < len(integrand) <= 182


@pytest.mark.parametrize("overrides", [o for o in _SOLVE_GRID if not o[0].startswith("pt=-")],
                         ids=" ".join)
def test_balance_slope_matches_central_difference(cfg, overrides):
    """The slope row of each balance value is the value's own lam-derivative:
    within 1e-5 relative of a central difference of step 1e-5 lam, at half
    the root and at the root."""
    c = apply_overrides(cfg, overrides)
    for value_and_slope, solve in _BALANCES:
        root = solve(c)
        for lam in (0.5 * root, root):
            d = 1e-5 * lam
            diff = (value_and_slope(lam + d, c)[0] - value_and_slope(lam - d, c)[0]) / (2.0 * d)
            slope = value_and_slope(lam, c)[1]
            assert abs(slope - diff) <= 1e-5 * abs(slope)


@pytest.mark.parametrize("overrides", _SOLVE_GRID + [[f"M={m}"] for m in (0, 1, 1024)],
                         ids=" ".join)
def test_balance_values_are_convex(cfg, overrides):
    """Both balance values are convex in lam (each branch is, and max and
    expectation keep it), which is what keeps a Newton step from below at or
    below the root and the secant of two slopes from below positive: second
    differences on 41 points of [0, 2 root] are not below -1e-9 |value|."""
    c = apply_overrides(cfg, overrides)
    for value_and_slope, solve in _BALANCES:
        lam = np.linspace(0.0, 2.0 * solve(c), 41)
        v = np.array([value_and_slope(x, c)[0] for x in lam])
        assert (v[:-2] - 2.0 * v[1:-1] + v[2:] >= -1e-9 * np.abs(v[1:-1])).all()


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


def reference_lambda_b_residual(lam, cfg):
    """mean_probe_value(lam) - lam*tau_o by the nested quadrature of the
    level-2 charge, tau2 * nested_stop_gain - lam*(tau_pc + tau_o). The gain
    over the floor is the size of the residual's terms near the root, not
    lam*tau1; its outer quad stops at 1e-12 relative or 1e-13 of
    lam*(tau_pc + tau_o), the gain's size at the root."""
    cost = lam * (cfg.tau_pc + expected_contention_time(cfg))
    return cfg.tau2 * nested_stop_gain(lam, cfg, epsabs=1e-13 * cost / cfg.tau2)[0] - cost


@pytest.mark.parametrize("overrides", [
    ["pt=-60 dBm", "tau_d=5 ms"], ["pt=-60 dBm", "tau_d=250 ms"], ["pt=-60 dBm", "tau_d=10 s"],
    ["pt=-40 dBm", "tau_d=10 s"], ["pt=0 dBm", "tau_d=10 s"], [], ["M=1"],
    ["pt=80 dBm", "tau_d=10 s", "M=1024"],
], ids=["-60dBm-5ms", "-60dBm-250ms", "-60dBm-10s", "-40dBm-10s", "0dBm-10s", "default",
        "M=1", "80dBm-10s-M=1024"])
def test_lambda_b_matches_reference_quadrature(cfg, overrides):
    """lambda_b is the root of the reference residual to a relative r: the
    residual changes sign between lambda_b (1 - r) and lambda_b (1 + r).

    r = 1e-9 at pt >= 0 dBm. At pt <= -40 dBm the quadrature sets the bound:
    mean_probe_value is good to QUAD_RTOL of terms of size lam*tau1, while the
    residual falls by about tau_pc + tau_o per unit lam, so lambda_b is good
    to r = QUAD_RTOL * tau1 / (tau_pc + tau_o), 5.8e-9 at 5 ms, 3e-7 at 250 ms
    and 1.2e-5 at 10 s."""
    c = apply_overrides(cfg, overrides)
    r = 1e-9
    if c.pt < 1e-6:  # below -30 dBm: the -60 and -40 dBm cases
        r = QUAD_RTOL * c.tau1 / (c.tau_pc + expected_contention_time(c))
    lam = solve_lambda_b(c)
    assert reference_lambda_b_residual(lam * (1.0 - r), c) > 0.0
    assert reference_lambda_b_residual(lam * (1.0 + r), c) < 0.0


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
    ["M=0"], ["M=1"], ["M=8"], ["M=8", "pt=-40 dBm"],
    ["M=2", "pt=-38.9 dBm", "tau_d=84.9 ms"],  # 8 of 8 pairs probe-worthy
    ["pt=80 dBm", "tau_d=5 ms"],   # no pair probe-worthy
    ["pt=80 dBm", "tau_d=15 ms"],  # 6 of 8 pairs probe-worthy
    ["p=0.05,0.6,0.05,0.05,0.6,0.05,0.05,0.05"],  # unequal winner weights
], ids=["M=0", "M=1", "M=8", "M=8--40dBm", "M=2--38.9dBm-84.9ms", "80dBm-5ms", "80dBm-15ms",
        "heterogeneous-p"])
def test_attempt_value_matches_nested_quadrature(cfg, overrides):
    """Dominated pairs enter the probe correction as empty panels; with none,
    some or all of the pairs probe-worthy, and with unequal winner weights,
    attempt_value(lambda*) is the nested-quadrature value. The closed form
    credits the SNR floor on the surrogate's whole mass below it: crediting it
    only where X >= 0 left the value 1.1e-4 low at M = 8, 4.9e-4 at M = 8 /
    -40 dBm and 9.7% at M = 2 / -38.9 dBm / 84.9 ms."""
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
    # is past float-max: the pair's value and slope are 0 without an overflow
    # warning, and a quotient in range keeps its bits
    tau1 = cfg.tau1
    w = np.array([1.9e-305, 1e8])
    weak = solver.direct_branch(26.0, w, np.array([1.0, 0.0]), tau1)
    strong = solver.direct_branch(26.0, w, np.array([0.0, 1.0]), tau1)
    assert weak[0] == 0.0 and weak[1] == 0.0
    c = math.expm1(26.0 * math.log(2.0))
    assert strong[0] == tau1 * LOG2E * _scaled_e1(1.0 / w[1], (1.0 + c) / w[1])
    assert strong[1] == pytest.approx(-tau1 * math.exp(-c / w[1]), rel=1e-15)


def test_rate_past_float_range_is_a_solver_error(cfg):
    with pytest.raises(SolverError, match="float range"):
        attempt_value(2000.0, cfg)
    with pytest.raises(SolverError, match="float range"):
        direct_cross(2000.0, linear_budget(cfg))
