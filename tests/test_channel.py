import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, special, stats

from rismac import ConfigError, apply_overrides, replace_config
from rismac.channel import (
    LAW_CELLS,
    cascaded_law,
    cascaded_sums,
    draw_cascaded,
    draw_direct,
    linear_budget,
    pair_tables,
    rate_direct,
    rayleigh,
    rayleigh_cdf,
    rayleigh_pdf,
    surface_pdf,
)

# frozen oracles, computed by independent arithmetic from the defaults
V1 = 2.962962962962963e-07          # 150 m direct link, exponent 3
H1 = 0.0005443310539518173          # sqrt(V1)
RD_H1 = 4.9368560170078055          # log2(1 + 1e8 * V1)
D1_PAIR8 = 80.77747210701756        # hypot(75, 30)
MU1 = 0.00014386820569171408        # 32 * pi/4 * (125*125)^-1.25
SG1 = 2.00439917673653e-05
MU8 = 0.00042856254723200825
SG8 = 5.970814835160075e-05
RR_H1_MU1 = 5.595796695995245       # log2(1 + 1e8 (H1+MU1)^2)


def test_linear_budget_default(cfg):
    assert math.isclose(linear_budget(cfg), 1e8, rel_tol=1e-10)


def test_pair_geometry(cfg):
    tab = pair_tables(cfg)
    a = cfg.alpha2
    assert tab.v[0] == pytest.approx(150.0 ** -cfg.alpha1, rel=1e-14)
    assert tab.v[7] == pytest.approx(150.0 ** -cfg.alpha1, rel=1e-14)
    assert tab.ms1[0] == pytest.approx(125.0 ** -a, rel=1e-14)
    assert tab.ms2[0] == pytest.approx(125.0 ** -a, rel=1e-14)
    assert tab.ms1[7] == pytest.approx(D1_PAIR8 ** -a, rel=1e-13)
    assert tab.ms2[7] == pytest.approx(D1_PAIR8 ** -a, rel=1e-13)


def test_zero_distance_rejected(cfg):
    bad = replace_config(cfg, dests=(cfg.sources[0],) + cfg.dests[1:])
    with pytest.raises(ConfigError):
        pair_tables(bad)


def test_path_gain_outside_float_range_rejected(cfg):
    # a 1e-200 m direct or source->surface link overflows its path gain;
    # alpha1 = 200 underflows d^-alpha1 to 0, which would put every direct
    # magnitude at 0 and divide by it
    near = replace_config(cfg, dests=((1e-200, 0.0),) + cfg.dests[1:])
    with pytest.raises(ConfigError, match="pair 1: a path gain is past the float range"):
        pair_tables(near)
    with pytest.raises(ConfigError, match="pair 3: a path gain is past the float range"):
        pair_tables(replace_config(cfg, ris=(1e-200, 20.0)))
    with pytest.raises(ConfigError, match="pair 1: direct mean-square gain .* underflows"):
        pair_tables(replace_config(cfg, alpha1=200.0))
    # the direct SNR scale rho * v must have a finite reciprocal: a tiny gain,
    # or a budget whose product pt * gt underflows to 0, is a config error
    for item in (["gt=1e-310"], ["pt=-1700 dBm", "gt=1e-200"]):
        with pytest.raises(ConfigError, match="pair 1: direct mean-square gain .* underflows"):
            pair_tables(apply_overrides(cfg, item))


@pytest.mark.parametrize("draw", [draw_direct, draw_cascaded])
def test_draws_reject_pair_outside_range(cfg, draw):
    # a bare table lookup would wrap k = 0 around to pair K
    rng = np.random.default_rng(1)
    for k in (0, cfg.K + 1):
        with pytest.raises(ConfigError):
            draw(rng, cfg, k)
        with pytest.raises(ConfigError):
            draw(rng, cfg, k, 4)


def test_direct_mean_square(cfg):
    assert pair_tables(cfg).v[0] == pytest.approx(V1, rel=1e-14)
    assert pair_tables(cfg).v[7] == pytest.approx(V1, rel=1e-14)


def test_cascaded_moments_formula(cfg):
    tab = pair_tables(cfg)
    assert tab.mu[0] == pytest.approx(MU1, rel=1e-13)
    assert tab.sigma[0] == pytest.approx(SG1, rel=1e-13)
    assert tab.mu[7] == pytest.approx(MU8, rel=1e-13)
    assert tab.sigma[7] == pytest.approx(SG8, rel=1e-13)


def test_cascaded_moments_no_surface(cfg):
    off = replace_config(cfg, M=0)
    tab = pair_tables(off)
    assert tab.mu[0] == 0.0 and tab.sigma[0] == 0.0


def test_rate_oracles(cfg):
    rho = linear_budget(cfg)
    assert rate_direct(rho, H1) == pytest.approx(RD_H1, rel=1e-12)
    assert rate_direct(rho, 0.0) == 0.0
    # the surface-assisted rate is the same rate at h plus the cascaded sum
    assert rate_direct(rho, H1 + MU1) == pytest.approx(RR_H1_MU1, rel=1e-12)
    h = np.array([H1, 2 * H1])
    casc = np.zeros((2, 5))
    assert np.allclose(rate_direct(rho, h + casc.sum(axis=1)), rate_direct(rho, h), rtol=1e-14)


def test_rate_ris_empty_cascade_matches_direct(cfg):
    off = replace_config(cfg, M=0)
    rng = np.random.default_rng(3)
    casc = draw_cascaded(rng, off, 1, 64)
    assert casc.shape == (64, 0)
    h = draw_direct(rng, off, 1, 64)
    assert np.array_equal(rate_direct(linear_budget(off), h + casc.sum(axis=1)),
                          rate_direct(linear_budget(off), h))


def test_direct_draw_law(cfg):
    rng = np.random.default_rng(2024)
    n = 20000
    draws = draw_direct(rng, cfg, 1, n)
    assert draws.shape == (n,)
    # Rayleigh with mean square V1 <=> scale sqrt(V1/2)
    ks = stats.kstest(draws, "rayleigh", args=(0.0, math.sqrt(V1 / 2.0)))
    assert ks.pvalue > 0.01
    ms = np.square(draws)
    se = ms.std(ddof=1) / math.sqrt(n)
    assert abs(ms.mean() - V1) < 5 * se


@pytest.mark.parametrize("mu, sd", [(MU1, SG1), (0.1 * H1, 0.1 * H1), (0.5 * H1, 3.0 * H1)],
                         ids=["default", "M-like-1", "wide-surrogate"])
def test_surface_density_is_the_convolution(mu, sd):
    """surface_pdf is the density of h + X, h Rayleigh and X Gaussian: a quad
    of their product over h, to 1e-12, on both sides of mu and in the tails,
    and its mass is 1."""
    def conv(y):
        return integrate.quad(lambda h: rayleigh_pdf(h, V1) * stats.norm.pdf(y - h, mu, sd),
                              0.0, 40.0 * H1, points=[max(y - mu, 0.0)], limit=200,
                              epsabs=0.0, epsrel=1e-13)[0]

    y = mu + np.array([-4.0 * sd, -sd, 0.0, 0.3 * H1, H1, 3.0 * H1 + 2.0 * sd])
    got = surface_pdf(y, V1, np.full(y.size, mu), np.full(y.size, sd))
    assert got == pytest.approx([conv(x) for x in y], rel=1e-12)
    mass = integrate.quad(lambda x: float(surface_pdf(x, V1, mu, sd)), mu - 10.0 * sd,
                          mu + 10.0 * sd + 8.0 * H1, points=[mu], limit=200)[0]
    assert mass == pytest.approx(1.0, abs=1e-12)


def test_surface_density_without_a_surface():
    # sigma == 0 (M = 0) is the Rayleigh law shifted by mu, bit for bit, on
    # the rows that have it; 0 below mu
    y = np.array([-H1, 0.5 * H1, 2.0 * H1, 0.5 * H1])
    mu = np.array([0.0, 0.0, 0.5 * H1, MU1])
    sd = np.array([0.0, 0.0, 0.0, SG1])
    got = surface_pdf(y, V1, mu, sd, 0.3)
    assert got[:3].tolist() == [0.0, rayleigh_pdf(0.5 * H1, V1, 0.3),
                                rayleigh_pdf(1.5 * H1, V1, 0.3)]
    assert got[3] == surface_pdf(y[3:], V1, mu[3:], sd[3:], 0.3)[0] > 0.0
    # the shapes fading_average passes: per-entry v, mu and sigma picked from
    # per-pair arrays, a stacked (2, n) weight, and sigma = 0 entries beside
    # sigma > 0 ones (m < 0 on some sigma = 0 ones); each entry is its own
    # single-entry evaluation, bit for bit
    v = np.array([V1, 2.0 * V1, 0.5 * V1, V1, 3.0 * V1])
    mu = np.array([0.0, MU1, 0.5 * H1, MU8, 0.0])
    sd = np.array([0.0, SG1, 0.0, SG8, 0.0])
    rows = np.array([3, 0, 2, 1, 4, 2, 1, 0])
    y = np.array([0.5 * H1, -0.2 * H1, 0.1 * H1, 2.0 * H1, 0.0, 1.5 * H1, MU1, -H1])
    weight = np.array([np.linspace(0.1, 0.8, y.size), np.arange(y.size) % 2])
    single = [[float(surface_pdf(y[i], v[k], mu[k], sd[k], weight[j, i]))
               for i, k in enumerate(rows)] for j in range(2)]
    assert surface_pdf(y, v[rows], mu[rows], sd[rows], weight).tolist() == single
    assert surface_pdf(y, v[rows], mu[rows], sd[rows], weight[0]).tolist() == single[0]
    # the sigma = 0 entries, m < 0 among them, are the shifted Rayleigh law
    assert [single[0][i] for i in (1, 2, 4, 7)] == [0.0] * 4
    assert single[0][5] == rayleigh_pdf(y[5] - mu[2], v[2], weight[0, 5]) > 0.0
    assert min(single[0][i] for i in (0, 3, 6)) > 0.0


def test_rayleigh_cdf_and_floored_draw():
    scale = math.sqrt(V1 / 2.0)
    h = np.array([-1.0, 0.0, 0.5 * H1, H1, 3.0 * H1, math.inf])
    assert np.allclose(rayleigh_cdf(h, V1), stats.rayleigh.cdf(h, scale=scale),
                       rtol=1e-13, atol=0.0)
    assert rayleigh_cdf(-math.inf, V1) == 0.0
    assert rayleigh_cdf(np.array([-math.inf, 0.0]), V1).tolist() == [0.0, 0.0]
    # past the floor the draw is the magnitude conditioned on exceeding it
    floor = 1.2 * H1
    draws = rayleigh(np.random.default_rng(5), V1, 20000, floor)
    assert draws.min() > floor
    tail = stats.rayleigh.sf(floor, scale=scale)
    ks = stats.kstest(draws, lambda x: 1.0 - stats.rayleigh.sf(x, scale=scale) / tail)
    assert ks.pvalue > 0.01


def test_cascaded_draw_moments(cfg):
    rng = np.random.default_rng(7)
    n = 40000
    sums = draw_cascaded(rng, cfg, 8, n).sum(axis=1)
    assert abs(sums.mean() - MU8) < 5 * SG8 / math.sqrt(n)
    assert abs(sums.std(ddof=1) - SG8) < 0.05 * SG8


def test_draw_determinism(cfg):
    a = draw_direct(np.random.default_rng(11), cfg, 3, 100)
    b = draw_direct(np.random.default_rng(11), cfg, 3, 100)
    assert np.array_equal(a, b)
    c = draw_cascaded(np.random.default_rng(11), cfg, 3, 10)
    d = draw_cascaded(np.random.default_rng(11), cfg, 3, 10)
    assert np.array_equal(c, d)


def test_scalar_draws(cfg):
    rng = np.random.default_rng(5)
    h = draw_direct(rng, cfg, 1)
    assert np.ndim(h) == 0 and h > 0
    casc = draw_cascaded(rng, cfg, 1)
    assert casc.shape == (cfg.M,)
    assert np.all(casc > 0)


def _pair_sums(cfg, k, n, seed):
    tab = pair_tables(cfg)
    return cascaded_sums(np.random.default_rng(seed), cascaded_law(cfg.M),
                         np.full(n, math.sqrt(tab.ms1[k - 1] * tab.ms2[k - 1])))


def _law_moments(law):
    # mean and variance of the law cascaded_sums draws: the CDF is linear
    # between nodes, so each cell holds a uniform share of its mass
    x = law.lo + law.step * np.arange(law.cdf.size)
    p, a, b = np.diff(law.cdf), x[:-1], x[1:]
    mean = p @ (0.5 * (a + b))
    return mean, p @ ((a * a + a * b + b * b) / 3.0) - mean * mean


@pytest.mark.parametrize("m", [1, 2, 8, 32, 64, 256, 1024, 65536])
def test_cascaded_law_moments(m):
    # no sampling: S_M has mean M pi/4 and variance M (1 - pi^2/16)
    start = time.perf_counter()
    law = cascaded_law(m)
    built = time.perf_counter() - start
    mean, var = _law_moments(law)
    assert mean == pytest.approx(m * math.pi / 4.0, rel=1e-7)
    assert var == pytest.approx(m * (1.0 - math.pi**2 / 16.0), rel=1e-5)
    assert law.cdf.size == law.guide.size == LAW_CELLS + 1
    assert law.cdf.nbytes + law.guide.nbytes <= 1_000_000
    assert law.cdf[0] == 0.0 and law.cdf[-1] == 1.0 and np.all(np.diff(law.cdf) >= 0.0)
    assert built < 0.5  # a loose guard; BENCH_cascadelaw.json has the build times


def test_cascaded_law_single_element_cdf():
    # at M = 1 the law is Z's own: CDF 1 - 2 z K1(2 z), checked between the
    # nodes as well as at them, on a grid finer than the table
    law = cascaded_law(1)
    z = np.linspace(0.0, 8.0, 400_001)[1:]
    table = np.interp(z, law.lo + law.step * np.arange(law.cdf.size), law.cdf)
    exact = 1.0 - 2.0 * z * special.k1(2.0 * z)
    assert np.max(np.abs(table - exact)) < 1e-6


def test_cascaded_law_is_built_once_and_read_only():
    law = cascaded_law(8)
    assert cascaded_law(8) is law
    for a in (law.cdf, law.guide):
        with pytest.raises(ValueError):
            a[0] = 1
    none = cascaded_law(0)
    assert none.m == 0 and none.step == 0.0


def test_cascaded_law_not_built_by_import_or_solve():
    # the law is built the first time a campaign needs it
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    code = ("import rismac; from rismac.channel import cascaded_law; "
            "before = cascaded_law.cache_info().currsize; "
            "rismac.build_threshold_table(rismac.default_config()); "
            "print(before, cascaded_law.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code],
                         env=env, capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.split() == ["0", "0"]


@pytest.mark.parametrize("m", [1, 2, 8, 32, 64, 1024])
def test_cascaded_sums_law_matches_oracle(cfg, m):
    # the engine's one-uniform draw from the table against the per-element oracle
    wide = replace_config(cfg, M=m)
    n = 4000
    sums = _pair_sums(wide, 8, n, seed=31)
    oracle = draw_cascaded(np.random.default_rng(32), wide, 8, n).sum(axis=1)
    assert sums.shape == (n,)
    assert stats.ks_2samp(sums, oracle).pvalue > 0.01


def test_cascaded_sums_moments(cfg):
    n = 40000
    sums = _pair_sums(cfg, 8, n, seed=7)
    assert abs(sums.mean() - MU8) < 5 * SG8 / math.sqrt(n)
    assert abs(sums.std(ddof=1) - SG8) < 0.05 * SG8


def test_cascaded_sums_per_row_scale(cfg):
    # each row takes its own pair's scale
    tab = pair_tables(cfg)
    n = 20000
    pairs = np.arange(n) % 2 * 7  # rows alternate pair 1 and pair 8
    sums = cascaded_sums(np.random.default_rng(9), cascaded_law(cfg.M),
                         np.sqrt(tab.ms1[pairs] * tab.ms2[pairs]))
    for row, mu, sg in ((0, MU1, SG1), (7, MU8, SG8)):
        part = sums[pairs == row]
        assert abs(part.mean() - mu) < 5 * sg / math.sqrt(part.size)


def test_cascaded_sums_determinism(cfg):
    wide = replace_config(cfg, M=1000)
    a = _pair_sums(wide, 3, 5000, seed=11)
    assert np.array_equal(a, _pair_sums(wide, 3, 5000, seed=11))
    assert np.all(a > 0)
    assert not np.array_equal(a, _pair_sums(wide, 3, 5000, seed=12))
    # one uniform per row: a draw's rows do not depend on how many follow
    assert np.array_equal(a[:700], _pair_sums(wide, 3, 700, seed=11))


def test_cascaded_sums_empty(cfg):
    # M = 0 draws nothing, so the stream goes on as if no probe had been made
    rng = np.random.default_rng(1)
    zeros = cascaded_sums(rng, cascaded_law(0), np.ones(64))
    assert zeros.shape == (64,) and np.all(zeros == 0.0)
    assert rng.random() == np.random.default_rng(1).random()
    none = _pair_sums(cfg, 1, 0, seed=1)
    assert none.shape == (0,)
