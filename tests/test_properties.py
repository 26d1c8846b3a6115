"""Property suite over the valid configuration space: pt -60 to 80 dBm,
tau_d 1 ms to 10 s, M from 0 to 1024, K 1 to 8 and a per-pair p from 0.05
to 1. Thirty configs come from one fixed-seed draw, and four more sit at the
corners; each case must finish within 5 s and a 64 MB traced peak."""

import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from rismac import PolicyKind, analytic_throughput, build_threshold_table, default_config
from rismac.config import dbm_to_watt, replace_config

BASE = default_config()
BASELINES = (PolicyKind.NO_WAIT_DIRECT, PolicyKind.NO_WAIT_RIS, PolicyKind.OPTIMAL_RIS_STOP)
HET_P = (0.05, 0.6, 0.05, 0.05, 0.6, 0.05, 0.05, 0.05)
CASE_SECONDS = 5.0
CASE_PEAK_BYTES = 64 << 20


def _draws(n, seed=1):
    """(pt dBm, tau_d, M, K, p): pt uniform, tau_d log-uniform, M and K
    uniform over their choices, each p_k uniform on [0.05, 1]."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(n):
        pt = float(rng.uniform(-60.0, 80.0))
        tau_d = float(10.0 ** rng.uniform(-3.0, 1.0))
        M = int(rng.choice([0, 1, 2, 8, 32, 256, 1024]))
        K = int(rng.integers(1, 9))
        p = tuple(float(x) for x in rng.uniform(0.05, 1.0, K))
        cases.append((pt, tau_d, M, K, p))
    return cases


CORNERS = [
    (-60.0, 1e-3, 0, 1, (1.0,)),
    (-60.0, 10.0, 1024, 8, HET_P),
    (80.0, 10.0, 1024, 1, (0.3,)),
    (80.0, 1e-3, 0, 8, HET_P),
]
CASES = CORNERS + _draws(30)


def _case_id(case):
    pt, tau_d, M, K, _ = case
    return f"pt={pt:.1f}dBm-tau_d={tau_d:.3g}s-M={M}-K={K}"


@pytest.mark.parametrize("pt_dbm, tau_d, M, K, p", CASES, ids=[_case_id(c) for c in CASES])
def test_solve_over_valid_space(pt_dbm, tau_d, M, K, p):
    """lambda* is finite and no baseline's model value exceeds it, the
    thresholds are ordered, and nothing warns on the way."""
    cfg = replace_config(BASE, K=K, M=M, pt=dbm_to_watt(pt_dbm), tau_d=tau_d, p=p,
                         sources=BASE.sources[:K], dests=BASE.dests[:K])
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            table = build_threshold_table(cfg)
            baselines = {kind: analytic_throughput(kind, cfg) for kind in BASELINES}
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < CASE_SECONDS
    assert peak < CASE_PEAK_BYTES
    lam = table.lambda_star
    assert math.isfinite(lam) and lam >= 0.0
    for kind, value in baselines.items():
        assert lam >= value - 1e-9 * abs(value), kind
    for k in table.kstar:
        assert 0.0 <= table.zeta[k] < table.eta[k]
