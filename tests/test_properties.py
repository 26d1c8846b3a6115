"""Property suite over the valid configuration space: pt -60 to 80 dBm,
tau_d 1 ms to 10 s, M from 0 to 1024, K 1 to 8 and p 0.05 to 1."""

import math
import warnings

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rismac import PolicyKind, analytic_throughput, build_threshold_table, default_config
from rismac.config import dbm_to_watt, replace_config

BASE = default_config()
BASELINES = (PolicyKind.NO_WAIT_DIRECT, PolicyKind.NO_WAIT_RIS, PolicyKind.OPTIMAL_RIS_STOP)


@settings(derandomize=True, deadline=None, max_examples=25, database=None)
@given(pt_dbm=st.floats(-60.0, 80.0), tau_d=st.floats(1e-3, 10.0),
       M=st.sampled_from([0, 1, 2, 8, 32, 256, 1024]), K=st.integers(1, 8),
       p=st.floats(0.05, 1.0))
def test_solve_over_valid_space(pt_dbm, tau_d, M, K, p):
    """lambda* is finite and no baseline's model value exceeds it, the
    thresholds are ordered, and nothing warns on the way."""
    assume(K == 1 or p < 1.0)  # two certain senders never leave one alone
    cfg = replace_config(BASE, K=K, M=M, pt=dbm_to_watt(pt_dbm), tau_d=tau_d, p=(p,) * K,
                         sources=BASE.sources[:K], dests=BASE.dests[:K])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        table = build_threshold_table(cfg)
        baselines = {kind: analytic_throughput(kind, cfg) for kind in BASELINES}
    lam = table.lambda_star
    assert math.isfinite(lam) and lam >= 0.0
    for kind, value in baselines.items():
        assert lam >= value - 1e-9 * abs(value), kind
    for k in table.kstar:
        assert 0.0 <= table.zeta[k] < table.eta[k]
