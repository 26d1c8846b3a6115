"""The harness's relative gap and root check on near-zero models."""

import math

from rismac import apply_overrides, default_config
from rismac.harness import cmd_validate, relative_gap


def test_sweep_strict_fails_when_model_is_zero():
    # `simulate --strict` and `sweep --strict` read this gap: a zero model
    # against a non-zero simulation is an infinite gap, zero against zero none
    assert relative_gap(1e-7, 0.0) == math.inf
    assert relative_gap(0.0, 0.0) == 0.0


def test_validate_root_check_is_relative():
    # lambda* is of order 1e-5 here; an absolute stop left it 3.6% low
    cfg = apply_overrides(default_config(), ["pt=-40 dBm"])
    checks = {c.name: c for c in cmd_validate(cfg, n_rounds=4096, seed=3)}
    assert checks["root bracket"].ok
