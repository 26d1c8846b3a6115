"""The harness's model-vs-simulation and root checks on near-zero models."""

import csv
import io

from rismac import (
    apply_overrides,
    default_config,
    solve_max_throughput,
    solve_max_throughput_bisect,
)
from rismac.cli import main
from rismac.harness import cmd_validate


def test_sweep_strict_fails_when_model_is_zero(capsys):
    # lambda* is 0 at -60 dBm with 5 ms coherence, the simulated mean is not:
    # an infinite relative gap, as `simulate --strict` reports it
    code = main(["sweep", "--axis", "pt", "--values", "-60", "--set", "tau_d=5 ms",
                 "--policy", "proposed", "--rounds", "8192", "--seed", "1",
                 "--strict", "0.01"])
    captured = capsys.readouterr()
    row = next(csv.DictReader(io.StringIO(captured.out)))
    assert float(row["analytic_lambda"]) == 0.0 < float(row["simulated_mean"])
    assert code == 3
    assert "strict" in captured.err


def test_validate_root_check_is_relative():
    cfg = apply_overrides(default_config(), ["pt=-40 dBm"])
    checks = {c.name: c for c in cmd_validate(cfg, n_rounds=4096, seed=3)}
    lam = solve_max_throughput(cfg)
    lam_bis = solve_max_throughput_bisect(cfg)
    assert checks["root agreement"].ok == (abs(lam - lam_bis) / lam_bis <= 1e-6)
