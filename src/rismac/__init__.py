"""rismac: throughput-optimal stopping for surface-assisted random access.

A numerical solver and Monte-Carlo simulator for a distributed MAC in which
each contention winner decides, from its own channel observations, whether
to transmit directly, probe a reconfigurable reflecting surface first, or
hand the channel back. The solver computes the maximal long-run throughput
lambda* as the root of a balance equation and turns the optimal stopping
rule into per-pair magnitude thresholds; the simulator replays the full
protocol at slot fidelity to verify it.
"""

from .config import (
    ConfigError,
    NetworkConfig,
    apply_overrides,
    default_config,
    parse_config,
    replace_config,
)
from .contention import expected_contention_time, simulate_contention
from .simulator import SimulationError, run_campaign, run_round, simulate_rounds
from .solver import (
    SolverError,
    ThresholdTable,
    attempt_value,
    build_threshold_table,
    effective_probe_snr,
    parse_threshold_table,
    probe_value,
    probe_value_mc,
    serialize_threshold_table,
    solve_max_throughput,
    solve_max_throughput_fixed_point,
    throughput_residual,
)
from .strategies import (
    Decision,
    Policy,
    PolicyKind,
    analytic_throughput,
    decide_level1_reference,
    decide_level1_threshold,
    decide_level2,
    make_policy,
    mean_probe_value,
    solve_lambda_b,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "NetworkConfig", "apply_overrides", "default_config",
    "parse_config", "replace_config",
    "expected_contention_time", "simulate_contention",
    "SimulationError", "run_campaign", "run_round", "simulate_rounds",
    "SolverError", "ThresholdTable", "attempt_value", "build_threshold_table",
    "effective_probe_snr", "parse_threshold_table", "probe_value", "probe_value_mc",
    "serialize_threshold_table", "solve_max_throughput",
    "solve_max_throughput_fixed_point", "throughput_residual",
    "Decision", "Policy", "PolicyKind", "analytic_throughput",
    "decide_level1_reference", "decide_level1_threshold", "decide_level2",
    "make_policy", "mean_probe_value", "solve_lambda_b",
    "__version__",
]
