"""rismac: throughput-optimal stopping for surface-assisted random access.

A numerical solver and Monte-Carlo simulator for a distributed MAC in which
each contention winner decides, from its own channel observations, whether
to transmit directly, probe a reconfigurable reflecting surface first, or
hand the channel back. The solver computes the maximal long-run throughput
lambda* as the root of a balance equation and turns the optimal stopping
rule into per-pair magnitude thresholds; the simulator replays the full
protocol at slot fidelity to verify it.
"""

from .channel import (
    CascadedMoments,
    ChannelObservation,
    PairGeometry,
    cascaded_moments,
    direct_mean_square,
    draw_cascaded,
    draw_direct,
    linear_budget,
    pair_geometry,
    rate_direct,
    rate_ris,
)
from .config import (
    ConfigError,
    NetworkConfig,
    apply_overrides,
    config_hash,
    db_to_linear,
    dbm_to_watt,
    default_config,
    default_config_path,
    emit_config,
    parse_config,
    parse_config_text,
    replace_config,
)
from .contention import (
    ContentionOutcome,
    expected_contention_time,
    idle_probability,
    simulate_contention,
    simulate_contention_batch,
    success_probability,
    winner_weights,
)
from .simulator import (
    RoundArrays,
    RoundLedger,
    SimulationError,
    ThroughputEstimate,
    run_campaign,
    run_round,
    simulate_rounds,
)
from .solver import (
    MCEstimate,
    SolverError,
    ThresholdTable,
    admissible_step_band,
    attempt_value,
    build_threshold_table,
    effective_probe_snr,
    parse_threshold_table,
    probe_value,
    probe_value_mc,
    probe_worthy_pairs,
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
    no_wait_direct_throughput,
    no_wait_ris_throughput,
    policy_from_name,
    solve_lambda_b,
    threshold_params,
)

__version__ = "0.1.0"

__all__ = [
    "CascadedMoments", "ChannelObservation", "PairGeometry",
    "cascaded_moments", "direct_mean_square", "draw_cascaded", "draw_direct",
    "linear_budget", "pair_geometry", "rate_direct", "rate_ris",
    "ConfigError", "NetworkConfig", "apply_overrides", "config_hash",
    "db_to_linear", "dbm_to_watt", "default_config", "default_config_path",
    "emit_config", "parse_config", "parse_config_text", "replace_config",
    "ContentionOutcome", "expected_contention_time", "idle_probability",
    "simulate_contention", "simulate_contention_batch", "success_probability",
    "winner_weights",
    "RoundArrays", "RoundLedger", "SimulationError", "ThroughputEstimate",
    "run_campaign", "run_round", "simulate_rounds",
    "MCEstimate", "SolverError", "ThresholdTable", "admissible_step_band",
    "attempt_value", "build_threshold_table", "effective_probe_snr",
    "parse_threshold_table", "probe_value", "probe_value_mc",
    "probe_worthy_pairs", "serialize_threshold_table", "solve_max_throughput",
    "solve_max_throughput_fixed_point", "throughput_residual",
    "Decision", "Policy", "PolicyKind", "analytic_throughput",
    "decide_level1_reference", "decide_level1_threshold", "decide_level2",
    "make_policy", "mean_probe_value", "no_wait_direct_throughput",
    "no_wait_ris_throughput", "policy_from_name", "solve_lambda_b",
    "threshold_params",
    "__version__",
]
