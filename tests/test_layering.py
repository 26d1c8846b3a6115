"""Module layering: no rismac module imports another one's private names,
and importing the package stays free of heavy optional modules."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import rismac

PACKAGE = Path(rismac.__file__).parent

# what the CLI, the README's Python API section and the labelled oracles use;
# everything else is imported from its own module
PUBLIC = sorted([
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
])


def test_no_private_imports_between_modules():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and (node.module or "").split(".")[0] != "rismac":
                continue
            offenders += [f"{path.name}: {'.' * node.level}{node.module or ''} {a.name}"
                          for a in node.names if a.name.startswith("_")]
    assert offenders == []


def test_import_does_not_load_scipy_stats():
    """scipy.stats costs about half a second of start-up and scipy.optimize about
    0.3 s; rismac needs neither (its lambda* root is a hand-rolled Brent-Dekker
    iteration, numerics.zeroin)."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    code = ("import sys, rismac; "
            "print([m for m in ('scipy.stats', 'scipy.optimize') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code],
                         env=env, capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_public_surface_is_pinned():
    assert sorted(rismac.__all__) == PUBLIC
    for name in rismac.__all__:
        getattr(rismac, name)


def test_one_rayleigh_draw_site():
    # every Rayleigh magnitude comes from channel.rayleigh, so a cheaper draw
    # has one place to land
    sites = [path.name for path in sorted(PACKAGE.glob("*.py"))
             if "standard_exponential" in path.read_text(encoding="utf-8")]
    assert sites == ["channel.py"]


def test_one_rayleigh_density_site():
    # the fading density integrals weigh by is channel.rayleigh_pdf
    sites = [path.name for path in sorted(PACKAGE.glob("*.py"))
             if "np.exp(-h * h" in path.read_text(encoding="utf-8")]
    assert sites == ["channel.py"]


def test_simulator_never_branches_on_policy_kind():
    # every discipline reaches the engine as thresholds alone
    assert "PolicyKind" not in (PACKAGE / "simulator.py").read_text(encoding="utf-8")
