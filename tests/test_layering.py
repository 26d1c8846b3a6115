"""Module layering: no rismac module imports another one's private names,
and importing the package stays free of heavy optional modules."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import rismac
from rismac.contention import winner_weights

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


def test_no_hand_copied_pins():
    # every pinned bit lives in tests/pins.json, written by tests/make_pins.py,
    # so a model change regenerates one file instead of editing hex tables
    hexfloat = re.compile(r"0x[01]\.[0-9a-f]*p[-+]\d")
    offenders = [path.name for path in sorted(Path(__file__).parent.glob("*.py"))
                 if hexfloat.search(path.read_text(encoding="utf-8"))]
    assert offenders == []


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


def _name(node):
    return getattr(node, "id", getattr(node, "attr", None))


def _call_sites(*names):
    """(module, top-level definition, callee) of every call to one of names."""
    sites = []
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call) and _name(node.func) in names:
                    sites.append((path.name, getattr(stmt, "name", "<module>"),
                                  _name(node.func)))
    return sorted(sites)


def test_one_fading_integral_site():
    # every integral over the direct fading law is a solver.fading_average: the
    # winner weights, the density product and the tail cut live there alone
    assert _call_sites("rayleigh_pdf", "adaptive_panels") == [
        ("solver.py", "fading_average", "adaptive_panels"),
        ("solver.py", "fading_average", "rayleigh_pdf")]


def test_one_threshold_solve_site():
    # every pair's (zeta, eta) comes from solver.pair_thresholds, for the
    # panel edges of attempt_value and for the table alike
    assert _call_sites("vec_bisect") == [("solver.py", "pair_thresholds", "vec_bisect")]


def test_one_probe_value_closed_form():
    # the erf/erfc closed form of the probe SNR lives in solver._snr_form, its
    # terms builder and the evaluator it returns; effective_probe_snr and
    # every probe value read it, so no second copy of the formula can drift
    assert _call_sites("erf", "erfc") == [
        ("solver.py", "_snr_form", "erf"), ("solver.py", "_snr_form", "erf"),
        ("solver.py", "_snr_form", "erfc")]


def test_no_zero_link_budget_branch():
    # NetworkConfig and channel.pair_tables reject a budget whose direct SNR
    # scale rho * v has no finite reciprocal, so no model value branches on 0
    budget = {"rho", "rho_bar", "linear_budget"}
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if not isinstance(node, ast.Compare):
                continue
            sides = [node.left, *node.comparators]
            named = {_name(s.func if isinstance(s, ast.Call) else s) for s in sides}
            if named & budget and any(isinstance(s, ast.Constant) and s.value == 0
                                      for s in sides):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_one_payload_window_site():
    # the windows left after a direct or an assisted stop are NetworkConfig's
    # tau1 and tau2, so every layer reads the same two numbers
    sites = [path.name for path in sorted(PACKAGE.glob("*.py"))
             if ".tau_d - " in path.read_text(encoding="utf-8")]
    assert sites == ["config.py"]


def test_slot_law_computed_once():
    # the O(K^2) winner law is built once per probability vector and shared
    p = (0.2, 0.4, 0.3)
    assert winner_weights(p) is winner_weights(p)


def test_simulator_never_branches_on_policy_kind():
    # every discipline reaches the engine as thresholds alone
    assert "PolicyKind" not in (PACKAGE / "simulator.py").read_text(encoding="utf-8")
