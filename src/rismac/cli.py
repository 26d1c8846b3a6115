"""Command-line interface.

    rismac solve     solve the stopping thresholds for a configuration
    rismac simulate  Monte-Carlo one policy and compare with the model
    rismac sweep     simulate every policy along a parameter axis (CSV)
    rismac validate  run the internal-consistency battery

Exit codes: 0 success, 2 bad invocation or configuration, 3 a validation or
strict-mode check failed, 4 numerical failure inside the solver or the simulator.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .config import (
    NetworkConfig,
    apply_overrides,
    default_config_path,
    parse_config,
)
from .harness import (
    AXES,
    cmd_simulate,
    cmd_sweep,
    cmd_validate,
    relative_gap,
    sweep_rows_to_csv,
)
from .solver import (
    SolverError,
    build_threshold_table,
    parse_threshold_table,
    serialize_threshold_table,
)
from .strategies import PolicyKind

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_NUMERICAL = 4

_POLICY_NAMES = [k.value for k in PolicyKind]


def _load_config(path: str | None, overrides: list[str]) -> NetworkConfig:
    return apply_overrides(parse_config(Path(path) if path else default_config_path()),
                           overrides)


def _at_least(low: float, parse=int):
    """argparse type: a finite number >= low, read by parse (int or float)."""
    def number(text: str):
        value = parse(text)  # argparse reports a ValueError as an invalid value
        if not low <= value < math.inf:
            raise argparse.ArgumentTypeError(
                f"must be a finite number >= {low:g}, not {text!r}")
        return value
    return number


def _values(text: str) -> list[float]:
    """argparse type of sweep's --values: comma-separated finite numbers, at least one."""
    values = []
    for item in filter(str.strip, text.split(",")):
        try:
            value = float(item)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"{item.strip()!r} is not a finite number")
        values.append(value)
    if not values:
        raise argparse.ArgumentTypeError(f"needs at least one value, not {text!r}")
    return values


def _add_common(p: argparse.ArgumentParser, campaign: tuple[int, int] | None = None,
                strict: bool = False) -> None:
    """--config and --set; given campaign = (rounds, seed) defaults, the run options."""
    p.add_argument("--config", help="configuration file (defaults to the built-in one)")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override a configuration key (repeatable), e.g. pt=26dBm")
    if campaign is None:
        return
    p.add_argument("--rounds", type=_at_least(1), default=campaign[0])
    p.add_argument("--seed", type=_at_least(0), default=campaign[1])
    p.add_argument("--workers", type=_at_least(1), default=None)
    if strict:
        p.add_argument("--strict", type=_at_least(0.0, float), default=None, metavar="TOL",
                       help="fail (exit 3) if any |simulated-model|/model exceeds TOL")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rismac",
        description="Threshold solver and Monte-Carlo simulator for "
                    "surface-assisted random-access transmission scheduling.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve lambda* and the per-pair thresholds")
    _add_common(p)
    p.add_argument("--out", help="write the threshold table here (default: stdout)")

    p = sub.add_parser("simulate", help="Monte-Carlo one policy")
    _add_common(p, (100_000, 1), strict=True)
    p.add_argument("--policy", required=True, choices=_POLICY_NAMES)
    p.add_argument("--table", help="threshold table for proposed (default: solve it)")

    p = sub.add_parser("sweep", help="simulate policies along a parameter axis")
    _add_common(p, (100_000, 1), strict=True)
    p.add_argument("--axis", required=True,
                   choices=sorted(AXES),
                   help="pt/pt_dbm sweeps transmit power in dBm; "
                        "tau_d/tau_d_ms sweeps coherence time in ms")
    p.add_argument("--values", type=_values, required=True,
                   help="comma-separated axis values, e.g. 20,22,24,26,28,30")
    p.add_argument("--policy", action="append", choices=_POLICY_NAMES,
                   help="restrict to these policies (default: all)")
    p.add_argument("--out", help="write CSV here (default: stdout)")

    p = sub.add_parser("validate", help="run the internal-consistency battery")
    _add_common(p, (40_000, 7))
    p.add_argument("--tol", type=_at_least(0.0, float), default=0.05,
                   help="relative tolerance for simulation-vs-model checks")
    return ap


def _write(out: str | None, text: str, what: str) -> None:
    if out:
        Path(out).write_text(text)
        print(f"wrote {what} to {out}")
    else:
        sys.stdout.write(text)


def _strict(args, gap: float, what: str) -> int:
    if args.strict is not None and gap > args.strict:
        print(f"strict check failed: {what} {gap:.4%} > {args.strict:.4%}",
              file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def _run_solve(args, cfg: NetworkConfig) -> int:
    table = build_threshold_table(cfg)
    _write(args.out, serialize_threshold_table(table), "threshold table")
    print(f"lambda_star = {table.lambda_star!r}", file=sys.stderr)
    print(f"probe-worthy pairs: {sorted(table.kstar)}", file=sys.stderr)
    return EXIT_OK


def _run_simulate(args, cfg: NetworkConfig) -> int:
    table = None
    if args.table:
        table = parse_threshold_table(Path(args.table).read_text())
    result = cmd_simulate(cfg, PolicyKind(args.policy), args.rounds, args.seed,
                          table=table, workers=args.workers)
    est = result.estimate
    gap = relative_gap(est.mean, result.analytic)
    print(f"policy={result.policy} rounds={est.n_rounds} seed={args.seed} "
          f"mean={est.mean!r} ci_halfwidth={est.ci_halfwidth!r} "
          f"analytic={result.analytic!r} rel_gap={gap:.4%}")
    return _strict(args, gap, "gap")


def _run_sweep(args, cfg: NetworkConfig) -> int:
    kinds = [PolicyKind(name) for name in args.policy] if args.policy else None
    rows = cmd_sweep(cfg, args.axis, args.values, kinds, args.rounds, args.seed,
                     workers=args.workers)
    _write(args.out, sweep_rows_to_csv(rows), f"{len(rows)} rows")
    return _strict(args, max(relative_gap(r["simulated_mean"], r["analytic_lambda"])
                             for r in rows), "worst gap")


def _run_validate(args, cfg: NetworkConfig) -> int:
    checks = cmd_validate(cfg, n_rounds=args.rounds, seed=args.seed,
                          tol=args.tol, workers=args.workers)
    failed = 0
    for c in checks:
        mark = "ok  " if c.ok else "FAIL"
        print(f"{mark} {c.name}: {c.detail}")
        failed += 0 if c.ok else 1
    if failed:
        print(f"{failed} of {len(checks)} checks failed", file=sys.stderr)
        return EXIT_VALIDATION
    print(f"all {len(checks)} checks passed")
    return EXIT_OK


_RUNNERS = {"solve": _run_solve, "simulate": _run_simulate,
            "sweep": _run_sweep, "validate": _run_validate}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _RUNNERS[args.command](args, _load_config(args.config, args.set))
    except (ValueError, OSError) as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SolverError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
