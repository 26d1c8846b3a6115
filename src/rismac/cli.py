"""Command-line interface.

    rismac solve     solve the stopping thresholds for a configuration
    rismac simulate  Monte-Carlo one policy and compare with the model
    rismac sweep     simulate every policy along a parameter axis (CSV)
    rismac validate  run the internal-consistency battery

Exit codes: 0 success, 2 bad invocation or configuration, 3 a validation or
strict-mode check failed, 4 numerical failure inside the solver.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import (
    ConfigError,
    NetworkConfig,
    apply_overrides,
    default_config_path,
    parse_config,
)
from .harness import (
    AXES,
    UsageError,
    cmd_simulate,
    cmd_solve,
    cmd_sweep,
    cmd_validate,
    relative_gap,
    sweep_rows_to_csv,
)
from .solver import SolverError, parse_threshold_table
from .strategies import PolicyKind

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_NUMERICAL = 4

_POLICY_NAMES = [k.value for k in PolicyKind]


def _load_config(path: str | None, overrides: list[str]) -> NetworkConfig:
    return apply_overrides(parse_config(Path(path) if path else default_config_path()),
                           overrides)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="configuration file (defaults to the built-in one)")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override a configuration key (repeatable), e.g. pt=26dBm")


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
    _add_common(p)
    p.add_argument("--policy", required=True, choices=_POLICY_NAMES)
    p.add_argument("--rounds", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--table", help="threshold table file (needed for proposed)")
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--strict", type=float, default=None, metavar="TOL",
                   help="fail (exit 3) if |simulated-model|/model exceeds TOL")

    p = sub.add_parser("sweep", help="simulate policies along a parameter axis")
    _add_common(p)
    p.add_argument("--axis", required=True,
                   choices=sorted(AXES),
                   help="pt/pt_dbm sweeps transmit power in dBm; "
                        "tau_d/tau_d_ms sweeps coherence time in ms")
    p.add_argument("--values", required=True,
                   help="comma-separated axis values, e.g. 20,22,24,26,28,30")
    p.add_argument("--policy", action="append", choices=_POLICY_NAMES,
                   help="restrict to these policies (default: all)")
    p.add_argument("--rounds", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", help="write CSV here (default: stdout)")
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--strict", type=float, default=None, metavar="TOL",
                   help="fail (exit 3) if any |simulated-model|/model exceeds TOL")

    p = sub.add_parser("validate", help="run the internal-consistency battery")
    _add_common(p)
    p.add_argument("--rounds", type=int, default=40_000)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--tol", type=float, default=0.05,
                   help="relative tolerance for simulation-vs-model checks")
    p.add_argument("--workers", type=int, default=None)
    return ap


def _run_solve(args) -> int:
    cfg = _load_config(args.config, args.set)
    table, text = cmd_solve(cfg)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote threshold table to {args.out}")
    else:
        sys.stdout.write(text)
    print(f"lambda_star = {table.lambda_star!r}", file=sys.stderr)
    print(f"probe-worthy pairs: {sorted(table.kstar)}", file=sys.stderr)
    return EXIT_OK


def _run_simulate(args) -> int:
    cfg = _load_config(args.config, args.set)
    table = None
    if args.table:
        table = parse_threshold_table(Path(args.table).read_text())
    result = cmd_simulate(cfg, args.policy, args.rounds, args.seed,
                          table=table, workers=args.workers)
    est = result.estimate
    gap = relative_gap(est.mean, result.analytic)
    print(f"policy={result.policy} rounds={est.n_rounds} seed={args.seed} "
          f"mean={est.mean!r} ci_halfwidth={est.ci_halfwidth!r} "
          f"analytic={result.analytic!r} rel_gap={gap:.4%}")
    if args.strict is not None and gap > args.strict:
        print(f"strict check failed: gap {gap:.4%} > {args.strict:.4%}",
              file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def _run_sweep(args) -> int:
    cfg = _load_config(args.config, args.set)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError as exc:
        raise UsageError(f"bad --values: {exc}") from None
    rows = cmd_sweep(cfg, args.axis, values, args.policy, args.rounds,
                     args.seed, workers=args.workers)
    text = sweep_rows_to_csv(rows)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {len(rows)} rows to {args.out}")
    else:
        sys.stdout.write(text)
    if args.strict is not None:
        worst = max(relative_gap(r["simulated_mean"], r["analytic_lambda"])
                    for r in rows)
        if worst > args.strict:
            print(f"strict check failed: worst gap {worst:.4%} > {args.strict:.4%}",
                  file=sys.stderr)
            return EXIT_VALIDATION
    return EXIT_OK


def _run_validate(args) -> int:
    cfg = _load_config(args.config, args.set)
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
        return _RUNNERS[args.command](args)
    except (ConfigError, UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SolverError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
