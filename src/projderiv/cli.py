"""Command line experiment runner.

    projderiv list
    projderiv run --experiment <id> [--config <path>] [--seed <int>] [--out <path>] [flag overrides]
    projderiv trace --experiment <id> [--seed <int>]

Exit codes: 0 pass, 1 fail, 2 config error. Reports are JSON with stable key
order; traces are CSV on stdout.
"""

from __future__ import annotations

import argparse
import sys

from .experiments import (
    ConfigError,
    describe_experiments,
    experiment_trace,
    load_config_file,
    report_to_json,
    resolve_config,
    run_experiment,
)
from .fixed_points import FixedPointAuditError
from .limsup_oracle import trace_to_csv

_OVERRIDE_KEYS = ("p", "N", "G", "r", "n", "M", "r0", "K", "S", "seed")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="projderiv",
        description="run reproducible verifications of the projection derivative formulas",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list experiment ids")

    def add_common(p):
        p.add_argument("--experiment", required=True, help="experiment id (see `list`)")
        p.add_argument("--config", help="flat key=value config file")
        for key in _OVERRIDE_KEYS:
            p.add_argument(f"--{key}", default=None, help=f"override config key {key}")

    run_p = sub.add_parser("run", help="run one experiment and write its JSON report")
    add_common(run_p)
    run_p.add_argument("--out", default=None, help="report path (default <experiment>_report.json)")

    trace_p = sub.add_parser("trace", help="print a representative quotient trace as CSV")
    add_common(trace_p)
    return parser


def _config_from_args(args) -> "ExperimentConfig":
    file_values = load_config_file(args.config) if args.config else {}
    overrides = {key: getattr(args, key) for key in _OVERRIDE_KEYS}
    if getattr(args, "out", None) is not None:
        overrides["out"] = args.out
    return resolve_config(args.experiment, file_values, overrides)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "list":
        for name, description in describe_experiments():
            print(f"{name:32s} {description}")
        return 0

    try:
        config = _config_from_args(args)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "trace":
            sys.stdout.write(trace_to_csv(experiment_trace(config)))
            return 0
        report = run_experiment(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FixedPointAuditError as exc:
        print(f"FAIL {config.experiment}: {exc}", file=sys.stderr)
        return 1
    out_path = config.out or f"{config.experiment}_report.json"
    with open(out_path, "w", encoding="utf-8") as handle:
        handle.write(report_to_json(report))
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"{status} {check.name}: {check.observed} (expected {check.expected})")
    print(f"{'PASS' if report.passed else 'FAIL'} {config.experiment} -> {out_path}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
