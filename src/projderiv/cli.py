"""Command line experiment runner.

    projderiv list
    projderiv run --experiment <id> [--config <path>] [--seed <int>] [--out <path>] [flag overrides]
    projderiv trace --experiment <id> [--seed <int>]

Exit codes: 0 pass, 1 fail, 2 config error. Reports are JSON with stable key
order; traces are CSV on stdout.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys

from .experiments import (
    ConfigError,
    ExperimentConfig,
    describe_experiments,
    experiment_trace,
    load_config_file,
    report_to_json,
    resolve_config,
    run_experiment,
)
from .fixed_points import FixedPointAuditError
from .limsup_oracle import trace_to_csv

# imported after .experiments: importing chebyshev first raises the peak
# memory of an import without cached bytecode by about 1 MB
from .chebyshev import RemezConvergenceError


# built on the first call, not at import, and reused: one process may call
# `main` many times
@functools.cache
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
        for field in dataclasses.fields(ExperimentConfig):
            if field.name not in ("experiment", "out"):  # these two have flags of their own
                p.add_argument(f"--{field.name}", default=None, help=f"override config key {field.name}")

    run_p = sub.add_parser("run", help="run one experiment and write its JSON report")
    add_common(run_p)
    run_p.add_argument("--out", default=None, help="report path (default <experiment>_report.json)")

    trace_p = sub.add_parser("trace", help="print a representative quotient trace as CSV")
    add_common(trace_p)
    return parser


def _report_path(config: ExperimentConfig) -> str:
    """Where `run` writes the report, checked before the run."""
    path = config.out or f"{config.experiment}_report.json"
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path) or not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
        raise ConfigError(f"cannot write the report to {path!r}: not a file in a writable folder")
    return path


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "list":
        for name, description in describe_experiments():
            print(f"{name:32s} {description}")
        return 0

    try:
        file_values = load_config_file(args.config) if args.config else {}
        overrides = {field.name: getattr(args, field.name, None) for field in dataclasses.fields(ExperimentConfig)}
        config = resolve_config(args.experiment, file_values, overrides)
        out_path = _report_path(config) if args.command == "run" else None
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
    except MemoryError as exc:
        reason = str(exc) or "MemoryError"
        print(f"config error: the configuration does not fit in memory: {reason}", file=sys.stderr)
        return 2
    except (FixedPointAuditError, RemezConvergenceError) as exc:
        print(f"FAIL {config.experiment}: {exc}", file=sys.stderr)
        return 1
    with open(out_path, "w", encoding="utf-8") as handle:
        handle.write(report_to_json(report))
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"{status} {check.name}: {check.observed} (expected {check.expected})")
    print(f"{'PASS' if report.passed else 'FAIL'} {config.experiment} -> {out_path}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
