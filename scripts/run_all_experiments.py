#!/usr/bin/env python3
"""Run every registered experiment and write the JSON reports.

Usage:
    python scripts/run_all_experiments.py [--out-dir reports] [--seed 7]

Prints one line per experiment with its wall time and a closing line with
the total wall time. An experiment whose config is rejected, whose
quotient-form audit fails or whose Remez exchange does not converge counts as
failed, and the remaining experiments still run. Exit status is 0 only if
every experiment passes, and 2, before any experiment runs, if the seed is
invalid or the report directory cannot be made.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from projderiv.chebyshev import RemezConvergenceError
from projderiv.experiments import (
    ConfigError,
    ExperimentConfig,
    experiment_ids,
    report_to_json,
    resolve_config,
    run_experiment,
)
from projderiv.fixed_points import FixedPointAuditError


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="reports")
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args()

    overrides = {"seed": args.seed} if args.seed is not None else {}
    try:
        # the seed is every experiment's, so a bad one is one config error
        ExperimentConfig(**overrides).validate()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"config error: cannot make the report directory {str(out_dir)!r}: {exc.strerror}", file=sys.stderr)
        return 2

    failures = []
    total_started = time.perf_counter()
    for name in experiment_ids():
        started = time.perf_counter()
        try:
            report = run_experiment(resolve_config(name, overrides=overrides))
        except (ConfigError, FixedPointAuditError, RemezConvergenceError) as exc:
            print(f"FAIL  {name:32s} {time.perf_counter() - started:6.2f}s  {type(exc).__name__}: {exc}")
            failures.append(name)
            continue
        path = out_dir / f"{name}_report.json"
        path.write_text(report_to_json(report))
        status = "PASS" if report.passed else "FAIL"
        print(f"{status}  {name:32s} {time.perf_counter() - started:6.2f}s  -> {path}")
        if not report.passed:
            failures.append(name)
    print(f"total wall time {time.perf_counter() - total_started:.2f}s")
    if failures:
        print(f"failing experiments: {', '.join(failures)}", file=sys.stderr)
        return 1
    print(f"all {len(experiment_ids())} experiments passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
