"""Golden outputs of the registered experiments at one seed.

    PYTHONPATH=src python tests/make_golden.py [--seed S] [--out DIR]

writes, for every experiment, its report as `report_to_json` text without the
timestamp (`<experiment>.json`), and the SHA-256 digest of the quotient trace
CSV of every experiment that has one (`traces.sha256`). Without `--seed` the
default configs are used and the files go to `tests/golden/`, which the
acceptance suite compares against byte for byte. Running it at two commits
with the same seed and diffing the two directories shows whether a change
kept every report and trace identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib

from projderiv.experiments import (
    experiment_ids,
    experiment_trace,
    report_to_json,
    resolve_config,
    run_experiment,
)
from projderiv.limsup_oracle import trace_to_csv

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"

TRACED = (
    "ball_theorem_4_1",
    "ball_coderiv_theorem_3_1",
    "affine_props_3_3_3_5",
    "cone_l2_theorem_4_3",
    "cone_lp_theorem_4_2",
    "l1_cases",
    "poly_theorem_4_11",
    "structural_prop_3_2",
)


def _overrides(seed: int | None) -> dict:
    return {} if seed is None else {"seed": str(seed)}


def report_text(report) -> str:
    """`report_to_json` text with the timestamp field removed."""
    record = json.loads(report_to_json(report))
    record.pop("timestamp")
    return json.dumps(record, sort_keys=True, indent=2) + "\n"


def trace_digests(seed: int | None = None) -> str:
    """One `<sha256>  <experiment>` line per traced experiment."""
    lines = []
    for name in TRACED:
        csv = trace_to_csv(experiment_trace(resolve_config(name, overrides=_overrides(seed))))
        lines.append(f"{hashlib.sha256(csv.encode()).hexdigest()}  {name}\n")
    return "".join(lines)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=str(GOLDEN_DIR))
    args = parser.parse_args()
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name in experiment_ids():
        report = run_experiment(resolve_config(name, overrides=_overrides(args.seed)))
        (out / f"{name}.json").write_text(report_text(report))
    (out / "traces.sha256").write_text(trace_digests(args.seed))


if __name__ == "__main__":
    main()
