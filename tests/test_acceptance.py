"""Acceptance suite: runs every registered experiment at its default
configuration and requires every check inside it to pass at the stated
tolerance. One line per criterion is printed for the run log.

Each report, minus its timestamp, must also equal the golden copy in
`tests/golden/` byte for byte, and so must the digests of the quotient
traces; regenerate them with `tests/make_golden.py` only when a change is
meant to alter a report."""

import pytest

from make_golden import GOLDEN_DIR, report_text, trace_digests
from projderiv.experiments import resolve_config, run_experiment

CRITERIA = [
    ("1", "ball_theorem_4_1"),
    ("2", "ball_coderiv_theorem_3_1"),
    ("3", "affine_props_3_3_3_5"),
    ("4", "cone_l2_theorem_4_3"),
    ("5", "cone_lp_theorem_4_2"),
    ("6", "l1_cases"),
    ("7", "determinants_lemma_4_5"),
    ("8", "coefficient_bounds_prop_4_6"),
    ("9", "remez_theorem_5_4"),
    ("10", "remez_continuity_theorem_4_8"),
    ("11", "poly_theorem_4_11"),
    ("12", "structural_prop_3_2"),
]


@pytest.mark.parametrize("number,experiment", CRITERIA, ids=[e for _, e in CRITERIA])
def test_acceptance_criterion(number, experiment):
    report = run_experiment(resolve_config(experiment))
    status = "PASS" if report.passed else "FAIL"
    print(f"ACCEPTANCE {number} {experiment}: {status}")
    failed = [c for c in report.checks if not c.passed]
    detail = "; ".join(f"{c.name}: got {c.observed}, expected {c.expected}" for c in failed)
    assert report.passed, f"criterion {number} ({experiment}) failed: {detail}"
    assert report_text(report) == (GOLDEN_DIR / f"{experiment}.json").read_text()


def test_trace_digests_match_golden():
    assert trace_digests() == (GOLDEN_DIR / "traces.sha256").read_text()


def test_a_second_run_in_one_process_repeats_the_report():
    # norms kept with vectors, and anything else kept between runs, must not
    # leak from one run into the next
    config = resolve_config("ball_theorem_4_1")
    first, second = (report_text(run_experiment(config)) for _ in range(2))
    assert first == second == (GOLDEN_DIR / "ball_theorem_4_1.json").read_text()
