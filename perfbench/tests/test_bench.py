"""Tests of the benchmark itself: tracer completeness, exact counts, the
metric list in BENCHMARK.json, and the failure paths of the runner.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import layers  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
from projderiv import cli, fixed_points, limsup_oracle, spaces  # noqa: E402
from workloads import ALL_EXPERIMENTS, WORKLOADS, Item, Workload  # noqa: E402


def _traced_call(argv, tmp_path):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_request(" ".join(argv))
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv + ["--out", str(tmp_path / "report.json")])
        tracer.end_request()
    finally:
        tracer.uninstall()
    assert code == 0
    return tracer


def test_every_binding_is_wrapped_and_restored():
    originals = (spaces.norm, fixed_points.membership_test, limsup_oracle.pairing_rows,
                 spaces.PrimalVector.__init__)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.unwrapped_bindings() == []
        # names imported into other modules are wrapped as well
        assert fixed_points.membership_test is limsup_oracle.membership_test
        assert limsup_oracle.norm is spaces.norm is not originals[0]
        assert fixed_points.estimate_limsup is limsup_oracle.estimate_limsup
    finally:
        tracer.uninstall()
    assert (spaces.norm, fixed_points.membership_test, limsup_oracle.pairing_rows,
            spaces.PrimalVector.__init__) == originals


def test_ball_theorem_makes_1640_queries(tmp_path):
    # 2 p-values x 20 bases x 41 queries, whatever the seed
    tracer = _traced_call(["run", "--experiment", "ball_theorem_4_1", "--seed", "3"], tmp_path)
    metrics = layers.layer_metrics(tracer)
    assert metrics["fixed_points.queries"] == 1640
    assert metrics["fixed_points.oracle_fallback"] + metrics["fixed_points.registry_settled"] == 1640


def test_counts_repeat_exactly_at_one_seed(tmp_path):
    argv = ["run", "--experiment", "l1_cases", "--seed", "5"]
    counts = []
    for _ in range(2):
        metrics = layers.layer_metrics(_traced_call(argv, tmp_path))
        counts.append({k: v for k, v in metrics.items() if layers.PER_LAYER[k] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["limsup_oracle.ray_calls"] > 0


def test_spans_carry_parents_and_self_time_adds_up(tmp_path):
    tracer = _traced_call(["run", "--experiment", "cone_lp_theorem_4_2", "--seed", "2"], tmp_path)
    spans = tracer.spans
    roots = [s for s in spans if s[tracing.PARENT] < 0]
    assert [tracer.names[s[tracing.NAME]] for s in roots] == ["cli.main"]
    assert all(s[tracing.REQ] == 0 for s in spans)
    metrics = layers.layer_metrics(tracer)
    self_total = sum(v for k, v in metrics.items() if k.endswith(".self_s")) + metrics["spaces.total_s"]
    root = roots[0]
    assert self_total == pytest.approx(root[tracing.END] - root[tracing.START], rel=1e-9)


def test_span_file_has_requests_spans_and_aggregates(tmp_path):
    tracer = _traced_call(["run", "--experiment", "affine_props_3_3_3_5", "--seed", "1"], tmp_path)
    buffer = io.StringIO()
    tracer.write(buffer)
    lines = [json.loads(line) for line in buffer.getvalue().splitlines()]
    assert lines[0] == {"request": 0, "item": "run --experiment affine_props_3_3_3_5 --seed 1"}
    spans = [line for line in lines if "id" in line]
    assert len(spans) == len(tracer.spans)
    assert all(line["parent"] < line["id"] for line in spans)
    assert any(line.get("aggregate") == "spaces.norm" for line in lines)


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER.items())
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "pass_s", "peak_rss_mb", "checks_passed"}
    assert set(ALL_EXPERIMENTS) == {item.experiment for item in WORKLOADS["verify_default"].items}


def test_report_identity_ignores_only_the_timestamp():
    a = '{\n  "passed": true,\n  "timestamp": "2026-01-01T00:00:00+00:00"\n}\n'
    b = a.replace("2026-01-01T00:00:00", "2027-02-02T11:11:11.123456")
    assert run.normalize_report(a) == run.normalize_report(b)
    assert run.normalize_report(a) != run.normalize_report(b.replace("true", "false"))


def test_runner_counts_a_config_error_as_a_failure(tmp_path):
    workload = Workload("bad", "a config error", (Item("run", "ball_theorem_4_1", ("--r0", "-1")),))
    runner = run.Runner(workload, 1, tmp_path)
    runner.call(0)
    assert runner.attempted == 1
    assert len(runner.failures) == 1 and "exit 2" in runner.failures[0]


def test_runner_counts_a_crashing_call_as_a_failure(tmp_path):
    def crash(argv):
        raise RuntimeError("no convergence")

    workload = Workload("crash", "a call that raises", (Item("run", "ball_theorem_4_1"),))
    runner = run.Runner(workload, 1, tmp_path)
    runner.cli = types.SimpleNamespace(main=crash)
    runner.call(0)
    assert runner.attempted == 1
    assert len(runner.failures) == 1 and "no convergence" in runner.failures[0]


def test_setup_retries_an_interpreter_that_could_not_start(monkeypatch):
    real_run = subprocess.run
    calls = []

    def flaky_run(*args, **kwargs):
        calls.append(args)
        if len(calls) == 1:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return real_run(*args, **kwargs)

    monkeypatch.setattr(run.subprocess, "run", flaky_run)
    monkeypatch.setattr(run.time, "sleep", lambda seconds: None)
    assert run.setup_seconds([]) > 0
    assert len(calls) == 2


def test_setup_gives_up_after_repeated_failures(monkeypatch):
    def failing_run(*args, **kwargs):
        return subprocess.CompletedProcess(args, -9, "", "")

    monkeypatch.setattr(run.subprocess, "run", failing_run)
    monkeypatch.setattr(run.time, "sleep", lambda seconds: None)
    with pytest.raises(RuntimeError, match="failed 3 times"):
        run.setup_seconds([])


def test_a_benchmark_fault_exits_3_without_a_result(monkeypatch, capsys):
    def broken(*args):
        raise RuntimeError("benchmark fault")

    monkeypatch.setattr(run, "run_workload", broken)
    code = run.main(["--workload", "oracle_wide", "--seed", "1", "--seconds", "1", "--trace", "0"])
    captured = capsys.readouterr()
    assert code == run.EXIT_BENCH_ERROR
    assert captured.out == ""
    assert "benchmark fault" in captured.err


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle_wide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
