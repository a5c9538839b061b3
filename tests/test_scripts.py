import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

from projderiv.chebyshev import RemezConvergenceError
from projderiv.experiments import ConfigError
from projderiv.fixed_points import FixedPointAuditError

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "run_all_experiments.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("run_all_experiments", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_all_records_config_and_audit_errors_as_failures(tmp_path, capsys, monkeypatch):
    script = _load_script()
    ran = []

    def fake_run(config):
        ran.append(config.experiment)
        if config.experiment == "ball_theorem_4_1":
            raise FixedPointAuditError("quotient forms disagree")
        if config.experiment == "l1_cases":
            raise ConfigError("N must be at least 2")
        if config.experiment == "remez_theorem_5_4":
            raise RemezConvergenceError("no levelled error after 60 iterations", (1.0, 0.5))
        return real_run(config)

    ids = ["ball_theorem_4_1", "l1_cases", "remez_theorem_5_4", "affine_props_3_3_3_5"]
    real_run = script.run_experiment
    monkeypatch.setattr(script, "run_experiment", fake_run)
    monkeypatch.setattr(script, "experiment_ids", lambda: ids)
    monkeypatch.setattr("sys.argv", ["run_all_experiments.py", "--out-dir", str(tmp_path)])
    assert script.main() == 1
    out, err = capsys.readouterr()
    assert ran == ids
    assert "FAIL  ball_theorem_4_1" in out and "FixedPointAuditError: quotient forms disagree" in out
    assert "FAIL  l1_cases" in out and "ConfigError: N must be at least 2" in out
    assert "FAIL  remez_theorem_5_4" in out and "RemezConvergenceError: no levelled error" in out
    assert "PASS  affine_props_3_3_3_5" in out
    assert "total wall time" in out
    assert err == "failing experiments: ball_theorem_4_1, l1_cases, remez_theorem_5_4\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["affine_props_3_3_3_5_report.json"]


@pytest.mark.parametrize("out_dir", ["file", "file/reports"])
def test_run_all_refuses_a_report_directory_it_cannot_make(out_dir, tmp_path, capsys, monkeypatch):
    script = _load_script()
    (tmp_path / "file").write_text("")
    monkeypatch.setattr(script, "run_experiment", lambda config: pytest.fail("an experiment ran"))
    monkeypatch.setattr("sys.argv", ["run_all_experiments.py", "--out-dir", str(tmp_path / out_dir)])
    assert script.main() == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("config error: cannot make the report directory") and err.count("\n") == 1
    assert [path.name for path in tmp_path.iterdir()] == ["file"]


def test_run_all_refuses_a_negative_seed_once(tmp_path, capsys, monkeypatch):
    # the seed is shared by every experiment: one config error, not a
    # failure of each experiment
    script = _load_script()
    monkeypatch.setattr(script, "run_experiment", lambda config: pytest.fail("an experiment ran"))
    monkeypatch.setattr("sys.argv", ["run_all_experiments.py", "--seed", "-1", "--out-dir", str(tmp_path / "reports")])
    assert script.main() == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "config error: seed must be >= 0\n"
    assert list(tmp_path.iterdir()) == []


def test_all_experiments_run_without_scipy(tmp_path):
    # scipy is a test dependency only: with its import blocked, every
    # registered experiment still runs and passes
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    code = (
        "import runpy, sys; sys.modules['scipy'] = None; "
        f"sys.argv = ['run_all_experiments.py', '--out-dir', {str(tmp_path)!r}]; "
        f"runpy.run_path({str(SCRIPT)!r}, run_name='__main__')"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert len(list(tmp_path.glob("*_report.json"))) == 12
