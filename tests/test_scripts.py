import importlib.util
import pathlib

import pytest

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
        return real_run(config)

    real_run = script.run_experiment
    monkeypatch.setattr(script, "run_experiment", fake_run)
    monkeypatch.setattr(script, "experiment_ids", lambda: ["ball_theorem_4_1", "l1_cases", "affine_props_3_3_3_5"])
    monkeypatch.setattr("sys.argv", ["run_all_experiments.py", "--out-dir", str(tmp_path)])
    assert script.main() == 1
    out, err = capsys.readouterr()
    assert ran == ["ball_theorem_4_1", "l1_cases", "affine_props_3_3_3_5"]
    assert "FAIL  ball_theorem_4_1" in out and "FixedPointAuditError: quotient forms disagree" in out
    assert "FAIL  l1_cases" in out and "ConfigError: N must be at least 2" in out
    assert "PASS  affine_props_3_3_3_5" in out
    assert "total wall time" in out
    assert err == "failing experiments: ball_theorem_4_1, l1_cases\n"
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
