import dataclasses
import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from projderiv import cli, fixed_points, spaces
from projderiv.cli import main
from projderiv.experiments import (
    ConfigError,
    ExperimentConfig,
    experiment_ids,
    load_config_file,
    resolve_config,
    run_experiment,
)


def test_list_contains_required_ids(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for required in ("ball_theorem_4_1", "cone_l2_theorem_4_3", "remez_continuity_theorem_4_8", "l1_cases"):
        assert required in out


def test_run_writes_report_and_passes(tmp_path, capsys):
    out = tmp_path / "det.json"
    code = main(["run", "--experiment", "determinants_lemma_4_5", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert report["experiment"] == "determinants_lemma_4_5"
    stdout = capsys.readouterr().out
    assert "PASS determinants_lemma_4_5" in stdout


def test_reports_identical_modulo_timestamp(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        assert main(
            ["run", "--experiment", "coefficient_bounds_prop_4_6", "--seed", "3", "--out", str(path)]
        ) == 0
    blobs = []
    for path in paths:
        record = json.loads(path.read_text())
        record.pop("timestamp")
        blobs.append(json.dumps(record, sort_keys=True))
    assert blobs[0] == blobs[1]


def test_unknown_experiment_is_config_error(capsys):
    assert main(["run", "--experiment", "nope"]) == 2
    assert "config error" in capsys.readouterr().err


def test_bad_config_file(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("this is not a key value line\n")
    assert main(["run", "--experiment", "l1_cases", "--config", str(cfg)]) == 2


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("seed = 5\nN = 6\n# comment\n")
    config = resolve_config("l1_cases", load_config_file(str(cfg)), {"seed": "9"})
    assert config.seed == 9  # flags beat the file
    assert config.N == 6
    config2 = resolve_config("cone_lp_theorem_4_2")
    assert config2.p == 3.0 and config2.N == 6  # experiment defaults
    with pytest.raises(ConfigError):
        resolve_config("l1_cases", {"bogus_key": "1"})
    with pytest.raises(ConfigError):
        resolve_config("l1_cases", {"K": "2"})
    with pytest.raises(ConfigError):  # a method of the config is not a key
        resolve_config("l1_cases", {"validate": "1"})


def test_trace_csv_and_no_trace(capsys):
    assert main(["trace", "--experiment", "l1_cases"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == "level,radius,direction_index,quotient"
    assert len(lines) > 100
    assert main(["trace", "--experiment", "determinants_lemma_4_5"]) == 2


# the purely algebraic experiments sample no quotient, so they have no trace
ALGEBRAIC = ("determinants_lemma_4_5", "coefficient_bounds_prop_4_6", "remez_theorem_5_4", "remez_continuity_theorem_4_8")


@pytest.mark.parametrize("experiment", experiment_ids())
def test_every_sampling_experiment_has_a_trace(experiment, capsys):
    code = main(["trace", "--experiment", experiment])
    out, err = capsys.readouterr()
    if experiment in ALGEBRAIC:
        assert code == 2 and "has no quotient trace" in err
    else:
        assert code == 0 and out.split("\n", 1)[0] == "level,radius,direction_index,quotient"


def test_overrides_keep_their_types_in_the_config_echo(tmp_path):
    out = tmp_path / "r.json"
    argv = ["run", "--experiment", "determinants_lemma_4_5", "--p", "3", "--N", "5", "--r0", "0.25",
            "--M", "1,3", "--K", "9", "--out", str(out)]
    assert main(argv) == 0
    echo = json.loads(out.read_text())["config"]
    assert {key: (echo[key], type(echo[key])) for key in ("p", "N", "r0", "M", "K")} == {
        "p": (3.0, float), "N": (5, int), "r0": (0.25, float), "M": ([1, 3], list), "K": (9, int)
    }


@pytest.mark.parametrize("out", ["missing/r.json", ".", "file/r.json"])
def test_unwritable_report_path_is_a_config_error_before_the_run(out, tmp_path, capsys, monkeypatch):
    (tmp_path / "file").write_text("")
    monkeypatch.setattr(cli, "run_experiment", lambda config: pytest.fail("the experiment ran"))
    assert main(["run", "--experiment", "determinants_lemma_4_5", "--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write the report to") and err.count("\n") == 1
    assert [path.name for path in tmp_path.iterdir()] == ["file"]


def test_every_experiment_registered_once():
    ids = experiment_ids()
    assert len(ids) == len(set(ids)) == 12


def test_run_experiment_rejects_unknown():
    cfg = resolve_config("l1_cases")
    cfg.experiment = "missing"
    with pytest.raises(ConfigError):
        run_experiment(cfg)


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--experiment", "l1_cases", "--N", "1"],
        ["run", "--experiment", "l1_cases", "--r", "0.5"],
        ["run", "--experiment", "l1_cases", "--r", "3"],
        ["run", "--experiment", "cone_l2_theorem_4_3", "--M", "9"],
        ["run", "--experiment", "cone_l2_theorem_4_3", "--M", "0"],
        ["run", "--experiment", "cone_l2_theorem_4_3", "--M", "1,2,3,4,5,6"],
        ["run", "--experiment", "cone_l2_theorem_4_3", "--N", "2", "--M", "1,2"],
        ["run", "--experiment", "remez_theorem_5_4", "--G", "3"],
        ["run", "--experiment", "remez_continuity_theorem_4_8", "--G", "4"],
        ["run", "--experiment", "structural_prop_3_2", "--G", "3", "--n", "2"],
        ["run", "--experiment", "structural_prop_3_2", "--N", "1"],
        ["run", "--experiment", "poly_theorem_4_11", "--G", "2"],
        ["run", "--experiment", "poly_theorem_4_11", "--n", "2"],
        ["run", "--experiment", "ball_theorem_4_1", "--r0", "nan"],
        ["run", "--experiment", "ball_theorem_4_1", "--r", "inf"],
        ["run", "--experiment", "determinants_lemma_4_5", "--seed", "-1"],
        ["run", "--experiment", "determinants_lemma_4_5", "--N", "5.0"],
        ["run", "--experiment", "determinants_lemma_4_5", "--M", "1,x"],
        ["run", "--experiment", "ball_theorem_4_1", "--r0", "1e-300"],
        ["run", "--experiment", "ball_theorem_4_1", "--r0", "1e-20"],
        ["run", "--experiment", "ball_theorem_4_1", "--K", "45"],
        ["run", "--experiment", "ball_theorem_4_1", "--K", "60"],
        ["run", "--experiment", "ball_theorem_4_1", "--K", "1100"],
        ["trace", "--experiment", "cone_lp_theorem_4_2", "--M", "9"],
    ],
    ids=lambda argv: " ".join(argv[2:]),
)
def test_invalid_config_exits_2(argv, tmp_path, capsys):
    assert main(argv + (["--out", str(tmp_path / "r.json")] if argv[0] == "run" else [])) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("p", ["5000", "1.0001"])
def test_duality_maps_at_extreme_p_end_without_a_traceback(p, tmp_path, capsys):
    # the plain duality formula overflows at p = 5000 and at q = 10001
    argv = ["run", "--experiment", "cone_lp_theorem_4_2", "--p", p, "--out", str(tmp_path / "r.json")]
    assert main(argv) in (0, 1)
    assert "Traceback" not in capsys.readouterr().err


def test_quotient_form_audit_failure_exits_1_without_a_traceback(tmp_path, capsys, monkeypatch):
    # a pairing off by a constant is not linear: the form that pairs the two
    # increments separately cancels the offset, the other two forms keep it
    monkeypatch.setattr(
        fixed_points, "pairing_rows", lambda w, rows: spaces.pairing_rows(w, rows) + 1e-9
    )
    argv = ["run", "--experiment", "ball_theorem_4_1", "--out", str(tmp_path / "r.json")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("FAIL ball_theorem_4_1: quotient forms disagree")
    assert "Traceback" not in err


def test_remez_convergence_failure_exits_1_without_a_traceback(tmp_path, capsys):
    # at degree 25 the exchange does not level within its iteration budget
    argv = ["run", "--experiment", "structural_prop_3_2", "--n", "25", "--out", str(tmp_path / "r.json")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == "FAIL structural_prop_3_2: no convergence in 100 iterations\n"
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("command", ["run", "trace"])
def test_out_of_memory_is_a_one_line_config_error(command, tmp_path, capsys, monkeypatch):
    # a config too large for memory (say ball_theorem_4_1 at N = S = 100000)
    # raises numpy's ArrayMemoryError, a MemoryError, from inside the run
    def exhausted(config):
        raise MemoryError("Unable to allocate 596. GiB for an array with shape (8, 100000, 100000)")

    monkeypatch.setattr(cli, "run_experiment", exhausted)
    monkeypatch.setattr(cli, "experiment_trace", exhausted)
    argv = [command, "--experiment", "ball_theorem_4_1"]
    assert main(argv + (["--out", str(tmp_path / "r.json")] if command == "run" else [])) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: the configuration does not fit in memory: Unable to allocate")
    assert err.count("\n") == 1
    assert not (tmp_path / "r.json").exists()


CONFIG_KEYS = [f.name for f in dataclasses.fields(ExperimentConfig) if f.name != "experiment"]
config_text = st.one_of(st.text(), st.from_regex(r"-?[0-9]*[.,]?[0-9]*([eE][-+]?[0-9]+)?", fullmatch=True))


# resolves configs only: running fuzzed S, G or K values could allocate without bound
@given(
    st.sampled_from(experiment_ids()),
    st.dictionaries(st.sampled_from(CONFIG_KEYS), config_text, max_size=4),
)
@example("l1_cases", {"N": "abc"})
@example("l1_cases", {"N": "1e3"})
@example("cone_l2_theorem_4_3", {"M": "1,x"})
@example("ball_theorem_4_1", {"K": "9" * 400})
def test_config_text_resolves_or_is_config_error(experiment, overrides):
    try:
        config = resolve_config(experiment, overrides=overrides)
    except ConfigError:
        return
    config.validate()


@pytest.mark.parametrize("grid_size, seeds", [(33, range(1, 31)), (65, [9])], ids=["G33-seeds1-30", "G65-seed9"])
def test_remez_theorem_passes_on_coarse_grids(grid_size, seeds, tmp_path, capsys):
    failed = [
        seed
        for seed in seeds
        if main(["run", "--experiment", "remez_theorem_5_4", "--G", str(grid_size),
                 "--seed", str(seed), "--out", str(tmp_path / "r.json")]) != 0
    ]
    out = capsys.readouterr().out
    assert failed == [], "\n".join(line for line in out.splitlines() if line.startswith("FAIL"))
