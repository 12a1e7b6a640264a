"""Command-line entry point: exit codes, outputs, seed override."""

import json

import pytest

from homoglab import cli
from homoglab.errors import InvariantError, SolverError


def write_cfg(tmp_path, raw, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


FENCHEL_RAW = {
    "experiment": "fenchel",
    "potential": {"name": "zero"},
    "grids": {"xi": {"half_width": 2.0, "n": 9}, "p": {"half_width": 4.0, "n": 17}},
    "solver": {"max_iters": 300, "restarts": 1, "cell_max_iters": 600},
}


def test_success_writes_report_and_prints_verdicts(tmp_path, capsys):
    cfg = write_cfg(tmp_path, FENCHEL_RAW)
    out = tmp_path / "out"
    code = cli.main(["fenchel", "--config", cfg, "--out", str(out)])
    assert code == cli.EXIT_OK == 0
    captured = capsys.readouterr().out
    assert "biconjugate_gap" in captured
    payload = json.loads((out / "report.json").read_text())
    assert payload["experiment"] == "fenchel"
    assert (out / "rows.csv").read_text().splitlines()[0] == "p_1,f_star"
    assert (out / "f_star.json").exists()


def test_missing_config_file_is_a_config_error(tmp_path, capsys):
    code = cli.main(["fenchel", "--config", str(tmp_path / "nope.json")])
    assert code == cli.EXIT_CONFIG == 2
    assert "config error" in capsys.readouterr().err


def test_unknown_potential_is_a_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"potential": {"name": "not_registered"}})
    code = cli.main(["conditions", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG == 2
    assert "config error" in capsys.readouterr().err


def test_bad_threads_is_a_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, FENCHEL_RAW)
    code = cli.main(["fenchel", "--config", cfg, "--threads", "0"])
    assert code == cli.EXIT_CONFIG == 2


@pytest.mark.parametrize(
    "bad",
    [
        {"dimension": True},
        {"seed": True},
        {"xi": [float("nan")]},
        {"eps_ladder": [float("nan")]},
        {"lambda": float("inf")},
        {"threshold": float("nan")},
        {"solver": {"max_iters": "many"}},
        {"grids": {"xi": {"n": "nine"}}},
    ],
)
def test_malformed_values_are_config_errors(tmp_path, capsys, bad):
    cfg = write_cfg(tmp_path, dict(FENCHEL_RAW, **bad))
    code = cli.main(["fenchel", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG == 2
    assert "config error" in capsys.readouterr().err


def test_unreachable_hj_grid_is_a_solver_failure(tmp_path, capsys):
    raw = {
        "experiment": "hj",
        "potential": {"name": "zero"},
        "initial_datum": {"name": "plane_wave", "params": {"p": [1.0]}},
        "eps_ladder": [0.2],
        "grids": {
            "x": {"lo": 50.0, "hi": 51.0, "n": 2},
            "t": [0.5, 1.0],
            "y": {"lo": -2.0, "hi": 2.0, "n": 41},
            "xi": {"half_width": 2.0, "n": 9},
        },
        "solver": {"max_iters": 200, "restarts": 1, "cell_max_iters": 400},
    }
    cfg = write_cfg(tmp_path, raw)
    code = cli.main(["hj", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_SOLVER == 3
    assert "solver failure" in capsys.readouterr().err


def test_invariant_violation_maps_to_exit_4(tmp_path, capsys, monkeypatch):
    def exploding_runner(cfg, threads=1):
        raise InvariantError("synthetic violation")

    monkeypatch.setitem(cli._RUNNERS, "fenchel", (exploding_runner, "stub"))
    cfg = write_cfg(tmp_path, FENCHEL_RAW)
    code = cli.main(["fenchel", "--config", cfg])
    assert code == cli.EXIT_INVARIANT == 4
    assert "invariant violation" in capsys.readouterr().err


def test_solver_error_maps_to_exit_3(tmp_path, capsys, monkeypatch):
    def exploding_runner(cfg, threads=1):
        raise SolverError("synthetic failure")

    monkeypatch.setitem(cli._RUNNERS, "fenchel", (exploding_runner, "stub"))
    cfg = write_cfg(tmp_path, FENCHEL_RAW)
    assert cli.main(["fenchel", "--config", cfg]) == cli.EXIT_SOLVER == 3


def test_seed_override_changes_provenance(tmp_path):
    cfg = write_cfg(tmp_path, dict(FENCHEL_RAW, seed=1))
    out_a, out_b, out_c = (tmp_path / s for s in ("a", "b", "c"))
    assert cli.main(["fenchel", "--config", cfg, "--out", str(out_a)]) == 0
    assert cli.main(["fenchel", "--config", cfg, "--out", str(out_b), "--seed", "9"]) == 0
    assert cli.main(["fenchel", "--config", cfg, "--out", str(out_c), "--seed", "1"]) == 0
    prov = lambda p: json.loads((p / "report.json").read_text())["provenance"]
    assert prov(out_a)["seed"] == 1
    assert prov(out_b)["seed"] == 9
    # overriding with the config's own seed reproduces the run byte for byte
    assert (out_a / "report.json").read_bytes() == (out_c / "report.json").read_bytes()
    assert (out_a / "rows.csv").read_bytes() == (out_c / "rows.csv").read_bytes()


def test_same_seed_runs_are_byte_identical(tmp_path):
    raw = {
        "experiment": "stability",
        "potential": {"name": "sin2"},
        "perturbation": {"name": "runge_decay"},
        "eps_ladder": [0.4],
        "seed": 5,
        "solver": {"max_iters": 300, "restarts": 1, "cell_max_iters": 600,
                   "nodes_per_period": 8},
    }
    cfg = write_cfg(tmp_path, raw)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["stability", "--config", cfg, "--out", str(out_a)]) == 0
    assert cli.main(["stability", "--config", cfg, "--out", str(out_b)]) == 0
    for name in ("report.json", "rows.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_output_dir_defaults_to_config_value(tmp_path, monkeypatch):
    out = tmp_path / "from_config"
    cfg = write_cfg(tmp_path, dict(FENCHEL_RAW, output_dir=str(out)))
    assert cli.main(["fenchel", "--config", cfg]) == 0
    assert (out / "report.json").exists()
