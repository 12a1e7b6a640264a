"""Command-line entry point: exit codes, outputs, seed override."""

import json
from pathlib import Path

import pytest

import homoglab.cell
from homoglab import cli, experiments, minimize
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


def test_threads_is_not_an_option(tmp_path):
    cfg = write_cfg(tmp_path, FENCHEL_RAW)
    with pytest.raises(SystemExit) as exc:
        cli.main(["fenchel", "--config", cfg, "--threads", "1"])
    assert exc.value.code == 2


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize(
    "command,config", [("conditions", "negative_spike"), ("fhom", "hj_steady")]
)
def test_config_for_another_experiment_is_a_config_error(tmp_path, capsys, command, config):
    path = str(CONFIG_DIR / f"{config}.json")
    code = cli.main([command, "--config", path, "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG == 2
    assert "experiment" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_config_without_an_experiment_runs_under_any_subcommand(tmp_path):
    raw = {k: v for k, v in FENCHEL_RAW.items() if k != "experiment"}
    cfg = write_cfg(tmp_path, raw)
    assert cli.main(["fhom", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert (tmp_path / "o" / "f_hom.json").exists()


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
        {"grids": {"xi": {"n": -3}}},
        {"grids": {"p": {"n": 2.5}}},
        {"grids": {"xi": {"n": 0}}},
        {"grids": {"dp": {"n_x": 0}}},
        {"grids": {"dp": {"n_t": 1.5}}},
        {"solver": {"nodes_per_period": 0}},
        {"solver": {"max_iters": 0}},
        {"solver": {"restarts": -1}},
        {"solver": {"cell_max_iters": 2.5}},
        # Retired settings, at the one value each ever took, are unknown keys.
        {"solver": {"quad_samples": 4}},
        {"solver": {"n_nodes": None}},
        {"solver": {"grad_tol": 1e-8}},
        {"grids": {"lp_exponent": 2.0}},
        {"recovery": {}},
        {"output_dir": 5},
        {"output_dir": True},
        # Registry parameters are finite real numbers (or lists of them).
        {"perturbation": {"name": "runge_decay", "params": {"amplitude": "abc"}}},
        {"perturbation": {"name": "runge_decay", "params": {"amplitude": float("nan")}}},
        {"perturbation": {"name": "runge_decay", "params": {"amplitude": True}}},
        {"perturbation": {"name": "runge_decay", "params": {"amplitude": "2"}}},
        {"initial_datum": {"name": "plane_wave", "params": {"p": [True]}}},
    ],
)
def test_malformed_values_are_config_errors(tmp_path, capsys, bad):
    cfg = write_cfg(tmp_path, dict(FENCHEL_RAW, **bad))
    code = cli.main(["fenchel", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_empty_direction_list_is_a_config_error(tmp_path, capsys):
    raw = {
        "experiment": "conditions",
        "dimension": 2,
        "potential": {"name": "zero"},
        "perturbation": {"name": "parabola_example"},
        "grids": {"directions": []},
    }
    cfg = write_cfg(tmp_path, raw)
    code = cli.main(["conditions", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG == 2
    assert "directions" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("direction", [[0.0, 0.0], [1.0]])
def test_a_zero_or_short_direction_is_a_config_error(tmp_path, capsys, direction):
    """A tube needs a nonzero axis in R^d; the bad direction comes after a good one."""
    raw = {
        "experiment": "conditions",
        "dimension": 2,
        "potential": {"name": "zero"},
        "perturbation": {"name": "parabola_example"},
        "grids": {"radii": [64, 256], "directions": [[0.0, 1.0], direction]},
    }
    cfg = write_cfg(tmp_path, raw)
    code = cli.main(["conditions", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG == 2
    assert "each direction must be a nonzero vector of length d" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_a_single_radius_is_a_config_error(tmp_path, capsys):
    """One radius cannot show a curve decaying or persisting, so no verdict is given."""
    raw = {
        "experiment": "conditions",
        "dimension": 2,
        "potential": {"name": "zero"},
        "perturbation": {"name": "parabola_example"},
        "grids": {"radii": [64], "directions": [[0.0, 1.0]]},
    }
    cfg = write_cfg(tmp_path, raw)
    code = cli.main(["conditions", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG == 2
    assert "radii" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "dimension,perturbation,grids",
    [(1, "runge_decay", {}), (2, "parabola_example", {"directions": [[0.0, 1.0]]})],
)
def test_a_radius_beyond_the_chord_limit_is_a_config_error(
    tmp_path, capsys, dimension, perturbation, grids
):
    """R = 2^41 is finite, but its chord would need 2^44 midpoints (128 TiB):
    the line average (d = 1) refuses it before allocating, and the parabola's
    exact tube average (d = 2) refuses any R past 2^24."""
    refusal = "over the limit 2^24" if dimension == 1 else "verified up to R = 2^24"
    raw = {
        "experiment": "conditions",
        "dimension": dimension,
        "potential": {"name": "zero"},
        "perturbation": {"name": perturbation},
        "grids": dict(grids, radii=[64, 2.0**41]),
    }
    cfg = write_cfg(tmp_path, raw)
    code = cli.main(["conditions", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG == 2
    err = capsys.readouterr().err
    assert "R = 2199023255552.0" in err and refusal in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "grids,refusal",
    [
        ({"radii": [64, 256], "tube_radius": 4.0}, "needs r < 4, got r = 4.0"),
        ({"radii": [64, 2.0**25]}, "verified up to R = 2^24, got R = 33554432.0"),
    ],
)
def test_the_parabola_refuses_a_tube_its_exact_average_does_not_cover(
    tmp_path, capsys, grids, refusal
):
    """A tube radius of 4 would meet tongues inside the disc the closed form
    counts whole; R = 2^25 lies past the radius it is verified to."""
    raw = {
        "experiment": "conditions",
        "dimension": 2,
        "potential": {"name": "zero"},
        "perturbation": {"name": "parabola_example"},
        "grids": dict(grids, directions=[[0.0, 1.0]]),
    }
    cfg = write_cfg(tmp_path, raw)
    code = cli.main(["conditions", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG == 2
    assert refusal in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "experiment,raw",
    [
        ("stability", {"xi": [1.0], "eps_ladder": [0.2]}),
        (
            "hj",
            {
                "lambda": 1.0,
                "eps_ladder": [0.2],
                "grids": {"x": {"lo": -0.2, "hi": 0.2, "n": 3}, "xi": {"half_width": 2.0, "n": 9}},
            },
        ),
    ],
)
def test_a_w_without_closed_form_derivatives_is_a_config_error(tmp_path, capsys, experiment, raw):
    """Newton cannot take an indicator W; the run exits 2 and writes nothing."""
    raw = dict(
        raw,
        experiment=experiment,
        potential={"name": "sin2"},
        perturbation={"name": "indicator_ball"},
        solver={"max_iters": 200, "restarts": 1, "cell_max_iters": 400},
    )
    cfg = write_cfg(tmp_path, raw)
    code = cli.main([experiment, "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG == 2
    assert "closed-form gradient and Hessian" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "dimension,potential,xi_grid,nodes",
    [
        (1, "sin2", {"half_width": 1e-9}, "48000000001"),
        (2, "sin2_coupled", {"half_width": 1e-12, "n": 3}, "90509667991880"),
    ],
)
def test_a_slope_too_small_for_a_cell_window_is_a_config_error(
    tmp_path, capsys, dimension, potential, xi_grid, nodes
):
    """A slope of 1e-9 would need a cell window of 4.8e10 Newton nodes (384 GB);
    in d = 2 no lattice period exists and the window is longer still. Both are
    refused before any array is built."""
    raw = {
        "experiment": "fhom",
        "dimension": dimension,
        "potential": {"name": potential},
        "grids": {"xi": xi_grid},
    }
    cfg = write_cfg(tmp_path, raw)
    code = cli.main(["fhom", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG == 2
    assert f"need 2 to 2^20 nodes, got {nodes}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "experiment,raw,message",
    [
        (
            "stability",
            {"potential": {"name": "sin2"}, "perturbation": {"name": "runge_decay"}, "xi": [1.0]},
            "need 2 to 2^20 nodes, got 12000000009 (eps=1e-09, window [0.0, 1.0])",
        ),
        (
            "hj",
            {
                "potential": {"name": "zero"},
                "lambda": 1.0,
                "grids": {"x": {"lo": -0.2, "hi": 0.2, "n": 3}, "xi": {"half_width": 2.0, "n": 9}},
            },
            "the lattice DP seeds at eps=1e-09 may need",
        ),
    ],
)
def test_a_tiny_eps_is_a_config_error(tmp_path, capsys, experiment, raw, message):
    """At eps = 1e-9 a stability rung would need 1.2e10 Newton nodes, and the
    HJ field's seed lattice 3.1e20 bytes of history. Both are refused,
    naming eps, before any array of that size is built."""
    cfg = write_cfg(tmp_path, dict(raw, experiment=experiment, eps_ladder=[1e-9]))
    code = cli.main([experiment, "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_an_hj_seed_lattice_over_2_28_bytes_of_history_is_a_config_error(
    tmp_path, capsys, monkeypatch
):
    """At eps = 1e-3 the steady field's seed lattice has 6435 states and 6000
    steps: 3.9e7 entries, which fit in 2^28, but 3.1e8 bytes of float64
    history, which do not. The run exits 2 naming eps before it builds the
    lattice's costs or sweeps."""

    def unreachable(*args, **kwargs):
        raise AssertionError("the lattice was built")

    monkeypatch.setattr(minimize, "_lattice_costs", unreachable)
    monkeypatch.setattr(minimize, "_dp_sweep", unreachable)
    raw = {
        "experiment": "hj",
        "potential": {"name": "zero"},
        "lambda": 1.0,
        "eps_ladder": [1e-3],
        "grids": {"x": {"lo": -0.2, "hi": 0.2, "n": 3}, "xi": {"half_width": 2.0, "n": 9}},
    }
    cfg = write_cfg(tmp_path, raw)
    code = cli.main(["hj", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG == 2
    assert (
        "the lattice DP seeds at eps=0.001 may need 3.09e+08 bytes of history, more than 2^28"
        in capsys.readouterr().err
    )
    assert not (tmp_path / "o").exists()


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


@pytest.mark.parametrize(
    "error,code", [(SolverError, cli.EXIT_SOLVER), (InvariantError, cli.EXIT_INVARIANT)]
)
def test_a_failing_stability_rung_sets_the_exit_code(tmp_path, capsys, monkeypatch, error, code):
    """The finest rung fails: the run exits 3 or 4 and writes no report."""
    real = experiments.minimize_bvp

    def solver(V, W, eps, *args, **kwargs):
        if eps == 0.1:
            raise error("synthetic rung failure")
        return real(V, W, eps, *args, **kwargs)

    monkeypatch.setattr(experiments, "minimize_bvp", solver)
    raw = {
        "experiment": "stability",
        "potential": {"name": "sin2"},
        "eps_ladder": [0.4, 0.2, 0.1],
        "solver": {"max_iters": 300, "restarts": 1, "cell_max_iters": 600, "nodes_per_period": 8},
    }
    cfg = write_cfg(tmp_path, raw)
    assert cli.main(["stability", "--config", cfg, "--out", str(tmp_path / "o")]) == code
    assert "synthetic rung failure" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_a_failing_slope_keeps_its_invariant_exit_code(tmp_path, capsys, monkeypatch):
    """An InvariantError at one slope of an fhom table exits 4, not 3. It comes
    from the Newton solve of the window [0, 1] toward +1, which is xi = 1.0."""
    real = homoglab.cell.minimize_bvp

    def solver(V, W, eps, t0, t1, a, b, n_nodes, opt):
        if t1 == 1.0 and b == 1.0:
            raise InvariantError(f"synthetic violation at xi={b / t1}")
        return real(V, W, eps, t0, t1, a, b, n_nodes, opt)

    monkeypatch.setattr(homoglab.cell, "minimize_bvp", solver)
    cfg = write_cfg(tmp_path, dict(FENCHEL_RAW, experiment="fhom"))
    assert cli.main(["fhom", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
    assert "synthetic violation at xi=1.0" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


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
