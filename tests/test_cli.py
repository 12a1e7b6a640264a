"""Command-line entry point: exit codes, outputs, seed override."""

import json
import warnings
from pathlib import Path

import pytest

import homoglab.cell
from homoglab import cell_value_1d, cli, experiments, make_potential, minimize
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
    reason = {2: "nonzero vector with a finite norm", 1: "vector of length d = 2"}[len(direction)]
    err = capsys.readouterr().err
    assert f"direction must be a {reason}, got direction={direction}" in err
    assert not (tmp_path / "o").exists()


def test_a_direction_whose_norm_overflows_is_a_config_error(tmp_path, capsys):
    """[1e308, 1e308] is finite, but its norm is not: it is refused by name,
    before any tube, and no overflow warning leaks."""
    raw = {
        "experiment": "conditions",
        "dimension": 2,
        "potential": {"name": "zero"},
        "perturbation": {"name": "parabola_example"},
        "grids": {"radii": [64, 256], "directions": [[0.0, 1.0], [1e308, 1e308]]},
    }
    cfg = write_cfg(tmp_path, raw)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["conditions", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG == 2
    err = capsys.readouterr().err
    shown = "direction must be a nonzero vector with a finite norm, got direction=[1e+308, 1e+308]"
    assert shown in err
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


def test_a_slope_too_small_for_a_cell_window_is_a_config_error(tmp_path, capsys):
    """A slope of 1e-9 would need a d = 1 cell window of 4.8e10 Newton nodes
    (384 GB); it is refused before any array is built. In d >= 2 no window is
    solved: every value is an exact separable sum."""
    raw = {"experiment": "fhom", "potential": {"name": "sin2"}, "grids": {"xi": {"half_width": 1e-9}}}
    cfg = write_cfg(tmp_path, raw)
    code = cli.main(["fhom", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG == 2
    assert "need 2 to 2^20 nodes, got 48000000001" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_a_separable_d2_table_at_slopes_whose_norm_underflows_takes_exact_values(
    tmp_path, capsys
):
    """At half_width 1e-300 the norm of every nonzero slope underflows to 0,
    yet only the slope with both components 0 reads as slope 0: the others
    take their exact separable values, each above v_min = 0. No warning."""
    raw = {
        "experiment": "fhom",
        "dimension": 2,
        "potential": {"name": "sin2"},
        "grids": {"xi": {"half_width": 1e-300, "n": 3}},
    }
    cfg = write_cfg(tmp_path, raw)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["fhom", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_OK
    assert "Traceback" not in capsys.readouterr().err
    table = json.loads((tmp_path / "o" / "f_hom.json").read_text())
    factor = make_potential("sin2", 2).factor
    for a, row in zip(table["axes"][0], table["values"]):
        for b, value in zip(table["axes"][1], row):
            assert value == float(sum(cell_value_1d(factor, [a, b])))
            assert (value > 0.0) == (a != 0.0 or b != 0.0)


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
            "need 2 to 2^20 nodes, got 24000000009 (eps=1e-09, window [0.0, 6.0])",
        ),
    ],
)
def test_a_tiny_eps_is_a_config_error(tmp_path, capsys, experiment, raw, message):
    """At eps = 1e-9 a stability rung would need 1.2e10 Newton nodes, and the
    steady HJ field's polish 2.4e10. Both are refused, naming eps, before any
    array of that size is built: the HJ count before its seed lattice."""
    cfg = write_cfg(tmp_path, dict(raw, experiment=experiment, eps_ladder=[1e-9]))
    code = cli.main([experiment, "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


_STEADY_RAW = {
    "experiment": "hj",
    "potential": {"name": "sin2"},
    "lambda": 1.0,
    "grids": {"x": {"lo": -0.2, "hi": 0.2, "n": 3}, "xi": {"half_width": 2.0, "n": 9}},
}
_EVOLUTIONARY_RAW = {
    "experiment": "hj",
    "potential": {"name": "sin2"},
    "initial_datum": {"name": "plane_wave"},
    "grids": {
        "x": {"lo": 0.3, "hi": 0.7, "n": 3},
        "t": [0.5, 1.0],
        "y": {"lo": -2.0, "hi": 2.0, "n": 161},
        "xi": {"half_width": 2.0, "n": 9},
    },
}
_STABILITY_RAW = {
    "experiment": "stability",
    "potential": {"name": "sin2"},
    "perturbation": {"name": "runge_decay"},
    "xi": [1.0],
}


def _tiny_fhom_raw(dimension, potential, half_width):
    return {
        "experiment": "fhom",
        "dimension": dimension,
        "potential": {"name": potential},
        "grids": {"xi": {"half_width": half_width, "n": 3}},
    }


@pytest.mark.parametrize(
    "raw",
    [
        _tiny_fhom_raw(2, "sin2_coupled", 1.0),
        dict(_STABILITY_RAW, dimension=2, xi=[1.0, 2.0], potential={"name": "sin2_coupled"}),
    ],
    ids=["fhom", "stability"],
)
def test_a_config_naming_the_retired_coupled_potential_exits_2(tmp_path, capsys, raw):
    """sin2_coupled left the registry with the window ladder that gave its
    d = 2 f_hom, so a config naming it is refused before any solve, not run
    to other numbers."""
    cfg = write_cfg(tmp_path, raw)
    code = cli.main([raw["experiment"], "--config", cfg, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == cli.EXIT_CONFIG == 2
    assert "unknown potential 'sin2_coupled'" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "raw,message",
    [
        (dict(_STABILITY_RAW, eps_ladder=[1e-320]), "got inf (eps=1e-320, window [0.0, 1.0])"),
        (dict(_STABILITY_RAW, eps_ladder=[1e-300]), "got 1.2e+301 (eps=1e-300, window [0.0, 1.0])"),
        (dict(_STEADY_RAW, eps_ladder=[1e-320]), "got inf (eps=1e-320, window [0.0, 6.0])"),
        (dict(_STEADY_RAW, eps_ladder=[1e-300]), "got 2.4e+301 (eps=1e-300, window [0.0, 6.0])"),
        (
            dict(_STEADY_RAW, eps_ladder=[0.2], **{"lambda": 1e-200}),
            "got 1.2e+202 (eps=0.2, window [0.0, 6e+200])",
        ),
        (
            dict(_STEADY_RAW, eps_ladder=[0.2], **{"lambda": 1e300}),
            "the lattice slopes on the window [0.0, 5.999999999999999e-300] reach 2.08e+297, "
            "whose square no float holds",
        ),
        (
            dict(_EVOLUTIONARY_RAW, eps_ladder=[1e-300]),
            "got 4e+300 (eps=1e-300, window [0.0, 0.5])",
        ),
        (dict(_EVOLUTIONARY_RAW, eps_ladder=[1e-320]), "got inf (eps=1e-320, window [0.0, 0.5])"),
        (
            dict(
                _EVOLUTIONARY_RAW,
                eps_ladder=[1e-5],
                grids=dict(_EVOLUTIONARY_RAW["grids"], y={"lo": -1e300, "hi": 1e300, "n": 3}),
            ),
            "the lattice DP seeds at eps=1e-05 may need inf bytes of history, more than 2^28",
        ),
        *(
            (
                dict(
                    _EVOLUTIONARY_RAW,
                    initial_datum={"name": datum},
                    eps_ladder=[1e-5],
                    grids=dict(_EVOLUTIONARY_RAW["grids"], y={"lo": -1e300, "hi": 1e300, "n": 3}),
                ),
                "the lattice DP seeds at eps=1e-05 may need inf bytes of history, more than 2^28",
            )
            for datum in ("abs_min", "quadratic")
        ),
        (
            dict(
                _EVOLUTIONARY_RAW,
                eps_ladder=[0.5],
                grids=dict(_EVOLUTIONARY_RAW["grids"], y={"lo": 0.0, "hi": 1e-200, "n": 3}),
            ),
            "the lattice DP seeds at eps=0.5 may need inf bytes of history, more than 2^28",
        ),
        (
            {
                "experiment": "fhom",
                "potential": {"name": "sin2"},
                "grids": {"xi": {"half_width": 1e300, "n": 3}},
            },
            "xi must be finite and below 2^511 in size, got -1e+300",
        ),
        (
            dict(_STABILITY_RAW, xi=[1e300], eps_ladder=[0.1]),
            "xi must be finite and below 2^511 in size, got 1e+300",
        ),
        (
            dict(_STABILITY_RAW, xi=[1e-300], eps_ladder=[0.1]),
            "need 2 to 2^20 nodes, got 4.8e+301 (window T = 1/|xi| at xi=1e-300)",
        ),
        (
            _tiny_fhom_raw(1, "sin2", 1e-300),
            "need 2 to 2^20 nodes, got 4.8e+301 (window T = 1/|xi| at xi=-1e-300)",
        ),
        (
            _tiny_fhom_raw(1, "sin2", 5e-324),
            "the window T = 1/|xi| at xi=-5e-324 is not finite",
        ),
    ],
    ids=[
        "stability-eps-1e-320", "stability-eps-1e-300", "steady-eps-1e-320", "steady-eps-1e-300",
        "steady-lambda-1e-200", "steady-lambda-1e300", "evolutionary-eps-1e-300", "evolutionary-eps-1e-320",
        "evolutionary-y-1e300", "evolutionary-abs-min-y-1e300", "evolutionary-quadratic-y-1e300",
        "evolutionary-dy-5e-201", "fhom-xi-1e300", "stability-xi-1e300", "stability-xi-1e-300",
        "fhom-xi-1e-300", "fhom-xi-5e-324",
    ],
)
def test_a_count_past_any_float_is_a_config_error(tmp_path, capsys, raw, message):
    """A tiny eps or lambda, a huge y grid or a huge slope asks for more nodes,
    lattice bytes or energy than a float holds, and so does a tiny slope, one
    whose norm underflows to 0 too: it is no slope 0. Each exits 2 naming its
    eps or xi (lambda through its window 6/lambda), with no traceback, no
    warning, and a count printed to 15 digits at most."""
    cfg = write_cfg(tmp_path, raw)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main([raw["experiment"], "--config", cfg, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == cli.EXIT_CONFIG == 2
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def _huge_y(dimension):
    grids = dict(_EVOLUTIONARY_RAW["grids"], y={"lo": -1e308, "hi": 0.0, "n": 3})
    if dimension == 2:
        grids.update(x={"lo": 0.3, "hi": 0.7, "n": 2}, xi={"half_width": 2.0, "n": 5})
    return dict(_EVOLUTIONARY_RAW, dimension=dimension, eps_ladder=[1e-5], grids=grids)


@pytest.mark.parametrize(
    "raw,message",
    [
        (
            dict(_EVOLUTIONARY_RAW, grids=dict(
                _EVOLUTIONARY_RAW["grids"], y={"lo": -1e308, "hi": 1e308, "n": 3}
            )),
            "grids.y spans [-1e+308, 1e+308], wider than a float holds",
        ),
        (
            dict(_STEADY_RAW, grids=dict(_STEADY_RAW["grids"], x={"lo": -1e308, "hi": 1e308, "n": 3})),
            "grids.x spans [-1e+308, 1e+308], wider than a float holds",
        ),
        (
            _tiny_fhom_raw(1, "sin2", 1e308),
            "grids.xi spans [-1e+308, 1e+308], wider than a float holds",
        ),
        (
            dict(FENCHEL_RAW, grids=dict(FENCHEL_RAW["grids"], p={"half_width": 1e308, "n": 17})),
            "grids.p spans [-1e+308, 1e+308], wider than a float holds",
        ),
        (
            {
                "experiment": "negative",
                "potential": {"name": "zero"},
                "perturbation": {"name": "neg_spike", "params": {"depth": 0.75, "width": 0.0}},
                "grids": {"dp": {"x_lo": -1e308, "x_hi": 1e308, "n_x": 5, "n_t": 5}},
            },
            "the DP state range [-1e+308, 1e+308] is wider than a float holds",
        ),
        (_huge_y(1), "the lattice DP seeds at eps=1e-05 may need inf bytes of history"),
        (_huge_y(2), "the lattice DP seeds of the HJ solvers need d = 1"),
    ],
    ids=["y-1e308", "x-1e308", "xi-half-width-1e308", "p-half-width-1e308", "dp-range-1e308",
         "y-to-1e308-d1", "y-to-1e308-d2"],
)
def test_a_grid_out_to_1e308_is_a_config_error_with_no_warning(tmp_path, capsys, raw, message):
    """A grid whose span passes the largest float is refused by name before
    linspace overflows on it. A y grid that only reaches -1e308 gives the
    homogenized field infinite slopes, which lie outside every hull, and
    plane-wave data of +-inf; neither warns, and the run exits 2 with the
    eps field's own refusal."""
    cfg = write_cfg(tmp_path, raw)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main([raw["experiment"], "--config", cfg, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == cli.EXIT_CONFIG == 2
    assert message in err and "Traceback" not in err
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


@pytest.mark.parametrize(
    "potential, x, t, refusal",
    [
        ("zero", {"lo": 50.0, "hi": 51.0, "n": 2}, [0.5, 1.0], "x=[50.0], t=0.5:"),
        ("sin2", {"lo": 0.3, "hi": 0.7, "n": 2}, [1e-300], "x=[0.3], t=1e-300:"),
    ],
    ids=["far-x", "tiny-t"],
)
def test_unreachable_hj_grid_is_a_config_error(tmp_path, capsys, potential, x, t, refusal):
    """No admissible y is decided by the grids, t and the hull alone, before
    any solve: an input error naming the first (x, t), not a solver failure."""
    raw = {
        "experiment": "hj",
        "potential": {"name": potential},
        "initial_datum": {"name": "plane_wave", "params": {"p": [1.0]}},
        "eps_ladder": [0.2],
        "grids": {
            "x": x,
            "t": t,
            "y": {"lo": -2.0, "hi": 2.0, "n": 41},
            "xi": {"half_width": 2.0, "n": 9},
        },
        "solver": {"max_iters": 200, "restarts": 1, "cell_max_iters": 400},
    }
    cfg = write_cfg(tmp_path, raw)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["hj", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG == 2
    assert f"config error: no admissible y for {refusal}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


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
    from the Newton solve of the window [0, 1] toward -1, which is xi = -1.0,
    the solved member of its +-xi pair."""
    real = homoglab.cell.minimize_bvp

    def solver(V, W, eps, t, a, b, n_nodes, opt):
        if t == 1.0 and b == -1.0:
            raise InvariantError(f"synthetic violation at xi={b / t}")
        return real(V, W, eps, t, a, b, n_nodes, opt)

    monkeypatch.setattr(homoglab.cell, "minimize_bvp", solver)
    cfg = write_cfg(tmp_path, dict(FENCHEL_RAW, experiment="fhom"))
    assert cli.main(["fhom", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
    assert "synthetic violation at xi=-1.0" in capsys.readouterr().err
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
