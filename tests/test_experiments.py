"""Experiment configs, runners, reports: validation, invariants, determinism."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homoglab import experiments
from homoglab.errors import ConfigError, InputError, InvariantError
from homoglab.experiments import (
    ExperimentConfig,
    Report,
    StabilityReport,
    _classify_curve,
    run_condition_diagnostics,
    run_fenchel_tables,
    run_fhom_table,
    run_hj_convergence,
    run_negative_perturbation,
    run_stability_sweep,
)

FAST_SOLVER = {"max_iters": 300, "restarts": 1, "cell_max_iters": 600, "nodes_per_period": 8}


def make_cfg(**overrides):
    raw = {"experiment": "test", "potential": {"name": "sin2"}, "solver": dict(FAST_SOLVER)}
    raw.update(overrides)
    return ExperimentConfig.from_dict(raw)


# -- config validation -------------------------------------------------------


@pytest.mark.parametrize(
    "raw",
    [
        {"bogus_key": 1},
        {"dimension": 0},
        {"dimension": 1.5},
        {"dimension": 2, "xi": [1.0]},
        {"eps_ladder": []},
        {"eps_ladder": [0.1, 0.2]},
        {"eps_ladder": [0.2, -0.1]},
        {"lambda": -1.0},
        {"seed": -3},
        {"seed": 1.5},
        {"threshold": 0.0},
        {"potential": {"name": "no_such_potential"}},
        {"potential": {"name": "sin2", "params": {"no_such_param": 1}}},
        {"perturbation": {"name": "runge_decay", "params": {"width": 1.0}}},
        {"solver": {"no_such_knob": 1}},
        {"grids": {"no_such_grid": 1}},
        {"xi": ["one"]},
        {"eps_ladder": 0.1},
        {"lambda": float("nan")},
        {"threshold": float("inf")},
        {"solver": {"T_max": "long"}},
        {"grids": {"x": 5}},
        {"grids": {"t": 0.5}},
        {"grids": {"radii": [64, None]}},
        {"grids": {"dp": {"n_x": float("inf")}}},
        {"recovery": {"delta": "small"}},
    ],
)
def test_config_rejects_bad_documents(raw):
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(raw)


def test_config_rejects_invalid_json_and_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json("{not json")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_file(tmp_path / "does_not_exist.json")


def test_config_defaults_are_normalized():
    cfg = ExperimentConfig.from_dict({})
    assert cfg.dimension == 1
    assert cfg.data["potential"] == {"name": "sin2", "params": {}}
    assert cfg.eps_ladder == [0.2, 0.1, 0.05]
    assert cfg.seed == 0
    assert cfg.data["solver"]["max_iters"] == 1200


def test_config_hash_is_order_insensitive_and_default_filling():
    a = ExperimentConfig.from_dict({"seed": 7, "dimension": 1})
    b = ExperimentConfig.from_dict(
        {"dimension": 1, "seed": 7, "eps_ladder": [0.2, 0.1, 0.05]}
    )
    c = ExperimentConfig.from_dict({"seed": 8})
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()
    # the normalized document can be re-validated unchanged (CLI seed override path)
    again = ExperimentConfig.from_dict(dict(a.data))
    assert again.config_hash() == a.config_hash()


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _shuffled(obj, rnd):
    """obj with the keys of every dict in it, nested ones included, in a random order."""
    if isinstance(obj, dict):
        keys = list(obj)
        rnd.shuffle(keys)
        return {k: _shuffled(obj[k], rnd) for k in keys}
    if isinstance(obj, list):
        return [_shuffled(v, rnd) for v in obj]
    return obj


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(p.name for p in CONFIG_DIR.glob("*.json"))),
    rnd=st.randoms(use_true_random=False),
)
def test_config_hash_and_data_ignore_key_order(name, rnd):
    raw = json.loads((CONFIG_DIR / name).read_text())
    cfg = ExperimentConfig.from_dict(raw)
    permuted = ExperimentConfig.from_dict(_shuffled(raw, rnd))
    assert permuted.data == cfg.data
    assert permuted.config_hash() == cfg.config_hash()


def test_config_roundtrips_through_json_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 3, "potential": {"name": "cos_sum"}}))
    cfg = ExperimentConfig.from_file(path)
    assert cfg.seed == 3
    assert cfg.potential().name == "cos_sum"


# -- curve classifier --------------------------------------------------------


def test_classify_curve_labels():
    assert _classify_curve([0.0, 0.0, 1e-12]) == "zero"
    assert _classify_curve([1.0, 0.5, 0.2]) == "decaying"
    assert _classify_curve([1.0, 0.99, 0.95]) == "persistent"
    assert _classify_curve([1.0, 2.0, 0.1]) == "inconclusive"


# -- report plumbing ---------------------------------------------------------


def test_report_csv_takes_column_union_in_first_seen_order():
    rows = ({"a": 1, "b": 2.5}, {"a": 3, "c": "x"})
    rep = Report("demo", rows, {}, {})
    lines = rep.rows_csv_text().splitlines()
    assert lines[0] == "a,b,c"
    assert lines[1] == "1,2.5,"
    assert lines[2] == "3,,x"


def test_report_write_emits_json_csv_and_extras(tmp_path):
    rep = Report("demo", ({"a": 1},), {"ok": True}, {"seed": 0},
                 extra_files=(("notes.txt", "hello"),))
    written = rep.write(tmp_path)
    names = {p.split("/")[-1] for p in written}
    assert names == {"report.json", "rows.csv", "notes.txt"}
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["experiment"] == "demo"
    assert payload["verdicts"] == {"ok": True}
    assert (tmp_path / "notes.txt").read_text() == "hello\n"


def test_stability_report_enforces_min_g_at_least_min_f():
    bad = {"eps": 0.1, "min_G": 1.0, "min_F": 1.5, "f_hom_target": 1.0,
           "gap_G": 0.0, "gap_F": 0.5}
    with pytest.raises(InvariantError):
        StabilityReport("stability", (bad,), {}, {})
    ok = dict(bad, min_G=1.5, min_F=1.0)
    StabilityReport("stability", (ok,), {}, {})  # should not raise


# -- stability runner --------------------------------------------------------


def test_stability_constant_perturbation_shifts_minimum_exactly():
    cfg = make_cfg(
        perturbation={"name": "constant", "params": {"value": 0.5}},
        eps_ladder=[0.25],
    )
    rep = run_stability_sweep(cfg)
    (row,) = rep.rows
    assert "error" not in row
    # A constant perturbation adds exactly value * (t1 - t0) to every action.
    assert row["min_G"] - row["min_F"] == pytest.approx(0.5, abs=1e-8)
    assert rep.verdicts["rows_failed"] == 0


def test_stability_zero_perturbation_rows_coincide():
    cfg = make_cfg(eps_ladder=[0.25])
    rep = run_stability_sweep(cfg)
    (row,) = rep.rows
    assert row["min_G"] == row["min_F"]
    assert row["gap_G"] == row["gap_F"]


def test_stability_short_ladder_decreases_gap():
    cfg = make_cfg(
        perturbation={"name": "runge_decay", "params": {"amplitude": 1.0}},
        eps_ladder=[0.4, 0.2],
        solver=dict(FAST_SOLVER, max_iters=600, restarts=2),
        seed=11,
    )
    rep = run_stability_sweep(cfg)
    rows = rep.rows
    assert all("error" not in r for r in rows)
    gaps = [r["gap_G"] for r in rows]
    assert gaps[1] < gaps[0] * 1.10
    assert all(r["min_G"] >= r["min_F"] - 1e-9 for r in rows)
    assert rep.provenance["f_hom_target"] == pytest.approx(1.46910524, rel=2e-2)


def test_stability_rejects_signed_and_atom_perturbations():
    with pytest.raises(InputError):
        run_stability_sweep(make_cfg(perturbation={"name": "neg_spike"}))
    with pytest.raises(InputError):
        # nonpositive value flips the sign class away from "nonnegative"
        run_stability_sweep(
            make_cfg(perturbation={"name": "constant", "params": {"value": -0.5}})
        )


# -- negative runner ---------------------------------------------------------


def negative_cfg(**overrides):
    raw = {
        "experiment": "negative",
        "potential": {"name": "zero"},
        "perturbation": {"name": "neg_spike", "params": {"depth": 1.0, "width": 0.0}},
        "eps_ladder": [0.2, 0.1],
        "grids": {"dp": {"x_lo": -1.0, "x_hi": 1.0, "n_x": 401, "n_t": 81}},
    }
    raw.update(overrides)
    return ExperimentConfig.from_dict(raw)


def test_negative_pure_atom_is_eps_independent():
    rep = run_negative_perturbation(negative_cfg())
    values = [r["min_G"] for r in rep.rows]
    assert values[0] == values[1]
    assert rep.verdicts["eps_independent"] is True
    assert rep.verdicts["final_within_5pct"] is True
    # loop boundary, zero base potential: value is the pure atom bonus -depth
    assert rep.verdicts["limit_value"] == pytest.approx(-1.0, abs=1e-9)


def test_negative_runner_rejects_wrong_inputs():
    with pytest.raises(InputError):
        run_negative_perturbation(negative_cfg(potential={"name": "sin2"}))
    with pytest.raises(InputError):
        run_negative_perturbation(
            negative_cfg(perturbation={"name": "constant", "params": {"value": 0.5}})
        )
    with pytest.raises(InputError):
        # state grid that misses 0.0 exactly
        run_negative_perturbation(
            negative_cfg(grids={"dp": {"x_lo": -1.0, "x_hi": 1.0, "n_x": 400, "n_t": 81}})
        )


# -- condition diagnostics ---------------------------------------------------


def test_condition_diagnostics_runge_is_decaying():
    cfg = ExperimentConfig.from_dict(
        {
            "experiment": "conditions",
            "perturbation": {"name": "runge_decay"},
            "grids": {"radii": [4.0, 16.0, 64.0]},
        }
    )
    rep = run_condition_diagnostics(cfg)
    assert rep.verdicts["per_direction"] == {"line": "decaying"}
    assert rep.verdicts["classification"].startswith("consistent")
    assert len(rep.rows) == 3
    averages = [r["average"] for r in rep.rows]
    assert averages == sorted(averages, reverse=True)


def test_condition_diagnostics_rejects_bad_radii():
    cfg = ExperimentConfig.from_dict(
        {"perturbation": {"name": "runge_decay"}, "grids": {"radii": [8.0, 4.0]}}
    )
    with pytest.raises(InputError):
        run_condition_diagnostics(cfg)


# -- table runners -----------------------------------------------------------


def test_fhom_runner_free_potential_table():
    cfg = ExperimentConfig.from_dict(
        {
            "potential": {"name": "zero"},
            "grids": {"xi": {"half_width": 1.0, "n": 5}},
            "solver": dict(FAST_SOLVER),
        }
    )
    rep = run_fhom_table(cfg)
    assert rep.verdicts["f0"] == 0.0
    assert rep.verdicts["convexity_violations"] == 0
    assert rep.verdicts["worst_convexity_defect"] <= 1e-12
    values = {r["xi_1"]: r["f_hom"] for r in rep.rows}
    assert values[1.0] == pytest.approx(1.0, abs=1e-9)
    assert values[-0.5] == pytest.approx(0.25, abs=1e-9)
    assert any(name == "f_hom.json" for name, _ in rep.extra_files)


def test_fenchel_runner_certifies_transform():
    cfg = ExperimentConfig.from_dict(
        {
            "potential": {"name": "zero"},
            "grids": {"xi": {"half_width": 2.0, "n": 9}, "p": {"half_width": 4.0, "n": 17}},
            "solver": dict(FAST_SOLVER),
        }
    )
    rep = run_fenchel_tables(cfg)
    assert rep.verdicts["biconjugate_gap"] <= 1e-6
    assert rep.verdicts["fenchel_young_defect"] >= -1e-12
    assert rep.verdicts["conjugate_convexity_violations"] == 0
    star = {r["p_1"]: r["f_star"] for r in rep.rows}
    assert star[2.0] == pytest.approx(1.0, abs=1e-9)  # sup(p*xi - xi^2) = p^2/4
    names = {name for name, _ in rep.extra_files}
    assert names == {"f_hom.json", "f_star.json"}


def test_hj_runner_tabulates_by_the_configured_method(monkeypatch):
    used = []
    real = experiments.tabulate_f_hom

    def spy(*args, **kwargs):
        used.append(kwargs["method"])
        return real(*args, **kwargs)

    monkeypatch.setattr(experiments, "tabulate_f_hom", spy)
    cfg = make_cfg(
        experiment="hj",
        perturbation={"name": "runge_decay"},
        **{"lambda": 1.0},
        eps_ladder=[0.2],
        grids={"x": {"lo": -0.2, "hi": 0.2, "n": 3}, "xi": {"half_width": 2.0, "n": 5}},
        solver={**FAST_SOLVER, "method": "asymptotic"},
    )
    rep = run_hj_convergence(cfg)
    assert used == ["asymptotic"]
    assert rep.provenance["solver"]["method"] == "asymptotic"
    # Each rung reports its lattice, its distance to it and the polish's convergence.
    (row,) = rep.rows
    assert row["all_converged"] is True
    assert 0.0 <= row["dp_sup_distance"] < 0.1
    assert set(rep.provenance["dp_lattice"]["eps_0.2"]) == {"states", "steps", "moves"}


# -- determinism -------------------------------------------------------------


def test_same_config_same_seed_is_bitwise_reproducible():
    raw = {
        "experiment": "stability",
        "potential": {"name": "sin2"},
        "perturbation": {"name": "runge_decay"},
        "eps_ladder": [0.4],
        "seed": 5,
        "solver": dict(FAST_SOLVER),
    }
    rep1 = run_stability_sweep(ExperimentConfig.from_dict(raw))
    rep2 = run_stability_sweep(ExperimentConfig.from_dict(json.loads(json.dumps(raw))))
    assert rep1.to_json() == rep2.to_json()
    assert rep1.rows_csv_text() == rep2.rows_csv_text()


def test_threaded_run_matches_serial():
    cfg = ExperimentConfig.from_dict(
        {
            "perturbation": {"name": "runge_decay"},
            "grids": {"radii": [4.0, 8.0, 16.0]},
        }
    )
    assert (
        run_condition_diagnostics(cfg, threads=3).to_json()
        == run_condition_diagnostics(cfg, threads=1).to_json()
    )
