"""Experiment configs, runners, reports: validation, invariants, determinism."""

import dataclasses
import importlib.util
import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import homoglab.cell
from homoglab import (
    PeriodicPotential, experiments, fenchel, hj, make_perturbation, make_potential, minimize,
    potentials,
)
from homoglab.errors import ConfigError, InputError, InvariantError, SolverError
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
from homoglab.fenchel import biconjugate_check, legendre_transform

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
        {"grids": {"x": 5}},
        {"grids": {"t": 0.5}},
        {"grids": {"radii": [64, None]}},
        {"grids": {"dp": {"n_x": float("inf")}}},
        # Retired settings, each at the one value it ever took, are unknown keys.
        {"solver": {"grad_tol": 1e-8}},
        {"solver": {"quad_samples": 4}},
        {"solver": {"method": None}},
        {"solver": {"n_nodes": None}},
        {"solver": {"T_max": None}},
        {"solver": {"warm_starts": True}},
        {"grids": {"lp_exponent": 2.0}},
        {"recovery": {}},
        {"recovery": {"delta": 0.2}},
        {"recovery": {"eta_tube": 0.25}},
        {"recovery": {"alpha": 0.75}},
        {"recovery": {"horizon": None}},
    ],
)
def test_config_rejects_bad_documents(raw):
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(raw)


def test_a_null_registry_parameter_keeps_the_builders_default():
    cfg = ExperimentConfig.from_dict(
        {"dimension": 2, "initial_datum": {"name": "plane_wave", "params": {"p": None}}}
    )
    assert cfg.initial_datum()([1.0, 2.0]) == 3.0


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


def _bench_workloads():
    """bench/workloads.py, loaded from its file, read-only and without touching sys.path."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


@pytest.mark.parametrize("seed", [7, 8])
def test_every_benchmark_config_parses(seed):
    workloads = _bench_workloads()
    for workload in workloads.CALLS:
        for _, runner, raw in workloads.configs(workload, seed):
            ExperimentConfig.from_dict(raw)
            assert callable(getattr(experiments, runner))


def test_the_stability_rows_do_not_depend_on_the_seed():
    """No solver draws a random number, so the benchmark's d = 1 stability
    ladder at seeds 1 and 2 gives the same rows and verdicts, bit for bit;
    only the provenance's seed and config hash differ."""
    (raw_1,) = [raw for label, _, raw in _bench_workloads().configs("stability", 1)
                if label == "stability_1d"]
    one = run_stability_sweep(ExperimentConfig.from_dict(raw_1))
    two = run_stability_sweep(ExperimentConfig.from_dict(dict(raw_1, seed=2)))
    for part in ("rows", "verdicts"):
        dumped = [json.dumps(experiments._pyify(getattr(r, part))) for r in (one, two)]
        assert dumped[0] == dumped[1]
    assert (one.provenance["seed"], two.provenance["seed"]) == (1, 2)


def test_the_output_comparer_lists_every_changed_value(tmp_path, capsys):
    """tools/compare_outputs.py, loaded from its file, on two hand-made trees:
    each changed number with its signed ulps, a key on one side only, and
    nothing for an identical file or one that is not .json or .csv."""
    path = Path(__file__).resolve().parent.parent / "tools" / "compare_outputs.py"
    spec = importlib.util.spec_from_file_location("compare_outputs", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    old, new = tmp_path / "old", tmp_path / "new"
    for root, value, extra in ((old, 1.0, {}), (new, 1.0000000000000004, {"gap": 2e-5})):
        (root / "a").mkdir(parents=True)
        table = {"meta": {"method": "1d", **extra}, "values": [0.5, value, "x"]}
        (root / "a" / "f.json").write_text(json.dumps(table))
        (root / "rows.csv").write_text(f"xi,f\n0.5,{value!r}\n1.0,nan\n")
        (root / "same.json").write_text("[1.0]")
        (root / "log.txt").write_text(repr(value))
    tool.list_changed_values(old, new)
    assert capsys.readouterr().out.splitlines() == [
        "a/f.json:",
        "  meta.gap: '(absent)' -> 2e-05",
        "  values[1]: 1.0 -> 1.0000000000000004 (+2 ulps)",
        "rows.csv:",
        "  row 1 f: 1.0 -> 1.0000000000000004 (+2 ulps)",
    ]
    assert tool.ulps(-0.0, 0.0) == 0 and tool.ulps(1.0, 0.9999999999999999) == -1
    assert tool.ulps(-5e-324, 5e-324) == 2


def _workload_timer(monkeypatch):
    """tools/time_workloads.py, loaded from its file with tools/ on sys.path,
    which monkeypatch restores."""
    tools = Path(__file__).resolve().parent.parent / "tools"
    monkeypatch.setattr(sys, "path", [str(tools)] + sys.path)
    spec = importlib.util.spec_from_file_location("time_workloads", tools / "time_workloads.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_the_workload_timer_alternates_the_sides_and_checks_their_bytes(monkeypatch, capsys):
    """REV runs first in odd pairs and this checkout in even ones; the summary
    counts the pairs this checkout won, and bytes that differ fail it."""
    tool = _workload_timer(monkeypatch)
    order = []
    least = {"REV": iter([0.050, 0.052, 0.049]), "here": iter([0.040, 0.053, 0.041])}

    def run_side(root, workload, seed, loops):
        side = "here" if root == tool.ROOT else "REV"
        order.append(side)
        return {"least": next(least[side]), "digests": ["same"], "problems": []}

    monkeypatch.setattr(tool, "run_side", run_side)
    results = tool.time_pairs(Path("rev"), "tables", 0, 3, 5)
    assert order == ["REV", "here", "here", "REV", "REV", "here"]
    assert tool.report(results) == 0
    out = capsys.readouterr().out
    assert "REV   median 50.00 ms, quartiles " in out and "here  median 41.00 ms" in out
    assert "this checkout faster in 2 of 3 pairs" in out
    results[1][2]["digests"] = ["other"]
    assert tool.report(results) == 1
    assert "the loops wrote 2 different sets of bytes" in capsys.readouterr().out


def test_the_workload_timer_runs_a_benchmark_loop_in_a_fresh_process(monkeypatch):
    tool = _workload_timer(monkeypatch)
    run = tool.run_side(tool.ROOT, "lattice", 7, 2)
    assert run["least"] > 0 and len(run["digests"]) == 1 and run["problems"] == []


def _layer_timer(monkeypatch):
    """tools/time_layers.py, loaded from its file; it prepends src/ and bench/
    to sys.path, which monkeypatch restores."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    path = Path(__file__).resolve().parent.parent / "tools" / "time_layers.py"
    spec = importlib.util.spec_from_file_location("time_layers", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_the_layer_timer_captures_every_kernel_and_restores_it(monkeypatch):
    # One capture pass, no timed replays.
    tool = _layer_timer(monkeypatch)
    kernels = lambda: (
        minimize._dp_sweep,
        minimize._solve,
        homoglab.cell.cell_value_1d,
        experiments.cylinder_average,
    )
    originals = kernels()
    calls = tool.capture(7)
    assert sorted(calls) == ["_dp_sweep", "_solve", "cell_value_1d", "cylinder_average"]
    assert all(calls.values())
    labels = {label.split("/")[0] for kernel in calls.values() for label, _ in kernel}
    assert labels == {"tables", "stability", "hj", "lattice"}
    # The hj seed sweeps keep their history; the lattice oracle's do not.
    assert {(label.split("/")[0], call["history"]) for label, call in calls["_dp_sweep"]} == {
        ("hj", True), ("lattice", False)
    }
    # Each d = 1 table reads its exact values in one pass over the 8 slopes it
    # solves, one of each +-xi pair of its 16 nonzero slopes.
    tables = [call["xi"] for label, call in calls["cell_value_1d"] if label.startswith("tables/")]
    assert [len(xi) for xi in tables] == [8, 8]
    assert all(len(set(np.abs(xi).tolist())) == len(xi) for xi in tables)  # one slope per speed
    # Each of the 5 lattice tube directions is one call over the 4 radii.
    assert [(label, call["R"]) for label, call in calls["cylinder_average"]] == (
        [("lattice/conditions", [64.0, 256.0, 1024.0, 4096.0])] * 5
    )
    assert kernels() == originals


def test_the_layer_timer_prints_the_levels_of_each_exact_pass(monkeypatch, capsys):
    """The exact-pass table counts a call's slopes and its distinct nonzero
    speeds (+-xi share one), and shows the levels it built, first..last; a
    constant v stops at the first level. `_period_nodes` is restored."""
    tool = _layer_timer(monkeypatch)
    period_nodes = homoglab.cell._period_nodes
    sin2 = make_potential("sin2", 1).factor
    constant = lambda w: np.full(np.shape(w), 0.5)
    built = tool.levels_of(sin2, [1.0, -1.0, 0.0, 0.5])
    assert built == list(range(3, built[-1] + 1)) and len(built) >= 2
    tool.print_exact([("a", dict(v=sin2, xi=[1.0, -1.0, 0.0, 0.5])),
                      ("b", dict(v=constant, xi=2.0)),
                      ("c", dict(v=sin2, xi=0.0))])
    header, stacked, one, zero = capsys.readouterr().out.splitlines()
    assert header.split()[1:] == ["slopes", "speeds", "levels", "ms"]
    assert stacked.split()[1:4] == ["4", "2", f"3..{built[-1]}"]
    assert one.split()[1:4] == ["1", "1", "3..3"]
    assert zero.split()[1:4] == ["1", "0", "-"]
    assert all(float(line.split()[-1]) > 0 for line in (stacked, one, zero))
    assert homoglab.cell._period_nodes is period_nodes


def test_the_layer_timer_takes_the_least_cpu_time_of_nine_runs(monkeypatch):
    """A time is the least process-time difference of REPEATS = 9 runs; the
    wall clock is never read."""
    tool = _layer_timer(monkeypatch)
    durations = [5.0, 2.0, 3.0, 9.0, 4.0, 4.0, 6.0, 2.5, 3.0]
    ticks = iter(np.cumsum([0.0] + [d for pair in zip(durations, [1.0] * 9) for d in pair]))
    monkeypatch.setattr(tool, "time", types.SimpleNamespace(process_time=lambda: next(ticks)))
    runs = []
    assert tool.REPEATS == 9
    assert tool.min_ms(lambda: runs.append(None), dict) == 2000.0
    assert len(runs) == 9


def test_the_layer_timer_prints_each_sweeps_history(monkeypatch, capsys):
    """The DP table gives a sweep with history the MB of the buffer it
    returns, (99 + 1) x (2 + 1000 + 3) float64, and one without `no`. The
    whole range visits every state of every step; the span 500..500 visits,
    with `left` steps still to go, the states 500 - 2 left .. 500 + 3 left
    that lie on the grid, of each of its problems. Counting leaves
    minimize's `np` as it was."""
    tool = _layer_timer(monkeypatch)
    call = dict(
        value=np.zeros(1000), lo=0, hi=999, moves=np.array([-2, 0, 3]),
        stages=np.ones((3, 1000)), n_steps=99, span=(0, 999), weights=None, atom=None,
        bound=None, history=True,
    )
    aimed = dict(call, value=np.zeros((3, 1000)), span=(500, 500), history=False)
    tool.print_sweeps([("a", call), ("b", dict(call, history=False)), ("c", aimed)])
    header, with_history, without, narrow = capsys.readouterr().out.splitlines()
    assert header.split()[2:] == [
        "moves", "problems", "steps", "span", "weights", "bound", "visited", "history", "ms"
    ]
    assert with_history.split()[3:6] == ["1", "99", "0..999"]
    assert with_history.split()[-4:-1] == ["1.000", "0.80", "MB"]
    assert without.split()[-3:-1] == ["1.000", "no"]
    left = np.arange(99)
    states = np.minimum(999, 500 + 3 * left) - np.maximum(0, 500 - 2 * left) + 1
    assert narrow.split()[3:6] == ["3", "99", "500..500"]
    assert narrow.split()[-3] == f"{states.sum() / (99 * 1000):.3f}"
    assert minimize.np is np


def test_the_layer_timer_charges_each_part_of_a_solve(monkeypatch):
    """Each part of a Newton solve gets time, one sweep per gradient: a kernel
    method the solver no longer called would leave its time in the
    bookkeeping. The wrappers come off the action and the module after."""
    tool = _layer_timer(monkeypatch)
    V, times = make_potential("sin2", 1), np.linspace(0.0, 2.0, 33)
    a, b = np.zeros((1, 1)), np.ones((1, 1))
    action = minimize._Action.eps_action(V, None, 0.5, times, 4)
    starts = minimize._start_stack(times, a, b, np.zeros((1, 0, 33, 1)))
    gradients = []
    counted = _counted(minimize._Action.gradient, gradients)
    monkeypatch.setattr(minimize._Action, "gradient", counted)
    steps = minimize._newton_steps
    seconds, sweeps = tool.time_solve(
        action, starts, minimize.OptimizerSpec(), minimize._Problems(0.5, 2.0, a, b)
    )
    assert sweeps == len(gradients) >= 2
    assert all(seconds[part] > 0 for part in ("derivatives", "band solve", "line search"))
    assert not {"gradient", "hessian", "value_and_samples"} & set(vars(action))
    assert minimize._newton_steps is steps


def test_the_layer_timer_shows_the_panels_of_a_tube(monkeypatch, capsys):
    """The parabola's exact rule shows the panels it builds at its largest
    radius and how many of its other radii build their own: none for powers
    of two, one for each other R below the largest. A sampled W shows only
    its rule and time. `_tube_panels` is restored."""
    tool = _layer_timer(monkeypatch)
    tube_panels = potentials._tube_panels
    parabola = make_perturbation("parabola_example", 2)
    sampled = dataclasses.replace(parabola, tube_average=None)
    xi = [np.cos(1.0), np.sin(1.0)]
    edges = tube_panels(potentials._arc_tongues(1.0, 0.5, 64.0), 0.5, 4.0, 64.0)
    shared = edges.size - 1
    assert tool.panels_of(parabola, xi, 0.5, 64.0) == (shared, 0)
    assert tool.panels_of(parabola, xi, 0.5, [8.0, 3.0, 64.0, 16.0]) == (shared, 0)
    assert tool.panels_of(parabola, xi, 0.5, [10.0, 64.0, 40.0, 3.0]) == (shared, 2)
    assert tool.panels_of(parabola, xi, 0.5, [3.0, 2.0]) == (0, 0)
    tool.print_tubes([("a", dict(W=parabola, xi=xi, r=0.5, R=[16.0, 40.0, 64.0])),
                      ("b", dict(W=parabola, xi=xi, r=0.5, R=64.0)),
                      ("c", dict(W=sampled, xi=xi, r=0.5, R=[16.0, 32.0]))])
    header, stacked, single, sampled_row = capsys.readouterr().out.splitlines()
    assert header.split()[1:] == ["direction", "radii", "rule", "shared", "own", "ms"]
    assert stacked.split()[2:6] == ["16,40,64", "exact", str(shared), "1"]
    assert single.split()[2:6] == ["64", "exact", str(shared), "0"]
    assert sampled_row.split()[2:6] == ["16,32", "sampled", "-", "-"]
    assert all(float(line.split()[-1]) > 0 for line in (stacked, single, sampled_row))
    assert potentials._tube_panels is tube_panels


def _counted(method, calls):
    def wrapper(*args, **kwargs):
        calls.append(None)
        return method(*args, **kwargs)

    return wrapper


def test_config_roundtrips_through_json_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 3, "potential": {"name": "cos_sum"}}))
    cfg = ExperimentConfig.from_file(path)
    assert cfg.seed == 3
    assert cfg.potential().name == "cos_sum"


# -- curve classifier --------------------------------------------------------


def test_classify_curve_labels():
    """A curve and its mirror get one label: a nonpositive W decays or
    persists as a nonnegative one does."""
    cases = [
        ([0.0, 0.0, 1e-12], "zero"),
        ([1.0, 0.5, 0.2], "decaying"),
        ([1.0, 0.99, 0.95], "persistent"),
        ([1.0, 2.0, 0.1], "inconclusive"),
        ([7.8e-3, 2.0e-3, 4.9e-4], "decaying"),  # neg_spike's line averages, mirrored
        ([2.0, 2.0, 2.0], "persistent"),
    ]
    for sign in (1.0, -1.0):
        for curve, label in cases:
            assert _classify_curve([sign * v for v in curve]) == label, (sign, curve)


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


def test_report_json_writes_booleans_as_booleans():
    cfg = make_cfg(
        perturbation={"name": "runge_decay", "params": {"amplitude": 1.0}},
        eps_ladder=[0.4, 0.2],
        solver=dict(FAST_SOLVER, max_iters=600, restarts=2),
        seed=11,
    )
    payload = json.loads(run_stability_sweep(cfg).to_json())
    assert payload["verdicts"]["gap_decreasing"] is True
    assert payload["verdicts"]["final_gap_below_threshold"] is False
    assert payload["rows"][0]["converged"] is True
    assert payload["provenance"]["w_nonnegative"] is True
    assert type(payload["verdicts"]["rows_failed"]) is int


def test_stability_provenance_names_the_exact_target_path():
    """The target comes from f_hom_asymptotic in every dimension; the
    separable sin2 gives the same exact value in d = 1 and d = 2."""
    for dimension in (1, 2):
        cfg = make_cfg(
            dimension=dimension,
            potential={"name": "sin2"},
            xi=[1.0] + [0.0] * (dimension - 1),
            eps_ladder=[0.25],
            seed=3,
        )
        prov = run_stability_sweep(cfg).provenance
        assert prov["f_hom_method"] == "separable"
        assert "f_hom_exact" not in prov and "f_hom_monotone" not in prov
        assert prov["f_hom_target"] == pytest.approx(1.4691052398909545, abs=1e-12)


def test_stability_refuses_a_non_separable_d2_potential_before_any_solve(monkeypatch):
    """A d = 2 V without an axis factor has no exact target: the sweep exits
    2 naming it, and never evaluates it, builds a plan or solves a rung."""

    def unreachable(*args, **kwargs):
        raise AssertionError("worked on a potential with no exact target")

    coupled = PeriodicPotential(
        2, unreachable, 0.0, 2.5, gradient=unreachable, hessian=unreachable, name="coupled"
    )
    monkeypatch.setattr(ExperimentConfig, "potential", lambda self: coupled)
    for solver in ("solve_corrector_1d", "build_almost_corrector", "minimize_bvp"):
        monkeypatch.setattr(experiments, solver, unreachable)
    cfg = make_cfg(dimension=2, xi=[1.0, 2.0])
    with pytest.raises(InputError, match="potential 'coupled' has no axis factor"):
        run_stability_sweep(cfg)


def test_stability_rejects_signed_and_atom_perturbations():
    with pytest.raises(InputError):
        run_stability_sweep(make_cfg(perturbation={"name": "neg_spike"}))
    with pytest.raises(InputError):
        # nonpositive value flips the sign class away from "nonnegative"
        run_stability_sweep(
            make_cfg(perturbation={"name": "constant", "params": {"value": -0.5}})
        )


@pytest.mark.parametrize(
    "dimension,name", [(1, "indicator_ball"), (2, "indicator_ball"), (2, "parabola_example")]
)
def test_stability_rejects_a_w_without_closed_form_derivatives_before_any_solve(
    monkeypatch, dimension, name
):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran before the perturbation was checked")

    for solver in ("f_hom_asymptotic", "solve_corrector_1d", "build_almost_corrector", "minimize_bvp"):
        monkeypatch.setattr(experiments, solver, no_solve)
    cfg = make_cfg(dimension=dimension, xi=[1.0] + [0.0] * (dimension - 1), perturbation={"name": name})
    with pytest.raises(InputError, match="closed-form gradient and Hessian"):
        run_stability_sweep(cfg)


@pytest.mark.parametrize(
    "mode,perturbation,match",
    [
        ("steady", "indicator_ball", "closed-form gradient and Hessian"),
        ("evolutionary", "indicator_ball", "closed-form gradient and Hessian"),
        (None, "runge_decay", "needs lambda .* or an initial datum"),
    ],
)
def test_hj_refuses_before_any_table_or_lattice(monkeypatch, mode, perturbation, match):
    """A W that Newton cannot take, or neither lambda nor an initial datum,
    raises InputError before the f_hom table or a seed lattice is built: in
    the runner, and in solve_steady_eps and solve_evolutionary_eps alone."""

    def unreachable(*args, **kwargs):
        raise AssertionError("a table or a lattice was built before the config was checked")

    monkeypatch.setattr(experiments, "tabulate_f_hom", unreachable)
    monkeypatch.setattr(hj, "_lattice_seeds", unreachable)
    raw = dict(
        experiment="hj",
        perturbation={"name": perturbation},
        eps_ladder=[0.2],
        grids={"x": {"lo": -0.2, "hi": 0.2, "n": 3}, "xi": {"half_width": 2.0, "n": 5}},
    )
    if mode == "steady":
        raw["lambda"] = 1.0
    elif mode == "evolutionary":
        raw["initial_datum"] = {"name": "plane_wave", "params": {"p": [1.0]}}
    cfg = make_cfg(**raw)
    with pytest.raises(InputError, match=match):
        run_hj_convergence(cfg)
    if mode is None:
        return
    V, W, x = cfg.potential(), cfg.perturbation(), cfg.x_axes()
    with pytest.raises(InputError, match=match):
        if mode == "steady":
            hj.solve_steady_eps(V, W, 0.2, 1.0, x)
        else:
            hj.solve_evolutionary_eps(
                V, W, 0.2, cfg.initial_datum(), x, cfg.t_grid(), cfg.y_axes()
            )


def fail_at_eps(monkeypatch, name, eps, error):
    """Replace experiments.<name> by the real solver, except that a call at
    this eps raises `error`."""
    real = getattr(experiments, name)

    def solver(V, W, rung_eps, *args, **kwargs):
        if rung_eps == eps:
            raise error(f"synthetic failure at eps={rung_eps}")
        return real(V, W, rung_eps, *args, **kwargs)

    monkeypatch.setattr(experiments, name, solver)


@pytest.mark.parametrize("error", [SolverError, InvariantError])
def test_a_failing_stability_rung_raises_its_own_error(monkeypatch, error):
    """The finest rung's failure ends the sweep; no verdict is judged on the rest."""
    fail_at_eps(monkeypatch, "minimize_bvp", 0.1, error)
    with pytest.raises(error, match="eps=0.1"):
        run_stability_sweep(make_cfg(eps_ladder=[0.4, 0.2, 0.1]))


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


def test_a_failing_negative_rung_raises_its_own_error(monkeypatch):
    """The limit and the rungs are one stacked DP call; its stage costs are
    built per problem, and the rung at eps = 0.1 fails there, named. The
    limit is the problem at eps = 1, outside the ladder [0.2, 0.1]."""
    real = minimize._lattice_costs

    def lattice_costs(V, W, eps, states):
        if eps == 0.1:
            raise SolverError(f"synthetic failure at eps={eps}")
        return real(V, W, eps, states)

    monkeypatch.setattr(minimize, "_lattice_costs", lattice_costs)
    with pytest.raises(SolverError, match="eps=0.1"):
        run_negative_perturbation(negative_cfg())


def test_the_negative_runner_sweeps_its_ladder_once(monkeypatch):
    """The zero-set limit and every rung share one lattice sweep, with one
    problem each: eps 1 for the limit, then the ladder [0.2, 0.1]."""
    sweeps = []
    real = minimize._dp_sweep

    def sweep(value, *args, **kwargs):
        sweeps.append(value.shape[0])
        return real(value, *args, **kwargs)

    monkeypatch.setattr(minimize, "_dp_sweep", sweep)
    rep = run_negative_perturbation(negative_cfg())
    assert sweeps == [3] and len(rep.rows) == 2


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


def test_condition_diagnostics_rejects_a_zero_atom():
    # Line and tube averages sample W pointwise and would call an atom "zero".
    cfg = ExperimentConfig.from_dict(
        {"perturbation": {"name": "neg_spike", "params": {"depth": 1.0, "width": 0.0}}}
    )
    with pytest.raises(InputError, match="zero atom"):
        run_condition_diagnostics(cfg)


def test_condition_diagnostics_makes_one_tube_call_per_direction(monkeypatch):
    """Each direction's curve is one cylinder_average call over the config's
    radii, at its unit vector, in the order of the directions."""
    calls = []
    average = experiments.cylinder_average

    def recording(W, xi, r, R):
        calls.append((list(xi), r, R))
        return average(W, xi, r, R)

    monkeypatch.setattr(experiments, "cylinder_average", recording)
    cfg = ExperimentConfig.from_dict(
        {
            "experiment": "conditions",
            "dimension": 2,
            "perturbation": {"name": "parabola_example"},
            "grids": {"radii": [8, 24, 64], "tube_radius": 0.5,
                      "directions": [[0.0, 2.0], [3.0, 4.0]]},
        }
    )
    rep = run_condition_diagnostics(cfg)
    radii = [8.0, 24.0, 64.0]
    assert calls == [([0.0, 1.0], 0.5, radii), ([0.6, 0.8], 0.5, radii)]
    assert [row["R"] for row in rep.rows] == radii * 2
    W = make_perturbation("parabola_example", 2)
    assert [row["average"] for row in rep.rows[3:]] == [
        potentials.cylinder_average(W, [0.6, 0.8], 0.5, R) for R in radii
    ]


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


def test_fhom_runner_repairs_a_nonconvex_table_with_its_envelope(monkeypatch):
    """One slope's cell value sits 1e-3 high; the runner's table is the lower
    convex envelope: flagged, convex, and nowhere above the solved values.
    sin2's f_hom is nearly linear for |xi| <= 0.375, so the bump at -0.25,
    which the table mirrors to 0.25, is a midpoint defect of about 1e-3 at
    both. The table solves its slopes <= 0 in one call."""
    real = homoglab.cell.solve_corrector_1d
    solved = {0.0: 0.0}

    def bumped(V, slopes, opt):
        profiles = real(V, slopes, opt)
        for i, xi in enumerate(slopes):
            if xi == -0.25:
                bumped_value = profiles[i].cell_value + 1e-3
                profiles[i] = dataclasses.replace(profiles[i], cell_value=bumped_value)
            solved[xi] = profiles[i].cell_value
        return profiles

    monkeypatch.setattr(homoglab.cell, "solve_corrector_1d", bumped)
    cfg = ExperimentConfig.from_dict(
        {
            "potential": {"name": "sin2"},
            "grids": {"xi": {"half_width": 0.5, "n": 9}},
            "solver": dict(FAST_SOLVER),
        }
    )
    rep = run_fhom_table(cfg)
    assert rep.verdicts["envelope_applied"] is True
    assert rep.verdicts["convexity_violations"] == 0
    meta = json.loads(dict(rep.extra_files)["f_hom.json"])["meta"]
    assert meta["envelope_max_drop"] > 0
    assert len(solved) == 5 and len(rep.rows) == 9
    for row in rep.rows:
        assert row["f_hom"] <= solved[-abs(row["xi_1"])]


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


def test_fenchel_runner_transforms_its_table_once(monkeypatch):
    """The biconjugate check reads the conjugate the runner reports, so a run
    makes one legendre_transform, and its gap is the check's, bit for bit. A
    p grid of 7 points resolves the table's slopes only coarsely: the gap is
    not 0."""
    calls = []

    def spy(f, p):
        calls.append((f, p))
        return legendre_transform(f, p)

    monkeypatch.setattr(experiments, "legendre_transform", spy)
    monkeypatch.setattr(fenchel, "legendre_transform", spy)
    cfg = make_cfg(grids={"xi": {"half_width": 2.0, "n": 9}, "p": {"half_width": 4.0, "n": 7}})
    gap = run_fenchel_tables(cfg).verdicts["biconjugate_gap"]
    assert len(calls) == 1
    f, p = calls[0]
    assert gap == biconjugate_check(legendre_transform(f, p)) > 0.0


def test_hj_runner_tabulates_by_the_1d_rule(monkeypatch):
    used = []
    real = experiments.tabulate_f_hom

    def spy(*args, **kwargs):
        table = real(*args, **kwargs)
        used.append(table.meta["method"])
        return table

    monkeypatch.setattr(experiments, "tabulate_f_hom", spy)
    cfg = make_cfg(
        experiment="hj",
        perturbation={"name": "runge_decay"},
        **{"lambda": 1.0},
        eps_ladder=[0.2],
        grids={"x": {"lo": -0.2, "hi": 0.2, "n": 3}, "xi": {"half_width": 2.0, "n": 5}},
    )
    rep = run_hj_convergence(cfg)
    # d = 1 tables are the Newton ones.
    assert used == ["1d"]
    assert rep.provenance["solver"] == FAST_SOLVER
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
