"""Acceptance gate: the fourteen release criteria, one test each.

Every test prints a single `ACCEPTANCE NN PASS` line with the measured
quantities, so `pytest -v -s tests/test_acceptance.py` reads as a checklist.
Tolerances are pinned here and must not be loosened without a ledger entry.
"""

import dataclasses
import filecmp
import math
import time

import numpy as np
import pytest

from homoglab import (
    DPGrid,
    ExperimentConfig,
    HomogenizedLagrangian,
    OptimizerSpec,
    QuadratureSpec,
    biconjugate_check,
    build_almost_corrector,
    build_connector,
    connector_kinetic_bound,
    dp_oracle_1d,
    field_distance,
    legendre_transform,
    make_initial_datum,
    make_perturbation,
    make_potential,
    minimize_bvp,
    polar_bound_check,
    run_condition_diagnostics,
    run_fenchel_tables,
    run_hj_convergence,
    run_negative_perturbation,
    run_stability_sweep,
    s_eps,
    solve_corrector_1d,
    solve_evolutionary_eps,
    solve_evolutionary_hom,
    solve_steady_hom,
    tabulate_f_hom,
)

CONFIG_DIR = "configs"
QUAD = QuadratureSpec()
REGISTRY_POTENTIALS = ("zero", "constant", "sin2", "cos_sum")


@pytest.fixture(scope="module")
def registry_tables_1d():
    axis = np.linspace(-2.0, 2.0, 9)
    opt = OptimizerSpec(max_iters=1500, restarts=2, seed=3)
    return {
        name: tabulate_f_hom(make_potential(name, 1), axis, method="1d", opt=opt)
        for name in REGISTRY_POTENTIALS
    }


@pytest.fixture(scope="module")
def free_table_1d():
    axis = np.linspace(-3.0, 3.0, 25)
    opt = OptimizerSpec(max_iters=400, restarts=1, seed=0)
    return tabulate_f_hom(make_potential("zero", 1), axis, method="1d", opt=opt)


def load_cfg(name):
    return ExperimentConfig.from_file(f"{CONFIG_DIR}/{name}.json")


# -- 1. cell-problem sanity ---------------------------------------------------


def test_criterion_01_cell_problem_sanity(registry_tables_1d):
    t0 = time.monotonic()
    free = registry_tables_1d["zero"]
    xi = free.axes[0]
    assert np.max(np.abs(free.values - xi**2)) <= 1e-3

    for name, table in registry_tables_1d.items():
        V = make_potential(name, 1)
        assert table.f0 == V.v_min, f"f_hom(0) != min V for {name}"
        lower = table.axes[0] ** 2 + V.v_min - 1e-6
        upper = table.axes[0] ** 2 + V.v_max + 1e-6
        assert np.all(table.values >= lower), f"sandwich lower fails for {name}"
        assert np.all(table.values <= upper), f"sandwich upper fails for {name}"
    elapsed_1d = time.monotonic() - t0
    assert elapsed_1d < 60.0

    t1 = time.monotonic()
    axis2 = np.linspace(-2.0, 2.0, 5)
    free2 = tabulate_f_hom(
        make_potential("zero", 2), (axis2, axis2), method="asymptotic"
    )
    mesh = np.stack(np.meshgrid(axis2, axis2, indexing="ij"), axis=-1)
    sq = np.sum(mesh**2, axis=-1)
    err2 = np.max(np.abs(free2.values - sq))
    assert err2 <= 1e-3
    assert np.all(free2.values >= sq - 1e-6) and np.all(free2.values <= sq + 1e-6)
    elapsed_2d = time.monotonic() - t1
    assert elapsed_2d < 600.0
    print(
        f"ACCEPTANCE 01 PASS — free-table errors d1 "
        f"{np.max(np.abs(free.values - xi**2)):.2e} / d2 {err2:.2e}; "
        f"f0 == min V and sandwich hold for {REGISTRY_POTENTIALS}; "
        f"runtimes {elapsed_1d:.1f}s / {elapsed_2d:.1f}s"
    )


# -- 2. oracle equivalence ----------------------------------------------------


def test_criterion_02_oracle_equivalence_vs_dp():
    V = make_potential("sin2", 1)
    opt = OptimizerSpec(max_iters=1200, restarts=2, seed=2)
    cell_opt = OptimizerSpec(max_iters=2000, restarts=3, seed=2)
    slopes_fine = np.linspace(-4.0, 4.0, 257)
    slopes_coarse = np.linspace(-4.0, 4.0, 129)
    worst_bvp = worst_cell = 0.0

    for xi in (0.5, 1.0, 2.0):
        lo, hi = min(0.0, xi), max(0.0, xi)
        for eps in (0.2, 0.1):
            dp_fine = dp_oracle_1d(
                V, None, eps, 0.0, 1.0, 0.0, xi,
                DPGrid(lo - 0.6, hi + 0.6, 3841, 241), slope_set=slopes_fine,
            )
            dp_coarse = dp_oracle_1d(
                V, None, eps, 0.0, 1.0, 0.0, xi,
                DPGrid(lo - 0.6, hi + 0.6, 1921, 121), slope_set=slopes_coarse,
            )
            assert abs(dp_fine - dp_coarse) / abs(dp_fine) < 1e-2, (
                f"DP refinement inconsistent at xi={xi} eps={eps}"
            )
            n = max(65, int(12 / eps) + 9)
            _, v_coarse = minimize_bvp(
                V, None, eps, 0.0, 1.0, np.zeros(1), np.array([xi]), n, opt, QUAD
            )
            _, v_fine = minimize_bvp(
                V, None, eps, 0.0, 1.0, np.zeros(1), np.array([xi]), 2 * n - 1,
                opt, QUAD,
            )
            assert v_fine <= v_coarse + 1e-6
            rel = abs(v_fine - dp_fine) / abs(dp_fine)
            worst_bvp = max(worst_bvp, rel)
            assert rel < 0.02, f"bvp vs DP off by {rel:.2%} at xi={xi} eps={eps}"

        # cell leg: corrector value vs DP over one full winding (eps = 1)
        profile = solve_corrector_1d(V, xi, opt=cell_opt, quad=QUAD)
        T = 1.0 / xi
        n_t = max(121, int(240 * T) + 1)
        dp_cell = dp_oracle_1d(
            V, None, 1.0, 0.0, T, 0.0, T * xi,
            DPGrid(-0.6, 1.6, 2561, n_t), slope_set=slopes_fine,
        ) / T
        rel = abs(profile.cell_value - dp_cell) / abs(dp_cell)
        worst_cell = max(worst_cell, rel)
        assert rel < 0.02, f"corrector vs DP off by {rel:.2%} at xi={xi}"

    print(
        f"ACCEPTANCE 02 PASS — worst bvp-vs-DP {worst_bvp:.2%}, "
        f"worst corrector-vs-DP {worst_cell:.2%} (tolerance 2%)"
    )


# -- 3. Fenchel ----------------------------------------------------------------


def test_criterion_03_fenchel_transform(registry_tables_1d):
    axis = np.linspace(-2.0, 2.0, 17)
    f = HomogenizedLagrangian((axis,), axis**2, f0=0.0)
    p = np.linspace(-4.0, 4.0, 33)  # aligned: p = 2 xi hits the slope grid
    conj = legendre_transform(f, p)
    step = float(axis[1] - axis[0])
    err = np.max(np.abs(conj.values - p * p / 4.0))
    assert err <= step**2 / 2.0

    p_dense = np.linspace(-4.0, 4.0, 16001)
    gaps = {}
    for name, table in registry_tables_1d.items():
        gaps[name] = biconjugate_check(table, p_dense)
        assert gaps[name] < 1e-4, f"biconjugate gap {gaps[name]:.2e} for {name}"

    shifted = HomogenizedLagrangian((axis,), axis**2 + 0.5, f0=0.5)
    np.testing.assert_array_equal(
        legendre_transform(shifted, p).values, conj.values - 0.5
    )
    bigger = HomogenizedLagrangian((axis,), axis**2 + 0.25 * np.abs(axis), f0=0.0)
    assert np.all(legendre_transform(bigger, p).values <= conj.values + 1e-12)
    print(
        f"ACCEPTANCE 03 PASS — quadratic conjugate err {err:.2e} <= {step**2 / 2:.2e}; "
        f"biconjugate gaps {{{', '.join(f'{k}: {v:.1e}' for k, v in gaps.items())}}}; "
        f"shift rule bitwise, order reversal holds"
    )


# -- 4. 1D stability ------------------------------------------------------------


def test_criterion_04_stability_ladder_sin2_runge():
    rep = run_stability_sweep(load_cfg("stability_sin2_runge"), threads=4)
    rows = rep.rows
    assert all("error" not in r for r in rows)
    gaps = [r["gap_G"] for r in rows]
    for a, b in zip(gaps, gaps[1:]):
        assert b < a * 1.10, f"gap ladder not decreasing: {gaps}"
    final_rel = abs(gaps[-1]) / rep.provenance["f_hom_target"]
    assert final_rel < 0.05
    for r in rows:
        assert r["min_G"] >= r["min_F"]
        assert r["converged"], f"rung eps={r['eps']} did not converge"
    print(
        f"ACCEPTANCE 04 PASS — gaps {['%.4f' % g for g in gaps]}, "
        f"final relative gap {final_rel:.2%} < 5%, min_G >= min_F and converged at every rung"
    )


# -- 5. instability control ------------------------------------------------------


def test_criterion_05_constant_perturbation_shift():
    cfg = ExperimentConfig.from_dict(
        {
            "experiment": "stability",
            "potential": {"name": "sin2"},
            "perturbation": {"name": "constant", "params": {"value": 0.5}},
            "eps_ladder": [0.2, 0.1, 0.05],
            "seed": 11,
            "solver": {"max_iters": 800, "restarts": 2},
        }
    )
    rep = run_stability_sweep(cfg, threads=4)
    shifts = [r["min_G"] - r["min_F"] for r in rep.rows]
    for s in shifts:
        assert s == pytest.approx(0.5, abs=1e-8)
    print(
        f"ACCEPTANCE 05 PASS — min_G - min_F = "
        f"{['%.10f' % s for s in shifts]} (each within 1e-8 of 0.5)"
    )


# -- 6. negative perturbation ------------------------------------------------------


def test_criterion_06_negative_perturbations():
    rep = run_negative_perturbation(load_cfg("negative_spike"))
    values = [r["min_G"] for r in rep.rows]
    assert rep.verdicts["eps_independent"] is True
    for v in values:
        assert v == pytest.approx(-1.0, abs=1e-9)

    tent = make_perturbation("neg_spike", 1, depth=1.0, width=1.0)
    V0 = make_potential("zero", 1)
    grid = DPGrid(-2.0, 2.0, 1601, 161)
    v_tent = dp_oracle_1d(
        V0, tent, 0.05, 0.0, 1.0, 0.0, 0.0, grid,
        slope_set=np.linspace(-4.0, 4.0, 161),
    )
    assert abs(v_tent - (-1.0)) <= 0.05
    print(
        f"ACCEPTANCE 06 PASS — atom rungs {values} (eps-independent, = -1); "
        f"tent at eps=0.05: {v_tent:.4f} within 5% of -1"
    )


# -- 7. connector kinetic bound -----------------------------------------------------


def test_criterion_07_connector_kinetic_bound():
    W = dataclasses.replace(
        make_perturbation("runge_decay", 2, amplitude=1.0), integrability_exponent=2.0
    )
    rng = np.random.default_rng(77)
    worst = 0.0
    n_checked = 0
    for alpha in (0.6, 0.75, 0.9):
        for r in (0.5, 1.0, 2.0):
            for _ in range(10):
                direction = rng.normal(size=2)
                direction /= np.linalg.norm(direction)
                x0 = rng.normal(size=2)
                y0 = x0 + r * direction
                gamma = build_connector(x0, y0, alpha, W)
                np.testing.assert_allclose(gamma.nodes[0], x0, atol=1e-12)
                np.testing.assert_allclose(gamma.nodes[-1], y0, atol=1e-12)
                bound = connector_kinetic_bound(alpha, r)
                assert bound == pytest.approx(
                    (2 * alpha**2 / (2 * alpha - 1)) * r ** ((2 * alpha - 1) / alpha)
                )
                ratio = gamma.kinetic_integral() / bound
                worst = max(worst, ratio)
                assert ratio <= 1.0 + 1e-6
                n_checked += 1
    print(
        f"ACCEPTANCE 07 PASS — {n_checked} connectors, worst kinetic/bound "
        f"ratio {worst:.4f} <= 1, endpoints exact"
    )


# -- 8. polar bound -------------------------------------------------------------------


def test_criterion_08_polar_bound():
    perturbations = {
        "constant": make_perturbation("constant", 2, value=1.0),
        "ball": make_perturbation("indicator_ball", 2),
        "runge": make_perturbation("runge_decay", 2, amplitude=1.0),
    }
    margins = {}
    for w_name, W in perturbations.items():
        for p_exp, alpha in ((2.0, 0.6), (3.0, 0.9)):
            Wp = dataclasses.replace(W, integrability_exponent=p_exp)
            lhs, rhs = polar_bound_check(Wp, alpha, 1.0, QUAD)
            assert lhs <= rhs * 1.01, (
                f"polar bound fails for {w_name} p={p_exp} alpha={alpha}: "
                f"{lhs} > {rhs}"
            )
            margins[f"{w_name}/p{p_exp:g}/a{alpha:g}"] = lhs / rhs
    worst = max(margins, key=margins.get)
    print(
        f"ACCEPTANCE 08 PASS — lhs <= 1.01*rhs on all 6 combos; "
        f"tightest {worst} at lhs/rhs = {margins[worst]:.4f}"
    )


# -- 9. almost-corrector plan ----------------------------------------------------------


def test_criterion_09_almost_corrector_plan_invariants():
    V = make_potential("sin2", 2)
    xi = np.array([1.0, math.sqrt(2.0)])
    opt = OptimizerSpec(max_iters=1200, restarts=2, seed=5)
    plan = build_almost_corrector(V, xi, 0.2, 3800.0, opt, QUAD)
    plan.validate()
    assert plan.shifts.size >= 20
    assert plan.T >= (plan.l_delta + 1.0) / plan.delta
    first20 = plan.shifts[:20]
    spacing = np.diff(plan.shifts[:21])
    assert np.all(spacing >= plan.T + 1.0)
    assert np.all(spacing <= plan.T + plan.l_delta)
    frac = first20[:, None] * xi[None, :]
    dist = np.max(np.abs(frac - np.round(frac)), axis=1)
    assert np.all(dist < plan.eta)
    plan_again = build_almost_corrector(V, xi, 0.2, 3800.0, opt, QUAD)
    np.testing.assert_array_equal(plan_again.shifts[:20], first20)
    print(
        f"ACCEPTANCE 09 PASS — {plan.shifts.size} shifts; T={plan.T:.2f} >= "
        f"{(plan.l_delta + 1) / plan.delta:.2f}; spacing in "
        f"[{spacing.min():.2f}, {spacing.max():.2f}] subset "
        f"[{plan.T + 1:.2f}, {plan.T + plan.l_delta:.2f}]; "
        f"max lattice distance {dist.max():.5f} < eta={plan.eta:.5f}; "
        f"first 20 shifts reproduce exactly"
    )


# -- 10. evolutionary HJ -----------------------------------------------------------------


def test_criterion_10_evolutionary_hj(free_table_1d):
    t_start = time.monotonic()
    p_vec = np.array([1.0])
    Phi = make_initial_datum("plane_wave", 1, p=[1.0])
    x = np.linspace(-0.5, 0.5, 5)
    t = np.array([0.5, 1.0])
    y = np.linspace(-2.5, 2.5, 201)
    U = solve_evolutionary_hom(free_table_1d, Phi, (x,), t, (y,))
    exact = x[:, None] - t[None, :] * 0.25  # <p,x> - t * f*(p), f*(1) = 1/4
    plane_err = float(np.max(np.abs(U.values - exact)))
    assert plane_err <= 1e-9

    V0 = make_potential("zero", 1)
    opt = OptimizerSpec(max_iters=800, restarts=2, seed=4)
    U_eps = solve_evolutionary_eps(V0, None, 0.1, Phi, (x,), t, (y,), opt=opt, quad=QUAD)
    sup_free, _ = field_distance(U_eps, U)
    assert sup_free <= 1e-3

    rep = run_hj_convergence(load_cfg("hj_evolutionary"), threads=4)
    sups = [r["sup_distance"] for r in rep.rows]
    for a, b in zip(sups, sups[1:]):
        assert b < a, f"sup distances not decreasing: {sups}"
    elapsed = time.monotonic() - t_start
    assert elapsed < 1200.0
    print(
        f"ACCEPTANCE 10 PASS — plane wave err {plane_err:.1e}; free-potential "
        f"eps-vs-hom sup {sup_free:.1e} <= 1e-3; oscillatory ladder sups "
        f"{['%.4f' % s for s in sups]} decreasing; runtime {elapsed:.0f}s"
    )


# -- 11. steady HJ ---------------------------------------------------------------------


def test_criterion_11_steady_hj():
    cfg = load_cfg("hj_steady")
    rep = run_hj_convergence(cfg, threads=4)
    assert rep.verdicts["mode"] == "steady"
    fields = dict(rep.fields)

    hom_vals = fields["hom"].values
    assert np.max(np.abs(hom_vals - 0.0)) <= 1e-6  # min V / lambda = 0 for sin^2

    V = make_potential("sin2", 1)
    W = make_perturbation("runge_decay", 1, amplitude=1.0)
    sample = np.linspace(-30.0, 30.0, 60001).reshape(-1, 1)
    vw = V(sample) + W(sample)
    lower, upper = 0.0, float(np.max(vw))  # V, W >= 0 so inf(V+W) >= 0
    lam = cfg.lam
    for eps in cfg.eps_ladder:
        vals = lam * fields[f"eps_{eps}"].values
        assert np.all(vals >= lower - 1e-9)
        assert np.all(vals <= upper * (1.0 + 0.01))

    sups = [r["sup_distance"] for r in rep.rows]
    for a, b in zip(sups, sups[1:]):
        assert b < a * 1.10, f"steady ladder not decreasing: {sups}"
    print(
        f"ACCEPTANCE 11 PASS — comparison bounds [0, {upper:.4f}] hold at every x; "
        f"homogenized steady field = 0 (min V / lambda) within 1e-6; ladder sups "
        f"{['%.4f' % s for s in sups]} decreasing"
    )


# -- 12. s_eps Lipschitz bound ------------------------------------------------------------


def test_criterion_12_s_eps_lipschitz_in_time():
    V = make_potential("sin2", 1)
    W = make_perturbation("runge_decay", 1, amplitude=1.0)
    sample = np.linspace(-30.0, 30.0, 60001).reshape(-1, 1)
    M = float(np.max(V(sample) + W(sample)))
    opt = OptimizerSpec(max_iters=800, restarts=2, seed=4)
    eps = 0.1
    times = (0.25, 0.5, 1.0, 1.5)
    worst_margin = -np.inf
    for y in (-0.8, 0.0, 0.6):
        for x in (-0.3, 0.2, 0.9):
            vals = {
                t: s_eps(V, W, eps, np.array([y]), np.array([x]), t, opt=opt, quad=QUAD)
                for t in times
            }
            for i, t1 in enumerate(times):
                for t2 in times[i + 1:]:
                    slack = 0.02 * max(abs(vals[t1]), 1.0)
                    margin = vals[t2] - (vals[t1] + M * (t2 - t1))
                    worst_margin = max(worst_margin, margin - slack)
                    assert vals[t2] <= vals[t1] + M * (t2 - t1) + slack, (
                        f"Lipschitz bound fails at y={y} x={x} "
                        f"t1={t1} t2={t2}: margin {margin}"
                    )
    print(
        f"ACCEPTANCE 12 PASS — S_eps(y,x,t2) <= S_eps(y,x,t1) + M(t2-t1) with "
        f"M={M:.4f} over 3x3 points and 6 time pairs; worst slack-adjusted "
        f"margin {worst_margin:.4f} <= 0"
    )


# -- 13. parabola example -------------------------------------------------------------------


def test_criterion_13_parabola_tube_averages():
    rep = run_condition_diagnostics(load_cfg("conditions_parabola"))
    curves = {}
    for row in rep.rows:
        curves.setdefault(row["direction"], []).append((row["R"], row["average"]))
    non_dyadic = ";".join(
        repr(v) for v in (0.5403023058681398, 0.8414709848078965)
    )
    assert non_dyadic in curves
    last_nd = sorted(curves[non_dyadic])[-1][1]
    assert last_nd > 0.5, f"non-dyadic average decayed: {last_nd}"
    dyadic_summary = {}
    for label, pts in curves.items():
        if label == non_dyadic:
            continue
        values = [v for _, v in sorted(pts)]
        assert all(b < a for a, b in zip(values, values[1:])), (
            f"dyadic direction {label} not strictly decreasing: {values}"
        )
        dyadic_summary[label] = values
    assert len(dyadic_summary) == 4
    print(
        f"ACCEPTANCE 13 PASS — 4 dyadic directions strictly decreasing over "
        f"R in (64, 256, 1024); non-dyadic theta=1 average at R=1024 is "
        f"{last_nd:.3f} > 0.5"
    )


# -- 14. determinism --------------------------------------------------------------------------


def test_criterion_14_bitwise_deterministic_reports(tmp_path):
    jobs = {
        "conditions": (
            run_condition_diagnostics,
            {
                "experiment": "conditions",
                "dimension": 2,
                "potential": {"name": "zero"},
                "perturbation": {"name": "parabola_example"},
                "seed": 7,
                "grids": {"radii": [4.0, 16.0], "tube_radius": 0.5},
            },
        ),
        "fenchel": (
            run_fenchel_tables,
            {
                "experiment": "fenchel",
                "potential": {"name": "sin2"},
                "seed": 5,
                "grids": {"xi": {"half_width": 2.0, "n": 9},
                          "p": {"half_width": 4.0, "n": 33}},
                "solver": {"max_iters": 400, "restarts": 1, "cell_max_iters": 800},
            },
        ),
        "stability": (
            run_stability_sweep,
            {
                "experiment": "stability",
                "potential": {"name": "sin2"},
                "perturbation": {"name": "runge_decay"},
                "eps_ladder": [0.25],
                "seed": 5,
                "solver": {"max_iters": 400, "restarts": 1, "cell_max_iters": 800,
                           "nodes_per_period": 8},
            },
        ),
        "negative": (run_negative_perturbation, None),
        "hj": (
            run_hj_convergence,
            {
                "experiment": "hj",
                "potential": {"name": "zero"},
                "initial_datum": {"name": "plane_wave", "params": {"p": [1.0]}},
                "eps_ladder": [0.25],
                "seed": 9,
                "grids": {"x": {"lo": -0.5, "hi": 0.5, "n": 3}, "t": [0.5],
                          "y": {"lo": -2.0, "hi": 2.0, "n": 41},
                          "xi": {"half_width": 2.0, "n": 9}},
                "solver": {"max_iters": 300, "restarts": 1, "cell_max_iters": 600},
            },
        ),
    }
    n_files = 0
    for name, (runner, raw) in jobs.items():
        cfg = (
            load_cfg("negative_spike") if raw is None
            else ExperimentConfig.from_dict(raw)
        )
        dir_a, dir_b = tmp_path / f"{name}_a", tmp_path / f"{name}_b"
        written_a = runner(cfg, threads=2).write(dir_a)
        written_b = runner(cfg, threads=2).write(dir_b)
        assert [p.split("/")[-1] for p in written_a] == [
            p.split("/")[-1] for p in written_b
        ]
        for pa, pb in zip(written_a, written_b):
            assert filecmp.cmp(pa, pb, shallow=False), f"{pa} differs from {pb}"
            n_files += 1
    print(
        f"ACCEPTANCE 14 PASS — {len(jobs)} runner families re-run with identical "
        f"seeds; all {n_files} report files byte-identical"
    )
