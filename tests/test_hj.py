"""Variational Hamilton-Jacobi solvers: exact cases, bounds, serialization."""

import numpy as np
import pytest

from homoglab import (
    HomogenizedLagrangian,
    InvariantError,
    OptimizerSpec,
    QuadratureSpec,
    SolverError,
    ValueField,
    field_distance,
    make_initial_datum,
    make_potential,
    make_perturbation,
    s_eps,
    solve_evolutionary_eps,
    solve_evolutionary_hom,
    solve_steady_eps,
    solve_steady_hom,
    tabulate_f_hom,
)

OPT = OptimizerSpec(max_iters=800, restarts=2, seed=4)
QUAD = QuadratureSpec()


@pytest.fixture(scope="module")
def free_table():
    V = make_potential("zero", 1)
    return tabulate_f_hom(V, np.linspace(-3, 3, 25), method="1d", opt=OPT, quad=QUAD)


def test_value_field_csv_and_json_roundtrip(tmp_path):
    x = np.linspace(0.0, 1.0, 3)
    t = np.array([0.5, 1.0])
    vals = np.arange(6, dtype=float).reshape(3, 2)
    field = ValueField((x,), t, vals, {"kind": "test"})
    csv_path = tmp_path / "field.csv"
    field.to_csv(csv_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "x_1,t,value"
    assert len(lines) == 1 + vals.size
    clone = ValueField.from_json(field.to_json())
    np.testing.assert_array_equal(clone.values, vals)
    sup, mean = field_distance(field, clone)
    assert sup == 0.0 and mean == 0.0


def test_value_field_rejects_nonfinite():
    x = np.linspace(0.0, 1.0, 3)
    t = np.array([1.0])
    bad = np.array([[0.0], [np.nan], [1.0]])
    with pytest.raises(InvariantError):
        ValueField((x,), t, bad, {})


def test_plane_wave_is_exact_for_homogenized_solver(free_table):
    p = 1.0
    Phi = make_initial_datum("plane_wave", 1, p=[p])
    x = np.linspace(-1, 1, 9)
    t = np.array([0.5, 1.0])
    y = np.linspace(-3, 3, 241)
    U = solve_evolutionary_hom(free_table, Phi, x, t, y)
    # H(p) = sup_xi (p xi - xi^2) = p^2/4 over the tabulated hull
    expected = p * x[:, None] - t[None, :] * (p * p / 4.0)
    np.testing.assert_allclose(U.values, expected, atol=1e-9)


def test_quadratic_datum_hopf_lax_closed_form(free_table):
    Phi = make_initial_datum("quadratic", 1, a=1.0)
    x = np.linspace(-0.8, 0.8, 9)
    t = np.array([0.5, 1.0])
    y = np.linspace(-2, 2, 641)
    U = solve_evolutionary_hom(free_table, Phi, x, t, y)
    expected = x[:, None] ** 2 / (1.0 + t[None, :])
    # Table step 0.25 => piecewise-linear chord error up to step^2/4 * t = 0.0156.
    np.testing.assert_allclose(U.values, expected, atol=2e-2)


def test_eps_solver_matches_hom_for_free_potential(free_table):
    V = make_potential("zero", 1)
    Phi = make_initial_datum("plane_wave", 1, p=[1.0])
    x = np.linspace(-0.5, 0.5, 5)
    t = np.array([0.5, 1.0])
    y = np.linspace(-2.5, 2.5, 201)
    U_eps = solve_evolutionary_eps(V, None, 0.1, Phi, x, t, y, opt=OPT, quad=QUAD)
    U_hom = solve_evolutionary_hom(free_table, Phi, x, t, y)
    sup, _ = field_distance(U_eps, U_hom)
    assert sup <= 1e-3


def test_s_eps_constant_shift_exact():
    V = make_potential("zero", 1)
    W = make_perturbation("constant", 1, value=0.5)
    base = s_eps(V, None, 0.1, np.array([0.0]), np.array([1.0]), 1.0, opt=OPT, quad=QUAD)
    shifted = s_eps(V, W, 0.1, np.array([0.0]), np.array([1.0]), 1.0, opt=OPT, quad=QUAD)
    assert shifted - base == pytest.approx(0.5, abs=1e-8)
    assert base == pytest.approx(1.0, abs=1e-6)


def test_steady_hom_is_flat_minimum_over_discount(free_table):
    lam = 0.5
    U = solve_steady_hom(free_table, lam, np.linspace(-1, 1, 7), opt=OPT)
    np.testing.assert_allclose(U.values, 0.0, atol=1e-12)
    assert U.t_grid is None
    assert U.provenance["table_min"] == free_table.f0


def test_steady_hom_rejects_table_below_f0():
    axis = np.linspace(-1.0, 1.0, 3)
    dipped = HomogenizedLagrangian((axis,), np.array([1.0, 0.5, -0.25]), 0.5)
    with pytest.raises(InvariantError):
        solve_steady_hom(dipped, 1.0, np.linspace(-1, 1, 3))


def test_steady_eps_comparison_bounds_hold():
    V = make_potential("sin2", 1)
    W = make_perturbation("runge_decay", 1, amplitude=1.0)
    lam = 1.0
    x = np.linspace(-0.4, 0.4, 5)
    U = solve_steady_eps(V, W, 0.1, lam, x, opt=OPT, quad=QUAD)
    lower = (V.v_min + W.lower_bound()) / lam
    upper = (V.v_max + W.upper_bound()) / lam
    assert np.all(U.values >= lower - 1e-9)
    assert np.all(U.values <= upper + 1e-9)


def test_steady_constant_potential_closed_form():
    V = make_potential("constant", 1, value=0.8)
    lam = 0.5
    x = np.linspace(-1, 1, 5)
    U = solve_steady_eps(V, None, 0.1, lam, x, opt=OPT, quad=QUAD)
    np.testing.assert_allclose(U.values, 0.8 / lam, rtol=5e-3)


def test_park_extension_bound_along_time():
    """Values grown by waiting cost at most max(V+W) per unit time."""
    V = make_potential("sin2", 1)
    W = make_perturbation("runge_decay", 1, amplitude=1.0)
    eps = 0.1
    z = np.linspace(-3, 3, 6001)
    M = float(np.max(V.evaluator(z[:, None]) + W.evaluator(z[:, None])))
    y, x = np.array([0.0]), np.array([0.6])
    ts = [0.5, 1.0, 1.5]
    vals = [s_eps(V, W, eps, y, x, t, opt=OPT, quad=QUAD) for t in ts]
    for (t1, s1), (t2, s2) in zip(zip(ts, vals), zip(ts[1:], vals[1:])):
        assert s2 <= s1 + M * (t2 - t1) + 0.02 * max(abs(s1), 1.0)


def test_evolutionary_hom_empty_hull_raises(free_table):
    Phi = make_initial_datum("plane_wave", 1, p=[1.0])
    # every (x - y)/t lands outside the tabulated slope hull
    x = np.array([50.0])
    t = np.array([1.0])
    y = np.linspace(-1.0, 1.0, 11)
    with pytest.raises(SolverError):
        solve_evolutionary_hom(free_table, Phi, x, t, y)
