"""Cell problems: homogenized values, tables, and the independent 1D oracle."""

import numpy as np
import pytest
from scipy.integrate import quad as sp_quad
from scipy.optimize import brentq

import homoglab.cell
from homoglab import (
    ExtrapolationError,
    GeneralLagrangian,
    HomogenizedLagrangian,
    InputError,
    InvariantError,
    OptimizerSpec,
    Trajectory,
    f_hom_asymptotic,
    make_perturbation,
    make_potential,
    solve_corrector_1d,
    solve_corrector_general,
    tabulate_f_hom,
)


def conserved_energy_value(v_fn, xi):
    """Homogenized value in d=1 from the conservation law of the cell flow.

    On an optimal unit-period crossing the quantity w'^2 - v(w) is a constant
    E; the period-time constraint picks E, and the value integral follows by
    substituting w' = sqrt(E + v(w)).
    """
    speed = abs(float(xi))

    def period_time(E):
        val, _ = sp_quad(lambda w: 1.0 / np.sqrt(E + v_fn(w)), 0.0, 1.0, limit=200)
        return val - 1.0 / speed

    lo = 1e-12
    while period_time(lo) < 0:
        lo /= 1e3
        if lo < 1e-30:
            break
    hi = max(4.0 * speed * speed, 1.0)
    while period_time(hi) > 0:
        hi *= 2.0
    E = brentq(period_time, lo, hi, xtol=1e-13)
    val, _ = sp_quad(
        lambda w: (E + 2.0 * v_fn(w)) / np.sqrt(E + v_fn(w)), 0.0, 1.0, limit=200
    )
    return speed * val


@pytest.fixture(scope="module")
def cell_opt():
    return OptimizerSpec(max_iters=2000, restarts=3, seed=2)


def test_corrector_matches_conservation_oracle(cell_opt, quad, sin2_1d):
    v = lambda w: np.sin(np.pi * w) ** 2
    for xi in (0.5, 1.0, 2.0):
        oracle = conserved_energy_value(v, xi)
        prof = solve_corrector_1d(sin2_1d, xi, opt=cell_opt, quad=quad)
        assert prof.cell_value == pytest.approx(oracle, rel=2e-3), f"xi={xi}"


def test_corrector_even_in_slope(cell_opt, quad, sin2_1d):
    plus = solve_corrector_1d(sin2_1d, 1.0, opt=cell_opt, quad=quad)
    minus = solve_corrector_1d(sin2_1d, -1.0, opt=cell_opt, quad=quad)
    assert plus.cell_value == pytest.approx(minus.cell_value, rel=1e-6)


def test_corrector_profile_vanishes_at_window_ends(cell_opt, quad, sin2_1d):
    prof = solve_corrector_1d(sin2_1d, 1.0, opt=cell_opt, quad=quad)
    assert float(prof.profile.nodes[0, 0]) == 0.0
    assert float(prof.profile.nodes[-1, 0]) == 0.0
    path = prof.path()
    assert float(path.nodes[-1, 0]) == pytest.approx(prof.T * 1.0, abs=1e-12)


def test_free_potential_cell_value_is_squared_speed(cell_opt, quad, zero_1d):
    for xi in (0.5, 1.5):
        prof = solve_corrector_1d(zero_1d, xi, opt=cell_opt, quad=quad)
        assert prof.cell_value == pytest.approx(xi * xi, abs=1e-9)


def test_corrector_rejects_zero_slope(cell_opt, quad, sin2_1d):
    with pytest.raises(InputError):
        solve_corrector_1d(sin2_1d, 0.0, opt=cell_opt, quad=quad)


def test_sandwich_bounds_on_table(cell_opt, quad, sin2_1d):
    axis = np.linspace(-2.0, 2.0, 9)
    f = tabulate_f_hom(sin2_1d, axis, method="1d", opt=cell_opt, quad=quad)
    lower = axis**2 + sin2_1d.v_min
    upper = axis**2 + sin2_1d.v_max
    assert np.all(f.values >= lower - 1e-6)
    assert np.all(f.values <= upper + 1e-6)


def test_general_corrector_rejects_values_above_the_sandwich(cell_opt, quad, monkeypatch):
    V = make_potential("sin2", 1)
    W = make_perturbation("constant", 1, value=0.5)
    T = 4.0

    def solver_above_the_sandwich(L, t0, t1, a, b, n_nodes, opt, quad):
        # |xi|^2 + sup(V + W) = 1 + 1.5; the value is 0.5 above it
        return Trajectory.affine(a, b, t0, t1, n_nodes - 1), 3.0 * T

    monkeypatch.setattr(homoglab.cell, "minimize_lagrangian_bvp", solver_above_the_sandwich)
    with pytest.raises(InvariantError, match="sandwich"):
        solve_corrector_general(GeneralLagrangian(V, W), [1.0], T, 33, cell_opt, quad)


def test_general_lagrangian_is_the_pair_V_W():
    V = make_potential("sin2", 2)
    W = make_perturbation("constant", 2, value=0.5)
    L = GeneralLagrangian(V, W)
    assert L.potential_bounds() == (0.0, 2.5)  # a nonnegative W is bounded below by 0
    x = np.array([[0.25, 0.5], [1.0, 0.0]])
    xi = np.array([[1.0, -2.0], [0.0, 0.5]])
    np.testing.assert_array_equal(L.evaluator(x, xi), np.sum(xi * xi, axis=-1) + (V(x) + W(x)))
    with pytest.raises(InputError):
        GeneralLagrangian(V, make_perturbation("constant", 1, value=0.5))
    with pytest.raises(InputError):
        GeneralLagrangian(V, make_perturbation("constant", 2, value=-0.5))


def test_table_pins_zero_slope_to_potential_minimum(cell_opt, quad):
    V = make_potential("constant", 1, value=0.7)
    f = tabulate_f_hom(V, np.linspace(-1, 1, 5), method="1d", opt=cell_opt, quad=quad)
    assert f.f0 == 0.7
    assert f.value(0.0) == 0.7


def test_table_interpolation_and_hull(cell_opt, quad, zero_1d):
    f = tabulate_f_hom(zero_1d, np.linspace(-2, 2, 9), method="1d", opt=cell_opt, quad=quad)
    assert f.value(1.0) == pytest.approx(1.0, abs=1e-9)
    # midpoint of the chord between 1 and 1.5
    assert f.value(1.25) == pytest.approx((1.0 + 2.25) / 2.0, abs=1e-9)
    with pytest.raises(ExtrapolationError):
        f.value(2.5)
    assert f.hull() == [(-2.0, 2.0)]


def test_table_json_roundtrip(cell_opt, quad, zero_1d):
    f = tabulate_f_hom(zero_1d, np.linspace(-1, 1, 5), method="1d", opt=cell_opt, quad=quad)
    g = HomogenizedLagrangian.from_json(f.to_json())
    np.testing.assert_array_equal(g.values, f.values)
    assert g.f0 == f.f0 and g.envelope_applied == f.envelope_applied


def test_envelope_flag_and_violation_count():
    axis = np.linspace(-1.0, 1.0, 5)
    dented = np.array([1.0, 0.1, 0.5, 0.1, 1.0])  # midpoint-convexity fails at 0
    table = HomogenizedLagrangian((axis,), dented, f0=0.0)
    count, worst = table.convexity_violations()
    assert count >= 1 and worst > 0
    fixed = table.with_envelope()
    assert fixed.envelope_applied
    count2, _ = fixed.convexity_violations()
    assert count2 == 0
    assert np.all(fixed.values <= dented + 1e-12)


def test_asymptotic_matches_1d_for_separable_potential(cell_opt, quad):
    V1 = make_potential("sin2", 1)
    V2 = make_potential("sin2", 2)
    xi = np.array([1.0, 0.5])
    one_d = (
        solve_corrector_1d(V1, float(xi[0]), opt=cell_opt, quad=quad).cell_value
        + solve_corrector_1d(V1, float(xi[1]), opt=cell_opt, quad=quad).cell_value
    )
    value, diagnostics = f_hom_asymptotic(V2, xi, opt=cell_opt, quad=quad)
    assert value == pytest.approx(one_d, rel=0.02)
    assert diagnostics["monotone"] or abs(value - one_d) / one_d < 0.02


def test_asymptotic_free_particle_exact(cell_opt, quad):
    V = make_potential("zero", 2)
    value, _ = f_hom_asymptotic(V, np.array([1.0, 1.0]), opt=cell_opt, quad=quad)
    assert value == pytest.approx(2.0, abs=1e-6)


def test_sin2_table_converged_and_matches_conservation_oracle(quad, sin2_1d):
    v = lambda w: np.sin(np.pi * w) ** 2
    xi = np.linspace(-2.0, 2.0, 17)
    table = tabulate_f_hom(sin2_1d, xi, quad=quad)
    assert table.meta["converged"]
    oracle = [conserved_energy_value(v, s) if s != 0.0 else 0.0 for s in xi]
    np.testing.assert_allclose(table.values, oracle, rtol=0.0, atol=1e-4)
