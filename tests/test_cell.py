"""Cell problems: homogenized values, tables, and the independent 1D oracle."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
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
    SolverError,
    Trajectory,
    cell_value_1d,
    f_hom_asymptotic,
    make_perturbation,
    make_potential,
    solve_corrector_1d,
    solve_corrector_general,
    tabulate_f_hom,
)


def _graded_breaks(v_fn):
    """Breakpoints 4^-k (k = 1..25) to either side of v's least grid point.

    Both integrands change on a scale sqrt(E) around the minimizer. Without
    these breakpoints QUADPACK's error estimate misses that scale, and the
    value is off by up to 6e-10 near |xi| = 0.15 (checked against mpmath).
    """
    grid = np.arange(4096) / 4096.0
    w0 = grid[np.argmin(v_fn(grid))]
    offsets = 4.0 ** -np.arange(1, 26)
    pts = np.concatenate([w0 + offsets, w0 - offsets, [w0]]) % 1.0
    return np.unique(pts[(pts > 0.0) & (pts < 1.0)])


# The least energy the reference brackets. Below about 1e-20, QUADPACK meets
# v's own roundoff near its minimizer inside the sqrt(E)-wide peak of the
# period integrand and warns of "extremely bad integrand behavior".
_E_FLOOR = 1e-15


def conserved_energy_value(v_fn, xi):
    """Homogenized value in d=1 from the conservation law of the cell flow.

    On an optimal unit-period crossing the quantity w'^2 - v(w) is a constant
    E; the period-time constraint picks E, and the value integral follows by
    substituting w' = sqrt(E + v(w)). Assumes min v = 0.

    E is bracketed in [_E_FLOOR, hi]. A root below the floor is within the
    root's absolute tolerance 1e-13 of it, and the value is taken at the
    floor: its derivative in E, |xi| times the integral of E / (2 (E + v)^1.5),
    is about |xi| / pi at a quadratic minimum, so that moves it by ~1e-16.
    """
    speed = abs(float(xi))
    breaks = _graded_breaks(v_fn)

    def period_time(E):
        val, _ = sp_quad(
            lambda w: 1.0 / np.sqrt(E + v_fn(w)), 0.0, 1.0, limit=400, points=breaks
        )
        return val - 1.0 / speed

    hi = max(4.0 * speed * speed, 1.0)
    while period_time(hi) > 0:
        hi *= 2.0
    E = _E_FLOOR
    if period_time(E) > 0:
        E = brentq(period_time, E, hi, xtol=1e-13)
    val, _ = sp_quad(
        lambda w: (E + 2.0 * v_fn(w)) / np.sqrt(E + v_fn(w)),
        0.0,
        1.0,
        limit=400,
        points=breaks,
    )
    return speed * val


@pytest.fixture(scope="module")
def cell_opt():
    return OptimizerSpec(max_iters=2000, restarts=3, seed=2)


def test_corrector_matches_conservation_oracle(cell_opt, sin2_1d):
    v = lambda w: np.sin(np.pi * w) ** 2
    for xi in (0.5, 1.0, 2.0):
        oracle = conserved_energy_value(v, xi)
        prof = solve_corrector_1d(sin2_1d, xi, opt=cell_opt)
        assert prof.cell_value == pytest.approx(oracle, rel=2e-3), f"xi={xi}"


def test_corrector_even_in_slope(cell_opt, sin2_1d):
    plus = solve_corrector_1d(sin2_1d, 1.0, opt=cell_opt)
    minus = solve_corrector_1d(sin2_1d, -1.0, opt=cell_opt)
    assert plus.cell_value == pytest.approx(minus.cell_value, rel=1e-6)


def test_corrector_profile_vanishes_at_window_ends(cell_opt, sin2_1d):
    prof = solve_corrector_1d(sin2_1d, 1.0, opt=cell_opt)
    assert float(prof.profile.nodes[0, 0]) == 0.0
    assert float(prof.profile.nodes[-1, 0]) == 0.0
    path = prof.path()
    assert float(path.nodes[-1, 0]) == pytest.approx(prof.T * 1.0, abs=1e-12)


def test_free_potential_cell_value_is_squared_speed(cell_opt, zero_1d):
    for xi in (0.5, 1.5):
        prof = solve_corrector_1d(zero_1d, xi, opt=cell_opt)
        assert prof.cell_value == pytest.approx(xi * xi, abs=1e-9)


def test_corrector_rejects_zero_slope(cell_opt, sin2_1d):
    with pytest.raises(InputError):
        solve_corrector_1d(sin2_1d, 0.0, opt=cell_opt)


def test_sandwich_bounds_on_table(cell_opt, sin2_1d):
    axis = np.linspace(-2.0, 2.0, 9)
    f = tabulate_f_hom(sin2_1d, axis, opt=cell_opt)
    lower = axis**2 + sin2_1d.v_min
    upper = axis**2 + sin2_1d.v_max
    assert np.all(f.values >= lower - 1e-6)
    assert np.all(f.values <= upper + 1e-6)


def test_general_corrector_rejects_values_above_the_sandwich(cell_opt, monkeypatch):
    V = make_potential("sin2", 1)
    W = make_perturbation("constant", 1, value=0.5)
    T = 4.0

    def solver_above_the_sandwich(L, t0, t1, a, b, n_nodes, opt):
        # |xi|^2 + sup(V + W) = 1 + 1.5; the value is 0.5 above it
        return Trajectory.affine(a, b, t0, t1, n_nodes - 1), 3.0 * T

    monkeypatch.setattr(homoglab.cell, "minimize_lagrangian_bvp", solver_above_the_sandwich)
    with pytest.raises(InvariantError, match="sandwich"):
        solve_corrector_general(GeneralLagrangian(V, W), [1.0], T, 33, cell_opt)


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


def test_table_pins_zero_slope_to_potential_minimum(cell_opt):
    V = make_potential("constant", 1, value=0.7)
    f = tabulate_f_hom(V, np.linspace(-1, 1, 5), opt=cell_opt)
    assert f.f0 == 0.7
    assert f.value(0.0) == 0.7


def test_table_interpolation_and_hull(cell_opt, zero_1d):
    f = tabulate_f_hom(zero_1d, np.linspace(-2, 2, 9), opt=cell_opt)
    assert f.value(1.0) == pytest.approx(1.0, abs=1e-9)
    # midpoint of the chord between 1 and 1.5
    assert f.value(1.25) == pytest.approx((1.0 + 2.25) / 2.0, abs=1e-9)
    with pytest.raises(ExtrapolationError):
        f.value(2.5)
    assert f.hull() == [(-2.0, 2.0)]


def test_table_json_roundtrip(cell_opt, zero_1d):
    f = tabulate_f_hom(zero_1d, np.linspace(-1, 1, 5), opt=cell_opt)
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


def test_asymptotic_matches_1d_for_separable_potential():
    V2 = make_potential("sin2", 2)
    xi = np.array([1.0, 0.5])
    value, diagnostics = f_hom_asymptotic(V2, xi)
    assert value == cell_value_1d(V2.factor, 1.0) + cell_value_1d(V2.factor, 0.5)
    assert diagnostics == {
        "values": [value],
        "T_ladder": [],
        "spread": 0.0,
        "monotone": True,
        "converged": True,
        "method": "separable",
    }


def test_asymptotic_windows_on_the_coupled_potential(cell_opt):
    # T * xi is a lattice vector on every rung, so each rung bounds
    # f_hom(sin2_coupled) from above, and V >= sin2 pointwise puts that above
    # the exact sin2 sum.
    coupled = make_potential("sin2_coupled", 2)
    assert coupled.factor is None
    xi = np.array([1.0, 0.0])
    value, diagnostics = f_hom_asymptotic(coupled, xi, opt=cell_opt)
    assert diagnostics["method"] == "windows"
    assert diagnostics["T_ladder"] == [8.0, 16.0, 32.0, 64.0]
    assert diagnostics["converged"]
    sin2_sum = conserved_energy_value(lambda w: np.sin(np.pi * w) ** 2, 1.0)
    assert min(diagnostics["values"]) > sin2_sum
    assert value == diagnostics["values"][-1]


@pytest.mark.parametrize("xi,T0", [([0.5, 0.5], 12.0), ([1.0, 1.0], 6.0)])
def test_asymptotic_windows_are_lattice_aligned_on_the_diagonal(cell_opt, xi, T0):
    # The coupling vanishes on the diagonal, so f_hom(sin2_coupled) there is
    # the sin2 sum; windows with T * xi off the lattice fell below it. T0 is
    # the least multiple of the lattice period (2, then 1) at or above 8/|xi|.
    coupled = make_potential("sin2_coupled", 2)
    _, diagnostics = f_hom_asymptotic(coupled, np.array(xi), opt=cell_opt)
    assert diagnostics["T_ladder"] == [T0, 2 * T0, 4 * T0, 8 * T0]
    assert diagnostics["monotone"]
    sin2_sum = 2 * cell_value_1d(make_potential("sin2", 1).factor, xi[0])
    assert min(diagnostics["values"]) >= sin2_sum


def test_asymptotic_free_particle_exact(cell_opt):
    V = make_potential("zero", 2)
    value, _ = f_hom_asymptotic(V, np.array([1.0, 1.0]), opt=cell_opt)
    assert value == pytest.approx(2.0, abs=1e-6)


def test_sin2_table_converged_and_matches_conservation_oracle(sin2_1d):
    v = lambda w: np.sin(np.pi * w) ** 2
    xi = np.linspace(-2.0, 2.0, 17)
    table = tabulate_f_hom(sin2_1d, xi)
    assert table.meta["converged"]
    oracle = [conserved_energy_value(v, s) if s != 0.0 else 0.0 for s in xi]
    np.testing.assert_allclose(table.values, oracle, rtol=0.0, atol=1e-4)


# -- the exact one-dimensional cell value ---------------------------------------


def _registry_factors():
    return {
        "sin2": make_potential("sin2", 1).factor,
        "cos_sum d=1": make_potential("cos_sum", 1).factor,
        "cos_sum d=2": make_potential("cos_sum", 2).factor,
    }


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(_registry_factors())),
    speed=st.floats(0.05, 4.0),
    sign=st.sampled_from([-1.0, 1.0]),
)
@example(name="cos_sum d=1", speed=0.0625, sign=1.0)  # its root E ~ 2e-21 lies below the floor
def test_cell_value_1d_matches_the_scipy_oracle(name, speed, sign):
    v = _registry_factors()[name]
    xi = sign * speed
    assert abs(cell_value_1d(v, xi) - conserved_energy_value(v, xi)) <= 1e-10


@settings(max_examples=60, deadline=None)
@given(xi=st.floats(-8.0, 8.0), c=st.floats(0.0, 5.0))
def test_cell_value_1d_of_a_constant_is_xi_squared_plus_c(xi, c):
    assert cell_value_1d(lambda w: np.full(np.shape(w), c), xi) == xi * xi + c


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(_registry_factors())), xi=st.floats(0.0, 6.0))
def test_cell_value_1d_is_even_and_sandwiched(name, xi):
    v = _registry_factors()[name]
    value = cell_value_1d(v, xi)
    assert cell_value_1d(v, -xi) == value
    samples = v(np.linspace(0.0, 1.0, 4097))
    assert xi * xi + samples.min() <= value <= xi * xi + samples.max()


def test_cell_value_1d_flat_bottom_is_linear_below_the_critical_slope():
    # v = |sin(pi w)| grows linearly from its minimum, so the period integral
    # is finite at E = -min v: T0 = B(1/4, 1/2)/pi, and slopes up to
    # xi_c = 1/T0 rest at the minimum part of the time, with value
    # 2|xi| * integral of sqrt(v) = 2|xi| B(3/4, 1/2)/pi.
    v = lambda w: np.abs(np.sin(np.pi * w))

    def beta(a, b):
        return math.gamma(a) * math.gamma(b) / math.gamma(a + b)

    xi_c = math.pi / beta(0.25, 0.5)
    slope = 2.0 * beta(0.75, 0.5) / math.pi
    for xi in (0.1, 0.3, 0.5, xi_c):
        assert cell_value_1d(v, xi) == pytest.approx(slope * xi, rel=1e-12, abs=0.0)
    above = cell_value_1d(v, xi_c * (1.0 + 1e-6))
    assert slope * xi_c < above <= slope * xi_c * (1.0 + 1e-6) + 1e-12
    # Past xi_c the energy is positive and the value leaves the line.
    assert cell_value_1d(v, 1.0) > slope + 1e-3
    assert cell_value_1d(v, 1.0) == pytest.approx(conserved_energy_value(v, 1.0), abs=1e-10)


@pytest.mark.parametrize("name", sorted(_registry_factors()))
@pytest.mark.parametrize("xi", [1e-4, 3e-3, 4.5e-3, 5.5e-3, 6.5e-3, 0.02])
def test_cell_value_1d_at_small_slopes_is_the_flat_bottom_line(name, xi):
    # The energy is of size exp(-pi/|xi|) here, so f_1 = 2|xi| * integral of
    # sqrt(v) to rounding; each factor is a * sin^2 or a * cos^2, whose root
    # mean is (2/pi) sqrt(a). At cos_sum's minimizer 1/2 rounding leaves
    # nodes with v exactly at its minimum, so there the period time grows
    # like e^-1/2 as the energy e falls, which the root search must handle.
    v = _registry_factors()[name]
    amplitude = float(v(np.array(0.5)) + v(np.array(0.0)))
    root_mean = 2.0 / math.pi * math.sqrt(amplitude)
    assert cell_value_1d(v, xi) == pytest.approx(2.0 * xi * root_mean, rel=1e-13, abs=0.0)


def test_cell_value_1d_raises_where_the_levels_disagree():
    # Two wells per period: the rule clusters its nodes at one of them only.
    with pytest.raises(SolverError, match="levels differ"):
        cell_value_1d(lambda w: np.sin(2 * np.pi * w) ** 2, 0.2)


def test_cell_value_1d_needs_no_scipy():
    code = (
        "import sys, homoglab\n"
        "homoglab.cell_value_1d(homoglab.make_potential('sin2', 1).factor, 0.7)\n"
        "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(Path(homoglab.cell.__file__).parents[1])},
    )
    assert out.stdout.strip() == "False"


def test_sin2_table_in_d2_is_the_exact_separable_sum():
    V = make_potential("sin2", 2)
    axis = np.linspace(-2.0, 2.0, 9)
    table = tabulate_f_hom(V, (axis, axis))
    one_d = np.array([conserved_energy_value(V.factor, s) if s != 0.0 else 0.0 for s in axis])
    reference = one_d[:, None] + one_d[None, :]
    np.testing.assert_allclose(table.values, reference, rtol=0.0, atol=1e-10)
    assert not table.envelope_applied
