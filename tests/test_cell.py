"""Cell problems: homogenized values, tables, and the independent 1D oracle."""

import dataclasses
import json
import math
import os
import re
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
    PeriodicPotential,
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
from homoglab.grid import mesh
from homoglab.potentials import potential_bounds


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
    return OptimizerSpec(max_iters=2000)


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


def test_free_potential_cell_value_is_squared_speed(cell_opt, zero_1d):
    for xi in (0.5, 1.5):
        prof = solve_corrector_1d(zero_1d, xi, opt=cell_opt)
        assert prof.cell_value == pytest.approx(xi * xi, abs=1e-9)


def test_corrector_rejects_zero_slope(cell_opt, sin2_1d):
    with pytest.raises(InputError):
        solve_corrector_1d(sin2_1d, 0.0, opt=cell_opt)


@pytest.mark.parametrize("xi", [math.nan, math.inf, -math.inf, -1e-320, 1e-5])
def test_corrector_refuses_a_slope_without_a_window_before_any_work(
    cell_opt, sin2_1d, xi, monkeypatch
):
    """A non-finite slope, a T = 1/|xi| that overflows (-1e-320) and a window
    of more than 2^20 nodes (1e-5: 4.8e6) are InputErrors, raised before the
    node count is rounded or anything is solved."""

    def no_solve(*args):
        raise AssertionError("solved a refused slope")

    monkeypatch.setattr(homoglab.cell, "minimize_bvp", no_solve)
    with pytest.raises(InputError, match="finite|2\\^20 nodes"):
        solve_corrector_1d(sin2_1d, xi, opt=cell_opt)


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(["zero", "constant", "sin2", "cos_sum"]),
    speed=st.floats(0.05, 4.0),
    sign=st.sampled_from([-1.0, 1.0]),
)
def test_corrector_is_one_certified_start(name, speed, sign):
    """The d = 1 solve runs the affine start alone: its gap to the exact value
    lies in the certified window, and the meta holds the exact value and gap."""
    V = make_potential(name, 1)
    xi = sign * speed
    prof = solve_corrector_1d(V, xi, OptimizerSpec(max_iters=2000))
    exact = cell_value_1d(V.factor, xi)
    lo, hi = homoglab.cell._EXACT_GAP_WINDOW
    assert prof.meta["exact_value"] == exact
    assert prof.meta["exact_gap"] == prof.cell_value - exact
    assert lo * max(1.0, abs(exact)) <= prof.meta["exact_gap"] <= hi * max(1.0, abs(exact))


def test_corrector_stuck_on_the_affine_path_is_an_invariant_error(cell_opt, sin2_1d, monkeypatch):
    """At xi = 1 the affine path is 1.5 - 1.469 = 3.1e-2 above the exact
    value, far outside the window: a solve that returns it is refused, naming
    xi and both values, though it passes the zero-corrector and sandwich checks."""

    def affine_solver(V, W, eps, t, a, b, n_nodes, opt):
        path = Trajectory.affine([a], [b], t, n_nodes - 1)
        return path, homoglab.cell.action_F(path, V, eps)

    monkeypatch.setattr(homoglab.cell, "minimize_bvp", affine_solver)
    exact = cell_value_1d(sin2_1d.factor, 1.0)
    with pytest.raises(InvariantError, match=f"at xi=1.0 .* exact value {exact!r}"):
        solve_corrector_1d(sin2_1d, 1.0, opt=cell_opt)


def _two_wells():
    """v(w) = sin^2(2 pi w): two equal wells per period, at 0 and 1/2."""
    return PeriodicPotential(
        1,
        lambda x: np.sin(2 * np.pi * x[..., 0]) ** 2,
        v_min=0.0,
        v_max=1.0,
        gradient=lambda x: 2 * np.pi * np.sin(4 * np.pi * x),
        name="two_wells",
        hessian=lambda x: (8 * np.pi**2 * np.cos(4 * np.pi * x))[..., None],
    )


def test_a_table_of_two_equal_wells_is_a_solver_error(cell_opt):
    """The exact value resolves one well per period, so the certificate of the
    slope 0.25 fails as a SolverError and no table is returned. The slope 0.5,
    where the two wells' peaks are resolved, is certified."""
    V = _two_wells()
    assert solve_corrector_1d(V, 0.5, opt=cell_opt).meta["exact_gap"] < 1e-3
    with pytest.raises(SolverError, match="levels differ"):
        tabulate_f_hom(V, np.linspace(-0.5, 0.5, 5), opt=cell_opt)


def test_a_stacked_corrector_solve_gives_each_solo_profile(cell_opt, sin2_1d):
    slopes = [-1.0, 0.5, 2.0, -1.0, 0.25]
    stack = solve_corrector_1d(sin2_1d, slopes, cell_opt)
    assert len(stack) == len(slopes)
    for xi, prof in zip(slopes, stack):
        solo = solve_corrector_1d(sin2_1d, xi, cell_opt)
        assert prof.xi.tolist() == [xi] and prof.T == solo.T
        assert prof.cell_value == solo.cell_value
        np.testing.assert_array_equal(prof.profile.nodes, solo.profile.nodes)
        assert prof.meta == solo.meta


def test_a_stacked_corrector_solve_checks_every_slope_before_any_work(
    cell_opt, sin2_1d, monkeypatch
):
    """The first refused slope of a stack raises before any exact value or
    Newton solve; then the exact pass runs before any Newton solve, so a
    slope it cannot resolve raises its SolverError first."""

    def no_work(*args):
        raise AssertionError("worked on a stack with a refused slope")

    monkeypatch.setattr(homoglab.cell, "minimize_bvp", no_work)
    monkeypatch.setattr(homoglab.cell, "cell_value_1d", no_work)
    with pytest.raises(InputError, match="must be nonzero"):
        solve_corrector_1d(sin2_1d, [1.0, 0.0, math.nan], cell_opt)
    monkeypatch.setattr(homoglab.cell, "cell_value_1d", cell_value_1d)
    with pytest.raises(SolverError, match="at xi=-0.25: .*levels differ"):
        solve_corrector_1d(_two_wells(), [0.5, -0.25, 0.25], cell_opt)


def test_a_1d_table_makes_one_exact_pass_and_one_newton_solve_per_slope(
    cell_opt, sin2_1d, monkeypatch
):
    """One minimum scan and one stacked solve for the first slope of each +-xi
    pair in grid order, then one Newton solve each; the mirrored slopes are
    not solved. A separable d = 2 value scans its factor once for both axes."""
    calls = {"scan": [], "solve": [], "newton": []}

    def counted(name, fn):
        def wrapper(*args):
            calls[name].append(args)
            return fn(*args)

        return wrapper

    monkeypatch.setattr(
        homoglab.cell, "_factor_minimum", counted("scan", homoglab.cell._factor_minimum)
    )
    monkeypatch.setattr(
        homoglab.cell, "solve_corrector_1d", counted("solve", homoglab.cell.solve_corrector_1d)
    )
    monkeypatch.setattr(
        homoglab.cell, "minimize_bvp", counted("newton", homoglab.cell.minimize_bvp)
    )
    axis = np.linspace(-2.0, 2.0, 9)
    tabulate_f_hom(sin2_1d, axis, opt=cell_opt)
    assert len(calls["scan"]) == 1
    assert [args[1] for args in calls["solve"]] == [[-2.0, -1.5, -1.0, -0.5]]
    assert [args[3] for args in calls["newton"]] == [0.5, 2 / 3, 1.0, 2.0]
    f_hom_asymptotic(make_potential("sin2", 2), np.array([1.0, 0.5]))
    assert len(calls["scan"]) == 2


def test_sandwich_bounds_on_table(cell_opt, sin2_1d):
    axis = np.linspace(-2.0, 2.0, 9)
    f = tabulate_f_hom(sin2_1d, axis, opt=cell_opt)
    lower = axis**2 + sin2_1d.v_min
    upper = axis**2 + sin2_1d.v_max
    assert np.all(f.values >= lower - 1e-6)
    assert np.all(f.values <= upper + 1e-6)


def test_table_raises_the_first_failing_slopes_own_error(cell_opt, sin2_1d, monkeypatch):
    """No relabelling as SolverError: an invariant violation at one slope ends
    the tabulation as an InvariantError that names the slope. The table's
    slopes go to one stacked solve, so the violation comes from inside it:
    the Newton solve of the window [0, 2] toward -1, which is xi = -0.5, the
    solved member of its +-xi pair."""
    real = homoglab.cell.minimize_bvp

    def solver(V, W, eps, t, a, b, n_nodes, opt):
        if t == 2.0 and b == -1.0:
            raise InvariantError(f"synthetic violation at xi={b / t}")
        return real(V, W, eps, t, a, b, n_nodes, opt)

    monkeypatch.setattr(homoglab.cell, "minimize_bvp", solver)
    with pytest.raises(InvariantError, match="xi=-0.5"):
        tabulate_f_hom(sin2_1d, np.linspace(-1, 1, 5), opt=cell_opt)
    monkeypatch.undo()
    # A declared v_min above the true one puts every cell value under the sandwich.
    liar = dataclasses.replace(sin2_1d, v_min=0.6)
    with pytest.raises(InvariantError, match="at xi=-1.0 escapes the sandwich"):
        tabulate_f_hom(liar, np.linspace(-1, 1, 5), opt=cell_opt)


def _table_solving_every_slope(V, axes, opt):
    """tabulate_f_hom as it was when it solved every nonzero slope, the exact
    negative of an earlier one too: the reference its +-xi sharing must match."""
    axes = tuple(np.asarray(ax, dtype=float) for ax in axes)
    flat = mesh(axes)
    values = np.full(flat.shape[0], V.v_min, dtype=float)
    moving = [i for i, point in enumerate(flat) if np.any(point != 0.0)]
    meta = {"potential": V.name, "method": "1d" if V.dimension == 1 else "asymptotic"}
    converged = True
    if V.dimension == 1:
        profiles = solve_corrector_1d(V, [float(flat[i, 0]) for i in moving], opt)
        for i, prof in zip(moving, profiles):
            values[i] = prof.cell_value
            converged &= prof.meta["converged"]
        meta["converged"] = converged
        meta["max_exact_gap"] = max(prof.meta["exact_gap"] for prof in profiles)
    else:
        for i in moving:
            values[i], _ = f_hom_asymptotic(V, flat[i])
        meta["converged"] = converged
    table = HomogenizedLagrangian(
        axes, values.reshape(tuple(ax.size for ax in axes)), V.v_min, False, meta
    )
    count, worst = table.convexity_violations(homoglab.cell._CONVEXITY_TOL)
    table.meta.update(convexity_violations=count, convexity_worst=worst)
    if count > 0:
        table = table.with_envelope()
        count, worst = table.convexity_violations(homoglab.cell._CONVEXITY_TOL)
        table.meta.update(convexity_violations=count, convexity_worst=worst)
    return table


def _assert_same_table(table, reference):
    assert table.to_json() == reference.to_json()
    assert table.values.tobytes() == reference.values.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(["zero", "constant", "sin2", "cos_sum"]),
    k=st.integers(1, 4),
    step=st.one_of(st.sampled_from([0.125, 0.25, 0.5, 1.0]), st.floats(0.1, 1.0)),
)
def test_a_table_shares_each_pm_xi_solve_and_keeps_every_byte(name, k, step):
    """A d = 1 table that solves one slope of each exact +-xi pair equals, bit
    for bit in values and meta, the table that solves them all, on the grid
    linspace(-h, h, 2k + 1): exactly symmetric for a dyadic step, and with
    some slopes whose exact negative is not in the grid for others."""
    V = make_potential(name, 1)
    axis = np.linspace(-k * step, k * step, 2 * k + 1)
    opt = OptimizerSpec(max_iters=2000)
    _assert_same_table(tabulate_f_hom(V, axis, opt), _table_solving_every_slope(V, [axis], opt))


@pytest.mark.parametrize("name,n", [("sin2", 5), ("cos_sum", 3)])
def test_a_d2_table_shares_each_pm_xi_solve_and_keeps_every_byte(cell_opt, name, n):
    V = make_potential(name, 2)
    axes = [np.linspace(-1.0, 1.0, n)] * 2
    table = tabulate_f_hom(V, axes, cell_opt)
    _assert_same_table(table, _table_solving_every_slope(V, axes, cell_opt))


def test_a_d2_table_mirrors_the_slope_with_every_component_negated(monkeypatch):
    """Every d >= 2 value is a separable sum, even in each component, so the
    values cannot show which slope a mirror takes. The calls do: on a 3 x 3
    grid only the first of each pair xi, -xi (every component negated) is
    computed, so (1, -1) is not, though (1, 1) comes after it."""
    real = homoglab.cell.f_hom_asymptotic
    computed = []

    def counted(V, xi):
        computed.append(xi.tolist())
        return real(V, xi)

    monkeypatch.setattr(homoglab.cell, "f_hom_asymptotic", counted)
    tabulate_f_hom(make_potential("sin2", 2), [np.linspace(-1.0, 1.0, 3)] * 2)
    assert computed == [[-1.0, -1.0], [-1.0, 0.0], [-1.0, 1.0], [0.0, -1.0]]


def _tilted_sin2():
    """v(w) = sin^2(pi w) + sin(2 pi w) / 4 = 1/2 - (sqrt 5 / 4) cos(2 pi (w - w0)):
    one well per period and an even f_hom, but v is not even about 0, so the
    Newton solves at +-xi need not agree in their last bits."""
    r = math.sqrt(5.0) / 4.0
    return PeriodicPotential(
        1,
        lambda x: np.sin(np.pi * x[..., 0]) ** 2 + 0.25 * np.sin(2 * np.pi * x[..., 0]),
        v_min=0.5 - r,
        v_max=0.5 + r,
        gradient=lambda x: np.pi * np.sin(2 * np.pi * x) + 0.5 * np.pi * np.cos(2 * np.pi * x),
        name="tilted_sin2",
        hessian=lambda x: (
            2 * np.pi**2 * np.cos(2 * np.pi * x) - np.pi**2 * np.sin(2 * np.pi * x)
        )[..., None],
    )


def test_a_table_of_a_v_not_even_about_0_is_exactly_even(cell_opt):
    """Each +xi entry is its -xi entry, and within 1e-14 relative of a direct
    solve at +xi."""
    V = _tilted_sin2()
    axis = np.linspace(-2.0, 2.0, 9)
    values = tabulate_f_hom(V, axis, cell_opt).values
    assert values.tobytes() == values[::-1].tobytes()
    for xi, value in zip(axis[5:], values[5:]):
        direct = solve_corrector_1d(V, float(xi), cell_opt).cell_value
        assert abs(value - direct) <= 1e-14 * abs(direct)


def test_a_slope_one_ulp_off_its_partners_negative_is_solved_with_it(
    cell_opt, sin2_1d, monkeypatch
):
    """-1.5 moved out by one ulp still passes the 1e-12 symmetry check, but it
    is no exact negative of 1.5: both are solved, each with its own window,
    and the other pairs share one."""
    windows = []
    real = homoglab.cell.minimize_bvp

    def counted(V, W, eps, t, a, b, n_nodes, opt):
        windows.append((t, b))
        return real(V, W, eps, t, a, b, n_nodes, opt)

    monkeypatch.setattr(homoglab.cell, "minimize_bvp", counted)
    axis = np.linspace(-2.0, 2.0, 9)
    axis[1] = np.nextafter(-1.5, -np.inf)
    table = tabulate_f_hom(sin2_1d, axis, cell_opt)
    assert windows == [(0.5, -1.0), (1.0 / -axis[1], -1.0), (1.0, -1.0), (2.0, -1.0), (2 / 3, 1.0)]
    monkeypatch.undo()
    assert table.values[1] == solve_corrector_1d(sin2_1d, float(axis[1]), cell_opt).cell_value
    assert table.values[7] == solve_corrector_1d(sin2_1d, 1.5, cell_opt).cell_value
    assert table.values[8] == table.values[0]


def test_general_corrector_rejects_values_above_the_sandwich(cell_opt, monkeypatch):
    V = make_potential("sin2", 1)
    W = make_perturbation("constant", 1, value=0.5)
    T = 4.0

    def solver_above_the_sandwich(L, t, a, b, n_nodes, opt):
        # |xi|^2 + sup(V + W) = 1 + 1.5; the value is 0.5 above it
        return Trajectory.affine(a, b, t, n_nodes - 1), 3.0 * T

    monkeypatch.setattr(homoglab.cell, "minimize_lagrangian_bvp", solver_above_the_sandwich)
    with pytest.raises(InvariantError, match="sandwich"):
        solve_corrector_general(GeneralLagrangian(V, W), [1.0], T, 33, cell_opt)


def test_general_lagrangian_is_the_pair_V_W():
    V = make_potential("sin2", 2)
    W = make_perturbation("constant", 2, value=0.5)
    L = GeneralLagrangian(V, W)
    assert potential_bounds(L.V, L.W) == (0.0, 2.5)  # a nonnegative W is bounded below by 0
    x = np.array([[0.25, 0.5], [1.0, 0.0]])
    xi = np.array([[1.0, -2.0], [0.0, 0.5]])
    expected = np.sum(xi * xi, axis=-1) + (V.evaluator(x) + W.evaluator(x))
    np.testing.assert_array_equal(L.evaluator(x, xi), expected)
    with pytest.raises(InputError):
        GeneralLagrangian(V, make_perturbation("constant", 1, value=0.5))
    with pytest.raises(InputError):
        GeneralLagrangian(V, make_perturbation("constant", 2, value=-0.5))


@pytest.mark.parametrize(
    "axis, refusal",
    [
        ([-3e-10, -1e-10, 0.0, 1e-10, 3e-10], "uniform"),
        ([-1e-13, 0.0, 1e-13, 2e-13], "symmetric"),
        (np.linspace(-2.0, 2.0, 17), None),
        (np.linspace(-0.3, 0.3, 7), None),
        (np.linspace(-1000.3, 1000.3, 7), None),
    ],
)
def test_slope_axes_hold_tiny_slopes_to_the_same_relative_rule(axis, refusal):
    """The uniform-step test is relative to the first step and the symmetry
    test to the largest slope, so steps of 2e-10 and 1e-10, or an axis
    1e-13 off symmetric, are refused as they would be at any size."""
    if refusal is None:
        (checked,) = homoglab.cell._slope_axes(axis, 1)
        assert np.array_equal(checked, axis)
        return
    with pytest.raises(InputError, match=refusal):
        homoglab.cell._slope_axes(axis, 1)
    with pytest.raises(InputError, match=refusal):
        tabulate_f_hom(make_potential("sin2", 2), [np.array(axis)] * 2)


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
    """The to_json payload, which f_hom.json is written from, carries the
    table's axes, values, f0, envelope flag and meta, each float exactly."""
    f = tabulate_f_hom(zero_1d, np.linspace(-1, 1, 5), opt=cell_opt)
    payload = json.loads(f.to_json())
    assert set(payload) == {"axes", "values", "meta", "f0", "envelope_applied"}
    np.testing.assert_array_equal(payload["axes"], [f.axes[0]])
    np.testing.assert_array_equal(payload["values"], f.values)
    assert payload["f0"] == f.f0 and payload["envelope_applied"] is f.envelope_applied
    assert payload["meta"] == json.loads(json.dumps(f.meta))


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
    value, method = f_hom_asymptotic(V2, xi)
    assert value == cell_value_1d(V2.factor, 1.0) + cell_value_1d(V2.factor, 0.5)
    assert method == "separable"
    assert f_hom_asymptotic(V2, np.zeros(2)) == (V2.v_min, "minimum")


def test_asymptotic_of_a_1d_potential_without_a_factor_is_its_exact_value():
    """A d = 1 V is its own factor: the value is cell_value_1d of its
    evaluator, bit for bit, the exact value `solve_corrector_1d` certifies."""
    V = _tilted_sin2()
    assert V.factor is None
    for xi in (-2.0, 0.25, 1.5):
        exact = cell_value_1d(lambda s: V.evaluator(s[..., None]), xi)
        assert f_hom_asymptotic(V, [xi]) == (exact, "separable")
        assert solve_corrector_1d(V, xi).meta["exact_value"] == exact


def _coupled_2d():
    """V(x) = sin^2(pi x_1) + sin^2(pi x_2) + sin^2(pi (x_1 - x_2)) / 2: no axis factor."""

    def evaluator(x):
        coupling = np.sin(np.pi * (x[..., 0] - x[..., 1])) ** 2
        return np.sum(np.sin(np.pi * x) ** 2, axis=-1) + 0.5 * coupling

    return PeriodicPotential(2, evaluator, 0.0, 2.5, lipschitz=2 * np.pi, name="coupled")


def test_a_non_separable_d2_potential_is_refused_by_name_before_any_work(monkeypatch):
    """No path gives its f_hom with evidence (the window ladder it once took
    stopped on a saddle above f_hom), so f_hom_asymptotic and tabulate_f_hom
    refuse it by name, before any value, even at xi = 0."""

    def no_work(*args):
        raise AssertionError("worked on a refused potential")

    monkeypatch.setattr(homoglab.cell, "cell_value_1d", no_work)
    monkeypatch.setattr(homoglab.cell, "minimize_lagrangian_bvp", no_work)
    V = _coupled_2d()
    for xi in ([1.0, 2.0], [0.0, 0.0]):
        with pytest.raises(InputError, match="potential 'coupled' has no axis factor"):
            f_hom_asymptotic(V, xi)
    with pytest.raises(InputError, match="potential 'coupled' has no axis factor"):
        tabulate_f_hom(V, [np.linspace(-1.0, 1.0, 3)] * 2)


def test_asymptotic_free_particle_exact():
    V = make_potential("zero", 2)
    assert f_hom_asymptotic(V, np.array([1.0, 1.0])) == (2.0, "separable")


@pytest.mark.parametrize("xi", [[0.5, 0.5], [1.0, 1.0], [1.0, 1.0, 1.0]], ids=["xi0", "xi1", "xi2"])
def test_asymptotic_on_the_diagonal_matches_the_conservation_oracle(xi):
    """On the diagonal each axis crosses its cell at the same speed, so the
    separable sin2 value is d times the d = 1 value, and the scipy oracle of
    the conservation law confirms each term."""
    d = len(xi)
    value, method = f_hom_asymptotic(make_potential("sin2", d), xi)
    assert method == "separable"
    one = f_hom_asymptotic(make_potential("sin2", 1), xi[:1])[0]
    assert value == pytest.approx(d * one, rel=1e-15, abs=0.0)
    oracle = conserved_energy_value(lambda w: np.sin(np.pi * w) ** 2, xi[0])
    assert abs(value - d * oracle) <= d * 1e-10


@pytest.mark.parametrize(
    "xi", [[1e-13, 0.0], [0.0, 1e-300], [5e-324, 0.0]], ids=["1e-13", "1e-300", "5e-324"]
)
def test_asymptotic_at_a_slope_no_window_holds_is_the_flat_bottom_line(xi):
    """A d = 1 window for these slopes needs more nodes than a float holds,
    but a d = 2 value solves no window: it is the flat-bottom line
    2|xi| * integral of sqrt(sin^2) = 4|xi|/pi, above v_min even at the
    least subnormal slope, which is no slope 0."""
    V = make_potential("sin2", 2)
    value, method = f_hom_asymptotic(V, xi)
    assert method == "separable"
    assert value > V.v_min
    assert value == pytest.approx(4.0 / np.pi * max(xi), rel=1e-12, abs=5e-324)


def test_sin2_table_converged_and_matches_conservation_oracle(sin2_1d):
    v = lambda w: np.sin(np.pi * w) ** 2
    xi = np.linspace(-2.0, 2.0, 17)
    table = tabulate_f_hom(sin2_1d, xi)
    assert table.meta["converged"]
    oracle = [conserved_energy_value(v, s) if s != 0.0 else 0.0 for s in xi]
    np.testing.assert_allclose(table.values, oracle, rtol=0.0, atol=1e-4)
    exact = np.array([cell_value_1d(sin2_1d.factor, s) for s in xi])
    assert table.meta["max_exact_gap"] == np.max((table.values - exact)[xi != 0.0])


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


def _stack_factors():
    two_wells = _two_wells()
    return {
        "sin2": make_potential("sin2", 1).factor,
        "cos_sum": make_potential("cos_sum", 1).factor,
        "constant": lambda w: np.full(np.shape(w), 0.7),
        "flat bottom": lambda w: np.abs(np.sin(np.pi * w)),
        "two wells": lambda w: two_wells.evaluator(w[..., None]),
    }


def _with_roots(fn, *args):
    """(fn(*args) or the SolverError it raised, the speed of each energy root it solved)."""
    roots = []
    energy_value = homoglab.cell._energy_value

    def counting(u, weights, speed):
        roots.append(speed)
        return energy_value(u, weights, speed)

    homoglab.cell._energy_value = counting
    try:
        return fn(*args), roots
    except SolverError as exc:
        return exc, roots
    finally:
        homoglab.cell._energy_value = energy_value


@settings(max_examples=100, deadline=None)
@given(
    name=st.sampled_from(sorted(_stack_factors())),
    slopes=st.lists(
        st.one_of(
            st.sampled_from([0.0, -0.0, 0.25, -0.25, 0.5, -0.5, 1.0, -1.0]),
            st.floats(-4.0, 4.0),
        ),
        min_size=1,
        max_size=6,
    ),
)
@example(name="two wells", slopes=[0.5, -0.25, 1.0, 0.25, 0.1])
@example(name="two wells", slopes=[2.0, 0.5, -2.0, 1.0])
@example(name="sin2", slopes=[0.0, 1.0, -1.0, 1.0, 0.05, 4.0])
def test_a_stack_of_slopes_gives_each_solo_float_bitwise(name, slopes):
    """A stack shares the scan, the levels and the roots of +-xi, and still
    gives each slope's own float; with a failing slope in it, the first
    failing slope's own SolverError. Each distinct speed up to the first
    failing slope solves as many energy roots as its own call: it stops at
    the level that call stops at."""
    v = _stack_factors()[name]
    solos = {xi: _with_roots(cell_value_1d, v, xi) for xi in slopes}
    stack, roots = _with_roots(cell_value_1d, v, np.array(slopes))
    failing = [xi for xi in slopes if isinstance(solos[xi][0], SolverError)]
    ran = slopes[: slopes.index(failing[0]) + 1] if failing else slopes
    by_speed = {abs(xi): solos[xi][1] for xi in ran}
    assert sorted(roots) == sorted(r for solo_roots in by_speed.values() for r in solo_roots)
    failures = [solos[xi][0] for xi in failing]
    if failures:
        assert type(stack) is SolverError and str(stack) == str(failures[0])
    else:
        solo_values = [solos[xi][0] for xi in slopes]
        assert np.array(stack).tobytes() == np.array(solo_values).tobytes()
        assert cell_value_1d(v, slopes) == stack


def test_a_stack_raises_the_error_of_its_first_failing_slope(monkeypatch):
    """A root search that fails for the second slope does not pre-empt the
    first slope, whose levels disagree; in the other order it comes first."""
    energy_value = homoglab.cell._energy_value

    def failing(u, weights, speed):
        if speed == 2.0:
            raise SolverError(f"no period-time root found at slope {speed}")
        return energy_value(u, weights, speed)

    monkeypatch.setattr(homoglab.cell, "_energy_value", failing)
    v = _stack_factors()["two wells"]
    with pytest.raises(SolverError, match="at xi=0.25: the finest quadrature levels differ"):
        cell_value_1d(v, [0.25, -2.0])
    with pytest.raises(SolverError, match="no period-time root found at slope 2.0"):
        cell_value_1d(v, [-2.0, 0.25])


@pytest.mark.parametrize("xi", [math.nan, math.inf, -math.inf])
def test_cell_value_1d_refuses_a_non_finite_slope_before_any_work(xi):
    def v(w):
        raise AssertionError("evaluated v at a refused slope")

    with pytest.raises(InputError, match="finite"):
        cell_value_1d(v, xi)


def test_cell_value_1d_refuses_a_slope_whose_energy_bracket_overflows():
    """Just below 2^511 the value is xi^2 + 1/2 to 1e-12; at 2^511, 1.3e154
    (where xi^2 itself still fits) and 1e300 the slope is refused by name
    before any level, and no overflow or NaN warning leaks."""
    v = make_potential("sin2", 1).factor
    below = math.nextafter(2.0**511, 0.0)
    values = cell_value_1d(v, [below, -below])
    assert values[0] == values[1] == pytest.approx(below * below + 0.5, rel=1e-12)
    for xi in (2.0**511, -1.3e154, 1e300):

        def unreachable(*args):
            raise AssertionError("built a level for a refused slope")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(homoglab.cell, "_period_nodes", unreachable)
            with pytest.raises(InputError, match=re.escape(f"below 2^511 in size, got {xi}")):
                cell_value_1d(v, [0.5, xi])


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
    assert "max_exact_gap" not in table.meta
