"""Trajectories, action functionals, connectors, and the polar bound."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homoglab import (
    InputError,
    InvariantError,
    QuadratureSpec,
    Trajectory,
    action_F,
    action_G,
    build_connector,
    connector_kinetic_bound,
    discounted_action,
    eval_hamiltonian,
    eval_lagrangian,
    homogenized_action,
    make_perturbation,
    make_potential,
    polar_bound_check,
    zero_set_measure,
)
from homoglab.quadrature import exp_interval_weights
from homoglab.trajectory import POLAR_BOUND_TOL, _discounted_zero_measure


def line(t0, t1, a, b, n=33):
    t = np.linspace(t0, t1, n)
    frac = (t - t0) / (t1 - t0)
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    return Trajectory(t, a[None, :] + frac[:, None] * (b - a)[None, :])


def test_trajectory_validation():
    with pytest.raises(InputError):
        Trajectory(np.array([0.0, 0.0, 1.0]), np.zeros((3, 1)))
    with pytest.raises(InputError):
        Trajectory(np.array([0.0, 1.0]), np.zeros((3, 1)))


def test_kinetic_integral_of_line():
    u = line(0.0, 2.0, 0.0, 3.0)
    # constant speed 1.5 for 2 time units
    assert u.kinetic_integral() == pytest.approx(4.5, abs=1e-12)


def test_action_F_constant_potential_is_kinetic_plus_mass(quad):
    V = make_potential("constant", 1, value=0.7)
    u = line(0.0, 2.0, 0.0, 3.0)
    assert action_F(u, V, 0.1, quad) == pytest.approx(4.5 + 0.7 * 2.0, abs=1e-10)


def test_action_G_adds_perturbation_mass(quad):
    V = make_potential("zero", 1)
    W = make_perturbation("constant", 1, value=0.25)
    u = line(0.0, 1.0, 0.0, 1.0)
    assert action_G(u, V, W, 0.1, quad) == pytest.approx(1.0 + 0.25, abs=1e-10)
    # W=None means the unperturbed functional
    assert action_G(u, V, None, 0.1, quad) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    d=st.integers(1, 2),
    eps=st.floats(0.05, 1.0),
    t0=st.floats(-2.0, 2.0),
    length=st.floats(0.1, 4.0),
    data=st.data(),
)
def test_action_G_invariant_under_time_reversal(d, eps, t0, length, data):
    V = make_potential("sin2", d)
    W = make_perturbation("runge_decay", d, amplitude=1.0)
    n = data.draw(st.integers(2, 12))
    steps = data.draw(st.lists(st.floats(0.1, 1.0), min_size=n - 1, max_size=n - 1))
    times = t0 + length * np.concatenate(([0.0], np.cumsum(steps))) / np.sum(steps)
    coords = st.floats(-3.0, 3.0, allow_nan=False)
    nodes = np.array(data.draw(st.lists(coords, min_size=n * d, max_size=n * d))).reshape(n, d)
    quad = QuadratureSpec()
    u = Trajectory(times, nodes)
    # s = t0 + t1 - t runs the same path backwards; the midpoint offsets of
    # every interval are symmetric, so only rounding separates the two values
    back = Trajectory((times[0] + times[-1] - times)[::-1], nodes[::-1])
    value = action_G(u, V, W, eps, quad)
    assert abs(action_G(back, V, W, eps, quad) - value) <= 1e-12 * max(1.0, abs(value))


def test_action_periodicity_in_eps(quad):
    V = make_potential("sin2", 1)
    u = line(0.0, 1.0, 0.0, 1.0, n=201)
    # integer shift of the path leaves the eps-scaled potential term unchanged
    shifted = Trajectory(u.times, u.nodes + 3.0)
    a0 = action_F(u, V, 0.5, quad)
    a1 = action_F(shifted, V, 0.5, quad)
    assert a1 == pytest.approx(a0, rel=1e-9)


def test_discounted_action_constant_path(quad):
    V = make_potential("constant", 1, value=1.0)
    lam = 0.5
    t = np.linspace(0.0, 40.0, 4001)
    u = Trajectory(t, np.zeros((t.size, 1)))
    val = discounted_action(u, V, None, 0.1, lam, quad)
    # integral of 1*exp(-lam t) over the horizon
    assert val == pytest.approx((1.0 - np.exp(-lam * 40.0)) / lam, rel=1e-6)


def test_eval_lagrangian_hamiltonian_duality():
    V = make_potential("sin2", 1)
    W = make_perturbation("constant", 1, value=0.25)
    x = np.array([0.25])
    xi = np.array([1.5])
    p = np.array([3.0])
    lag = eval_lagrangian(V, W, x, xi)
    ham = eval_hamiltonian(V, W, x, p)
    assert lag == pytest.approx(1.5**2 + 0.5 + 0.25, abs=1e-12)
    assert ham == pytest.approx(9.0 / 4.0 - 0.5 - 0.25, abs=1e-12)
    # Fenchel-Young with equality at p = 2 xi
    assert lag + ham == pytest.approx(float(p @ xi), abs=1e-12)


def test_zero_set_measure():
    t = np.array([0.0, 1.0, 2.0, 3.0])
    nodes = np.array([[0.0], [0.0], [1.0], [0.0]])
    u = Trajectory(t, nodes)
    assert zero_set_measure(u) == pytest.approx(1.0)


@settings(max_examples=60, deadline=None)
@given(
    widths=st.lists(st.floats(0.05, 2.0), min_size=5, max_size=5),
    lam=st.floats(0.01, 10.0),
)
def test_discounted_zero_measure_is_the_exact_weight_of_the_zero_intervals(widths, lam):
    """The zero-atom term of discounted_action weighs the time spent at 0 with
    exp_interval_weights, bit for bit, like every other discount weight."""
    t = np.concatenate(([0.0], np.cumsum(widths)))
    u = Trajectory(t, np.array([[1.0], [0.0], [0.0], [-1.0], [0.0], [0.0]]))
    zero_edges = np.array([[t[1], t[2]], [t[4], t[5]]])
    assert _discounted_zero_measure(u, lam) == float(np.sum(exp_interval_weights(zero_edges, lam)))


def test_homogenized_action_of_affine_path():
    from homoglab import OptimizerSpec, tabulate_f_hom

    V = make_potential("zero", 1)
    f = tabulate_f_hom(V, np.linspace(-2, 2, 9),
                       opt=OptimizerSpec(seed=0, max_iters=200, restarts=1))
    u = line(0.0, 2.0, 0.0, 2.0)
    # slope 1 for 2 time units at f(1)=1
    assert homogenized_action(u, f) == pytest.approx(2.0, abs=1e-6)


def test_connector_endpoints_and_kinetic_bound(rng):
    W = dataclasses.replace(
        make_perturbation("runge_decay", 2, amplitude=1.0), integrability_exponent=2.0
    )
    for alpha in (0.6, 0.9):
        for r in (0.5, 2.0):
            direction = rng.normal(size=2)
            direction /= np.linalg.norm(direction)
            x0 = rng.normal(size=2)
            y0 = x0 + r * direction
            gamma = build_connector(x0, y0, alpha, W)
            np.testing.assert_allclose(gamma.nodes[0], x0, atol=1e-12)
            np.testing.assert_allclose(gamma.nodes[-1], y0, atol=1e-12)
            assert gamma.kinetic_integral() <= connector_kinetic_bound(alpha, r) * (1 + 1e-9)


def test_connector_rejects_bad_alpha():
    W = dataclasses.replace(
        make_perturbation("runge_decay", 2, amplitude=1.0), integrability_exponent=2.0
    )
    with pytest.raises(InputError):
        build_connector(np.zeros(2), np.ones(2), 0.4, W)
    with pytest.raises(InputError):
        build_connector(np.zeros(2), np.ones(2), 1.2, W)  # alpha >= p/d


def test_polar_bound_certifies():
    W = dataclasses.replace(
        make_perturbation("runge_decay", 2, amplitude=1.0), integrability_exponent=2.0
    )
    lhs, rhs = polar_bound_check(W, 0.6, 1.0)
    assert lhs <= rhs * (1.0 + POLAR_BOUND_TOL)


def test_polar_bound_rejects_out_of_range_alpha():
    W = dataclasses.replace(
        make_perturbation("constant", 2, value=1.0), integrability_exponent=2.0
    )
    with pytest.raises(InputError):
        polar_bound_check(W, 0.4, 1.0)  # alpha*d <= 1
    with pytest.raises(InputError):
        polar_bound_check(W, 1.1, 1.0)  # alpha*d >= p
