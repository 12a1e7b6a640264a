"""Trajectories, action functionals, connectors, and the polar bound."""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from homoglab import (
    GeneralLagrangian,
    InputError,
    InvariantError,
    Perturbation,
    QuadratureSpec,
    Trajectory,
    action_F,
    action_G,
    build_connector,
    connector_kinetic_bound,
    discounted_action,
    make_perturbation,
    make_potential,
    polar_bound_check,
)
from homoglab.potentials import _householder_frame
from homoglab.trajectory import (
    POLAR_BOUND_TOL, _cap_directions, _graded_side, potential_term
)


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
    lag = GeneralLagrangian(V, W).evaluator(np.array([0.25]), np.array([1.5]))
    assert lag == pytest.approx(1.5**2 + 0.5 + 0.25, abs=1e-12)


_ATOM = make_perturbation("neg_spike", 1, depth=0.75, width=0.0)  # W = -0.75 on {x = 0}
# Paths at rest at 0 on [1, 2]: one leaves again, the other ends there.
_LEAVES = Trajectory(np.array([0.0, 1.0, 2.0, 3.0]), np.array([[1.0], [0.0], [0.0], [2.0]]))
_ENDS = Trajectory(np.array([0.0, 1.0, 2.0]), np.array([[1.0], [0.0], [0.0]]))


@pytest.mark.parametrize("eps", [1.0, 0.1])
def test_action_G_charges_the_zero_atom_for_the_time_at_0(eps):
    """The time at 0 is charged only by the DP oracles: pointwise samples
    never see an atom, so action_G refuses one and names them."""
    V = make_potential("zero", 1)
    for u in (_LEAVES, _ENDS):
        with pytest.raises(InputError, match="zero atom; use dp_oracle_1d, dp_oracle_halfline"):
            action_G(u, V, _ATOM, eps)


@pytest.mark.parametrize("eps", [1.0, 0.1])
def test_discounted_action_charges_the_zero_atom_for_the_discounted_time_at_0(eps):
    """As for action_G: the discounted time at 0 is charged only by the DP
    oracles, so discounted_action refuses a zero atom and names them."""
    V = make_potential("zero", 1)
    for u in (_LEAVES, _ENDS):
        with pytest.raises(InputError, match="zero atom; use dp_oracle_1d, dp_oracle_halfline"):
            discounted_action(u, V, _ATOM, eps, 1.0)


def test_connector_endpoints_and_kinetic_bound(rng):
    # p = 2, so alpha < p/d: up to 1 in d = 2, up to 2/3 in d = 3
    for d, alpha in ((2, 0.6), (2, 0.9), (3, 0.6)):
        W = dataclasses.replace(
            make_perturbation("runge_decay", d, amplitude=1.0), integrability_exponent=2.0
        )
        for r in (0.5, 2.0):
            direction = rng.normal(size=d)
            direction /= np.linalg.norm(direction)
            x0 = rng.normal(size=d)
            y0 = x0 + r * direction
            gamma = build_connector(x0, y0, alpha, W)
            np.testing.assert_allclose(gamma.nodes[0], x0, atol=1e-12)
            np.testing.assert_allclose(gamma.nodes[-1], y0, atol=1e-12)
            assert gamma.kinetic_integral() <= connector_kinetic_bound(alpha, r) * (1 + 1e-9)


def _connector_one_direction_at_a_time(x0, y0, alpha, W):
    """build_connector with its cap directions scored in a loop, the first
    strictly least W integral kept: the reference for the stacked pass."""
    d = x0.shape[0]
    r = float(np.linalg.norm(x0 - y0))
    frame = _householder_frame((x0 - y0) / r)
    mid = 0.5 * (x0 + y0)
    half = r ** (1.0 / alpha)
    side = _graded_side(half)
    times = np.unique(np.concatenate((-half + side, [0.0], (half - side[::-1])[1:])))
    m = QuadratureSpec().samples_per_interval
    best = None
    for idx, theta in enumerate(_cap_directions(d)):
        t_theta = -1.0 / (2.0 * theta[0])
        theta_hat = theta.copy()
        theta_hat[0] = -theta[0]
        nodes_loc = np.empty((times.size, d))
        left = times <= 0.0
        prof_l = np.abs(times[left] + half) ** alpha
        nodes_loc[left] = (r / 2.0) * np.eye(d)[0] + prof_l[:, None] * (t_theta * theta)[None, :]
        prof_r = np.abs(half - times[~left]) ** alpha
        nodes_loc[~left] = (
            -(r / 2.0) * np.eye(d)[0] + prof_r[:, None] * (t_theta * theta_hat)[None, :]
        )
        nodes = mid[None, :] + nodes_loc @ frame.T
        nodes[0] = x0
        nodes[-1] = y0
        w_val = potential_term(times, nodes, W.evaluator, 1.0, m)
        if best is None or w_val < best[0]:
            best = (w_val, idx, nodes, theta)
    w_val, idx, nodes, theta = best
    traj = Trajectory(times, nodes)
    meta = {
        "alpha": alpha,
        "r": r,
        "theta_local": theta.tolist(),
        "theta_index": idx,
        "w_integral": w_val,
        "kinetic_integral": traj.kinetic_integral(),
        "kinetic_bound": connector_kinetic_bound(alpha, r),
    }
    return times, nodes, meta


def _connector_w(name, d):
    if name == "exp_x2":
        return Perturbation(
            d, lambda x: np.exp(x[..., 1]), "nonnegative", integrability_exponent=2.0
        )
    return make_perturbation(name, d)


@settings(max_examples=150, deadline=None)
@given(
    d=st.sampled_from([2, 3]),
    w_name=st.sampled_from(["runge_decay", "indicator_ball", "exp_x2"]),
    scale=st.sampled_from([1e-3, 1.0, 30.0]),
    data=st.data(),
)
def test_the_stacked_connector_is_the_per_direction_loop_bit_for_bit(d, w_name, scale, data):
    """All 32 cap directions scored as one stack give the loop's connector,
    bit for bit: times, nodes and meta. indicator_ball ties many directions
    at 0 (the curves miss the ball), so the first least one must win."""
    W = _connector_w(w_name, d)
    p_over_d = W.integrability_exponent / d
    alpha = data.draw(st.floats(0.5, p_over_d, exclude_min=True, exclude_max=True))
    point = st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)
    x0 = scale * np.array(data.draw(point))
    y0 = scale * np.array(data.draw(point))
    assume(np.linalg.norm(x0 - y0) > 0.0)
    times, nodes, meta = _connector_one_direction_at_a_time(x0, y0, alpha, W)
    gamma = build_connector(x0, y0, alpha, W)
    np.testing.assert_array_equal(gamma.times, times)
    np.testing.assert_array_equal(gamma.nodes, nodes)
    assert gamma.meta == meta


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
