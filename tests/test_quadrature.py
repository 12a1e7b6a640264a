"""Midpoint quadrature helpers: sample layout, discount weights, fixed resolution."""

import inspect

import numpy as np
import pytest

import homoglab
from homoglab import InputError, QuadratureSpec, lp_unif_estimate, make_perturbation
from homoglab.potentials import _LP_BALL
from homoglab.quadrature import (
    ball_rule,
    exp_interval_weights,
    gauss_legendre,
    interval_samples,
    midpoint_offsets,
    midpoints,
    sphere_rule,
    sub_interval_edges,
)


def test_quadrature_spec_validation():
    with pytest.raises(InputError):
        QuadratureSpec(samples_per_interval=0)


def test_midpoints_layout():
    m = midpoints(0.0, 1.0, 4)
    np.testing.assert_allclose(m, [0.125, 0.375, 0.625, 0.875])
    off = midpoint_offsets(4)
    np.testing.assert_allclose(off, [0.125, 0.375, 0.625, 0.875])


def test_exp_interval_weights_sum_to_discount_mass():
    times = np.linspace(0.0, 5.0, 401)
    lam = 0.7
    w = exp_interval_weights(times, lam)
    assert w.shape == (400,)
    total = float(np.sum(w))
    assert total == pytest.approx((1.0 - np.exp(-lam * 5.0)) / lam, rel=1e-4)


def test_exp_interval_weights_take_edges_along_the_last_axis():
    rng = np.random.default_rng(3)
    edges = np.cumsum(rng.uniform(0.01, 0.5, size=(6, 9)), axis=1)
    w = exp_interval_weights(edges, 0.8)
    assert w.shape == (6, 8)
    for row, edge_row in zip(w, edges):
        assert np.array_equal(row, exp_interval_weights(edge_row, 0.8))


def test_sub_slice_weights_add_up_to_the_interval_weight():
    times = np.concatenate(([0.0], np.cumsum(np.random.default_rng(4).uniform(0.05, 0.7, 40))))
    lam = 0.6
    edges = sub_interval_edges(times, 4)
    assert edges.shape == (40, 5)
    assert np.array_equal(edges[:, 0], times[:-1]) and np.array_equal(edges[:, -1], times[1:])
    sub = exp_interval_weights(edges, lam)
    whole = exp_interval_weights(times, lam)
    np.testing.assert_allclose(np.sum(sub, axis=1), whole, rtol=1e-15, atol=0)


def test_interval_samples_batch_equals_per_path_calls():
    x = np.random.default_rng(5).normal(size=(3, 7, 2))
    batch = interval_samples(x, 4)
    assert batch.shape == (3, 6, 4, 2)
    for path, samples in zip(x, batch):
        assert np.array_equal(samples, interval_samples(path, 4))
    np.testing.assert_allclose(batch[:, :, 1], x[:, :-1] * 0.625 + x[:, 1:] * 0.375, rtol=1e-15)


def _midpoint_error(d):
    """Relative error bound of the ball and sphere rules at the lp resolutions.

    d = 1 and d = 2 are exact (a constant and a linear radial factor, equal
    angle weights). In d = 3 the polar angles give pi^3 / (48 n^2) against
    the integral 2 of sin, and the radial factor rho^2 h^2 / 4 against 1/3.
    """
    if d < 3:
        return 1e-14
    n_rho, n = _LP_BALL[3]
    return np.pi**3 / (48 * n**2) + 1.0 / (4 * n_rho**2)


@pytest.mark.parametrize(
    "d,sphere,ball", [(1, 2.0, 2.0), (2, 2 * np.pi, np.pi), (3, 4 * np.pi, 4 * np.pi / 3)]
)
def test_sphere_and_ball_rules_measure_the_unit_sphere_and_ball(d, sphere, ball):
    """Both rules, and lp_unif_estimate of W = 1 on its ball rule, within the
    midpoint error at the lp resolutions."""
    n_rho, n = _LP_BALL[d]
    pts, wts = sphere_rule(d, n)
    assert pts.shape == (wts.size, d)
    np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, rtol=1e-15)
    assert float(np.sum(wts)) == pytest.approx(sphere, rel=_midpoint_error(d))
    pts, wts = ball_rule(d, n_rho, n)
    assert pts.shape == (wts.size, d)
    assert np.all(np.linalg.norm(pts, axis=1) < 1.0)
    assert float(np.sum(wts)) == pytest.approx(ball, rel=_midpoint_error(d))
    W = make_perturbation("constant", d, value=1.0)
    assert lp_unif_estimate(W, np.zeros((2, d))) == pytest.approx(ball, rel=_midpoint_error(d))


@pytest.mark.parametrize("n", [1, 2, 5, 12, 24])
def test_gauss_legendre_integrates_every_polynomial_of_degree_below_2n(n):
    """Every monomial x^j, j < 2n, to 1e-14; ascending nodes, symmetric about
    0, and read-only arrays, built once."""
    nodes, weights = gauss_legendre(n)
    for j in range(2 * n):
        assert weights @ nodes**j == pytest.approx((1 + (-1) ** j) / (j + 1), abs=1e-14)
    assert np.all(np.diff(nodes) > 0) and np.all(weights > 0)
    np.testing.assert_allclose(nodes, -nodes[::-1], rtol=0, atol=1e-15)
    assert not nodes.flags.writeable and not weights.flags.writeable
    assert gauss_legendre(n)[0] is nodes


def test_sphere_rule_and_lp_estimate_reject_dimension_four():
    with pytest.raises(InputError):
        sphere_rule(4, 8)
    with pytest.raises(InputError):
        lp_unif_estimate(make_perturbation("constant", 4, value=1.0), np.zeros((1, 4)))


# The action layer: the discrete actions and the minimizers that certify against them.
ACTION_LAYER = {
    "action_F",
    "action_G",
    "discounted_action",
    "minimize_bvp",
    "minimize_bvp_batch",
    "minimize_lagrangian_bvp",
    "minimize_halfline",
}


def _parameters(obj):
    try:
        return inspect.signature(obj).parameters
    except (TypeError, ValueError):
        return {}


def test_only_the_action_layer_takes_a_quadrature():
    """Above the action layer the resolution is fixed: no public callable
    takes a `quad`, and the f_hom table takes no `method` (the dimension
    picks it)."""
    public = {name: getattr(homoglab, name) for name in homoglab.__all__}
    takes_quad = {name for name, obj in public.items() if callable(obj) and "quad" in _parameters(obj)}
    assert takes_quad == ACTION_LAYER
    for name in ACTION_LAYER:
        assert _parameters(public[name])["quad"].default == QuadratureSpec()
    assert "method" not in _parameters(homoglab.tabulate_f_hom)


def test_every_solve_window_is_0_to_t():
    """The Lagrangian does not depend on time, so every window is [0, t]: no
    public callable, and not Trajectory.affine, takes a t0 or a t1."""
    public = [getattr(homoglab, name) for name in homoglab.__all__]
    takes = {
        getattr(obj, "__qualname__", repr(obj))
        for obj in public + [homoglab.Trajectory.affine]
        if callable(obj) and {"t0", "t1"} & set(_parameters(obj))
    }
    assert takes == set()
