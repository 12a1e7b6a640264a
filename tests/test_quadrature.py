"""Midpoint quadrature helpers: sample layout, discount weights, fixed resolution."""

import inspect

import numpy as np
import pytest

import homoglab
from homoglab import InputError, QuadratureSpec
from homoglab.quadrature import exp_interval_weights, midpoint_offsets, midpoints


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
