"""Midpoint quadrature helpers: sample layout, discount weights."""

import numpy as np
import pytest

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
