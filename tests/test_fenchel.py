"""Discrete Legendre transforms: closed forms, calculus rules, certification."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homoglab import (
    HomogenizedLagrangian,
    InputError,
    InvariantError,
    biconjugate_check,
    legendre_transform,
)


def quadratic_table(half_width=2.0, n=17, shift=0.0):
    axis = np.linspace(-half_width, half_width, n)
    return HomogenizedLagrangian((axis,), axis**2 + shift, f0=shift)


def test_conjugate_of_squared_speed_is_quarter_squared_momentum():
    f = quadratic_table()
    p = np.linspace(-4.0, 4.0, 33)
    conj = legendre_transform(f, p)
    step = 0.25  # slope-grid spacing
    exact = p * p / 4.0
    # discrete sup over the slope grid undershoots by at most step^2/4 per axis
    assert np.all(conj.values <= exact + 1e-12)
    assert np.max(np.abs(conj.values - exact)) <= step**2 / 2.0


def test_conjugate_shift_rule_exact():
    # a dyadic shift on the dyadic grid keeps every operation exact in floats,
    # so the shift rule holds bitwise
    f = quadratic_table()
    g = quadratic_table(shift=0.5)
    p = np.linspace(-4.0, 4.0, 33)
    cf = legendre_transform(f, p)
    cg = legendre_transform(g, p)
    np.testing.assert_array_equal(cg.values, cf.values - 0.5)


def test_conjugate_order_reversal_exact():
    f = quadratic_table()
    axis = f.axes[0]
    bigger = HomogenizedLagrangian((axis,), f.values + 0.3 + 0.1 * np.abs(axis), f0=0.3)
    p = np.linspace(-4.0, 4.0, 33)
    cf = legendre_transform(f, p)
    cb = legendre_transform(bigger, p)
    assert np.all(cb.values <= cf.values + 1e-12)


@st.composite
def random_tables(draw):
    """A random table on a uniform symmetric slope grid in d = 1 or 2, and a
    momentum grid inside its reliable hull."""
    d = draw(st.integers(1, 2))
    half = draw(st.floats(0.25, 4.0))
    axes = tuple(np.linspace(-half, half, draw(st.integers(2, 9))) for _ in range(d))
    size = int(np.prod([ax.size for ax in axes]))
    finite = st.floats(-10.0, 10.0, allow_nan=False)
    values = np.array(draw(st.lists(finite, min_size=size, max_size=size)))
    values = values.reshape(tuple(ax.size for ax in axes))
    p = (np.linspace(-2.0 * half, 2.0 * half, draw(st.integers(2, 17))),) * d
    return axes, values, p


@settings(max_examples=150, deadline=None)
@given(table=random_tables(), data=st.data())
def test_order_reversal_holds_exactly_on_random_tables(table, data):
    axes, values, p = table
    size = values.size
    bumps = data.draw(st.lists(st.floats(0.0, 5.0), min_size=size, max_size=size))
    f = HomogenizedLagrangian(axes, values, f0=0.0)
    g = HomogenizedLagrangian(axes, values + np.reshape(bumps, values.shape), f0=0.0)
    # f <= g entrywise, and every rounding step of the discrete sup is monotone
    assert np.all(legendre_transform(g, p).values <= legendre_transform(f, p).values)


@settings(max_examples=150, deadline=None)
@given(table=random_tables(), c=st.floats(-10.0, 10.0))
def test_shift_rule_holds_to_roundoff_on_random_tables(table, c):
    axes, values, p = table
    cf = legendre_transform(HomogenizedLagrangian(axes, values, f0=0.0), p).values
    cg = legendre_transform(HomogenizedLagrangian(axes, values + c, f0=c), p).values
    scale = 2.0 * np.max(np.abs(p[0])) * np.max(np.abs(axes[0])) * len(axes)
    scale += np.max(np.abs(values)) + abs(c)
    np.testing.assert_allclose(cg, cf - c, rtol=0.0, atol=8 * np.finfo(float).eps * scale)


def test_conjugate_rejects_momenta_outside_reliable_hull():
    f = quadratic_table()
    with pytest.raises(InputError):
        legendre_transform(f, np.linspace(-5.0, 5.0, 21))


def test_biconjugate_gap_zero_for_convex_table():
    f = quadratic_table()
    gap = biconjugate_check(f, np.linspace(-4.0, 4.0, 16001))
    assert gap < 1e-10


def test_biconjugate_detects_dent():
    axis = np.linspace(-1.0, 1.0, 5)
    dent = np.array([1.0, 0.8, 0.9, 0.8, 1.0])
    f = HomogenizedLagrangian((axis,), dent, f0=0.9)
    gap = biconjugate_check(f, np.linspace(-2.0, 2.0, 801))
    # the convexification drops the middle point to 0.8
    assert gap == pytest.approx(0.1, abs=1e-3)


def test_fenchel_young_defect_nonnegative_and_tight():
    f = quadratic_table()
    conj = legendre_transform(f, np.linspace(-4.0, 4.0, 33))
    defect = conj.fenchel_young_defect()
    assert defect >= -1e-12
    # the grids are aligned (p = 2 xi hits grid points), so equality is achieved
    assert defect < 1e-9


def test_conjugate_convexity_certified():
    f = quadratic_table()
    conj = legendre_transform(f, np.linspace(-4.0, 4.0, 33))
    count, worst = conj.convexity_violations()
    assert count == 0
    assert worst <= 0.0


def test_conjugate_json_roundtrip():
    f = quadratic_table()
    conj = legendre_transform(f, np.linspace(-4.0, 4.0, 17))
    payload = conj.to_json()
    assert isinstance(payload, str) and '"values"' in payload
