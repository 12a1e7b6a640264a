"""The shared grid layer: axes check, ij mesh, and the table base of both tables."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import homoglab
from homoglab import ConjugateTable, ExtrapolationError, HomogenizedLagrangian, InputError
from homoglab.grid import (
    GridTable,
    axes_of,
    lower_convex_envelope,
    mesh,
    midpoint_convexity_report,
)

AXIS = np.linspace(-1.0, 1.0, 5)
SOURCE = HomogenizedLagrangian((AXIS,), AXIS**2, 0.0)

TABLES = {
    "lagrangian": lambda axes, values: HomogenizedLagrangian(axes, values, 0.0),
    "conjugate": lambda axes, values: ConjugateTable(axes, values, SOURCE),
}


@pytest.fixture(params=sorted(TABLES))
def make_table(request):
    return TABLES[request.param]


def test_table_rejects_bad_axes_and_reads_nodes_exactly(make_table):
    with pytest.raises(InputError):
        make_table((AXIS[::-1],), AXIS**2)
    with pytest.raises(InputError):
        make_table((np.array([0.0]),), np.array([1.0]))
    with pytest.raises(InputError):
        make_table((np.array([0.0, np.nan, 1.0]),), AXIS[:3])

    axes = (AXIS, np.array([0.0, 0.5, 2.0]))
    values = np.random.default_rng(0).normal(size=(5, 3))
    table = make_table(axes, values)
    np.testing.assert_array_equal(table.value(mesh(axes)), values.reshape(-1))
    assert table.value(np.array([0.5, 2.0])) == values[3, 2]

    batch = np.array([[0.0, 1.0], [1.5, 0.0], [0.0, -1.0]])
    with pytest.raises(ExtrapolationError) as info:
        table.value(batch)
    assert info.value.point == [1.5, 0.0]
    assert info.value.hull == [(-1.0, 1.0), (0.0, 2.0)]


_AXIS_POINTS = st.lists(
    st.floats(-10.0, 10.0, allow_nan=False), min_size=1, max_size=4, unique=True
).map(sorted)


@settings(max_examples=80, deadline=None)
@given(st.lists(_AXIS_POINTS, min_size=1, max_size=3), st.data())
def test_mesh_order_and_axes_check(raw_axes, data):
    axes = [np.array(points) for points in raw_axes]
    d = len(axes)
    expected = np.array(list(itertools.product(*axes))).reshape(-1, d)
    np.testing.assert_array_equal(mesh(axes), expected)
    for got, want in zip(axes_of(axes, d), axes):
        np.testing.assert_array_equal(got, want)
    for ax in axes:
        np.testing.assert_array_equal(axes_of(ax, 1)[0], axes_of((ax,), 1)[0])

    k = data.draw(st.integers(0, d - 1))
    broken = list(axes)
    broken[k] = np.append(axes[k], axes[k][0])  # repeats (size 1) or falls back
    with pytest.raises(InputError):
        axes_of(broken, d)


_TABLE_AXIS = st.lists(
    st.floats(-10.0, 10.0, allow_nan=False), min_size=2, max_size=5, unique=True
).map(lambda points: np.array(sorted(points)))


@settings(max_examples=150, deadline=None)
@given(st.lists(_TABLE_AXIS, min_size=1, max_size=3), st.integers(0, 2**32 - 1), st.data())
def test_table_lookup_is_scipys_linear_interpolator(axes, seed, data):
    """GridTable.value against scipy's RegularGridInterpolator (linear), at
    knots, both hull ends and points between: the same bits in d = 1 and
    d = 3; in d = 2, whose scipy kernel groups the weight products otherwise,
    within 8 eps max|values|. A NaN or out-of-hull point raises
    ExtrapolationError naming the first such point and the hull."""
    from scipy.interpolate import RegularGridInterpolator

    d = len(axes)
    rng = np.random.default_rng(seed)
    values = rng.normal(size=[ax.size for ax in axes]) * 10.0 ** rng.uniform(-3.0, 3.0)
    coordinate = [st.one_of(st.sampled_from(list(ax)), st.floats(ax[0], ax[-1])) for ax in axes]
    points = np.array(data.draw(st.lists(st.tuples(*coordinate), min_size=1, max_size=8)))
    table = GridTable(axes, values)
    got = table.value(points)
    want = RegularGridInterpolator(axes, values, method="linear")(points)
    if d == 2:
        assert np.max(np.abs(got - want)) <= 8 * np.finfo(float).eps * np.max(np.abs(values))
    else:
        assert np.array_equal(got, want)

    k = data.draw(st.integers(0, d - 1))
    bad = data.draw(st.sampled_from([np.nan, axes[k][0] - 1.0, axes[k][-1] + 0.5]))
    first, second = points[0].copy(), points[-1].copy()
    first[k] = bad
    second[k] = np.nan
    at = data.draw(st.integers(0, len(points)))
    batch = np.insert(points, at, [first, second], axis=0)
    with pytest.raises(ExtrapolationError) as info:
        table.value(batch)
    np.testing.assert_array_equal(info.value.point, first)
    assert info.value.hull == table.hull()


def test_tables_and_the_homogenized_field_need_no_scipy():
    """Building and querying both tables, and the homogenized HJ field on the
    Lagrangian one, import no scipy module."""
    code = (
        "import sys, numpy as np, homoglab as h\n"
        "xi = np.linspace(-2.0, 2.0, 9)\n"
        "f = h.HomogenizedLagrangian((xi,), xi**2, 0.0)\n"
        "f.value(np.linspace(-2.0, 2.0, 7))\n"
        "h.legendre_transform(f, np.linspace(-3.0, 3.0, 7)).value([0.5, -1.0])\n"
        "Phi = h.make_initial_datum('quadratic', 1, a=1.0)\n"
        "x, y = np.linspace(-0.5, 0.5, 5), np.linspace(-1.0, 1.0, 21)\n"
        "h.solve_evolutionary_hom(f, Phi, x, [0.5, 1.0], y)\n"
        "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(Path(homoglab.__file__).parents[1])},
    )
    assert out.stdout.strip() == "False"


def test_lower_convex_envelope_in_two_dimensions():
    """The d = 2 path (a Qhull lower hull): a dented table comes back at or
    below itself and midpoint convex; a strictly convex one comes back unchanged."""
    axes = (np.linspace(-1.0, 1.0, 5), np.linspace(-1.0, 1.0, 5))
    xx, yy = np.meshgrid(*axes, indexing="ij")
    convex = xx**2 + 0.5 * yy**2 + 0.25 * xx * yy
    dented = convex.copy()
    dented[1, 3] += 0.8
    dented[3, 2] += 0.5
    assert midpoint_convexity_report(axes, dented)[0] > 0

    env = lower_convex_envelope(axes, dented)
    assert env.shape == dented.shape
    assert np.all(env <= dented)
    assert env[1, 3] < dented[1, 3] - 0.5 and env[3, 2] < dented[3, 2] - 0.2
    assert midpoint_convexity_report(axes, env)[0] == 0

    np.testing.assert_allclose(lower_convex_envelope(axes, convex), convex, rtol=0, atol=1e-15)
