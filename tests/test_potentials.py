"""Registry potentials and perturbations: shapes, bounds, averages, geometry."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homoglab import (
    ConfigError,
    InputError,
    Perturbation,
    SolverError,
    cylinder_average,
    line_average,
    lp_unif_estimate,
    make_perturbation,
    make_potential,
    parabola_free_region,
    potentials,
)
from homoglab.grid import mesh
from homoglab.potentials import (
    PERTURBATION_BUILDERS,
    POTENTIAL_BUILDERS,
    _chord_cells,
    _householder_frame,
)
from homoglab.quadrature import midpoints

SMOOTH_REGISTRY = [
    ("potential", n) for n in ("zero", "constant", "sin2", "cos_sum", "sin2_coupled")
] + [
    ("perturbation", n) for n in ("zero", "constant", "runge_decay")
]


def _fd_gradient(evaluator, pts: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient: the reference for the closed forms."""
    grad = np.empty_like(pts)
    for axis in range(pts.shape[-1]):
        plus = pts.copy()
        minus = pts.copy()
        plus[..., axis] += h
        minus[..., axis] -= h
        grad[..., axis] = (evaluator(plus) - evaluator(minus)) / (2 * h)
    return grad


def _fd_hessian(gradient, pts: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Symmetrized central difference of a gradient: the reference for the closed forms."""
    hess = np.empty(pts.shape + (pts.shape[-1],))
    for axis in range(pts.shape[-1]):
        plus = pts.copy()
        minus = pts.copy()
        plus[..., axis] += h
        minus[..., axis] -= h
        hess[..., :, axis] = (gradient(plus) - gradient(minus)) / (2 * h)
    return 0.5 * (hess + np.swapaxes(hess, -1, -2))


def _registry_object(kind, name, dimension):
    make = make_potential if kind == "potential" else make_perturbation
    return make(name, dimension)


def test_registry_contains_expected_names():
    assert {"zero", "constant", "sin2", "cos_sum"} <= set(POTENTIAL_BUILDERS)
    assert {
        "zero",
        "constant",
        "runge_decay",
        "indicator_ball",
        "neg_spike",
        "parabola_example",
    } <= set(PERTURBATION_BUILDERS)


def test_unknown_names_raise_config_error():
    with pytest.raises(ConfigError):
        make_potential("not_a_potential", 1)
    with pytest.raises(ConfigError):
        make_perturbation("not_a_perturbation", 1)
    with pytest.raises(ConfigError):
        make_perturbation("runge_decay", 1, bogus_param=3)


@pytest.mark.parametrize("name", sorted(POTENTIAL_BUILDERS))
@pytest.mark.parametrize("dimension", [1, 2])
def test_potentials_are_periodic_and_bounded(name, dimension):
    V = make_potential(name, dimension)
    rng = np.random.default_rng(0)
    pts = rng.uniform(-3, 3, size=(64, dimension))
    vals = V.evaluator(pts)
    assert vals.shape == (64,)
    assert np.all(vals >= V.v_min - 1e-12)
    assert np.all(vals <= V.v_max + 1e-12)
    shifted = V.evaluator(pts + np.eye(dimension)[0])
    np.testing.assert_allclose(shifted, vals, atol=1e-10)


def test_sin2_values_1d():
    V = make_potential("sin2", 1)
    x = np.array([[0.0], [0.25], [0.5]])
    np.testing.assert_allclose(V.evaluator(x), [0.0, 0.5, 1.0], atol=1e-12)
    assert V.v_min == 0.0 and V.v_max == 1.0


@pytest.mark.parametrize("name", sorted(POTENTIAL_BUILDERS))
@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_axis_factor_sums_to_the_potential(name, dimension):
    V = make_potential(name, dimension)
    if name == "sin2_coupled" and dimension > 1:
        assert V.factor is None
        return
    pts = np.random.default_rng(1).uniform(-3, 3, size=(64, dimension))
    np.testing.assert_array_equal(np.sum(V.factor(pts), axis=-1), V.evaluator(pts))
    assert dataclasses.replace(V, name="copy").factor is V.factor


def test_sin2_coupled_values_and_bounds():
    V = make_potential("sin2_coupled", 3)
    x = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.25], [1.0, 2.0, -1.0]])
    want = [0.0, 1.0 + 0.5 + 0.5 * (1.0 + 0.5), 0.0]
    np.testing.assert_allclose(V.evaluator(x), want, atol=1e-12)
    assert (V.v_min, V.v_max) == (0.0, 4.0)
    one_d = make_potential("sin2_coupled", 1)
    sin2 = make_potential("sin2", 1)
    np.testing.assert_array_equal(one_d.evaluator(x[:, :1]), sin2.evaluator(x[:, :1]))
    with pytest.raises(ConfigError):
        make_potential("sin2_coupled", 2, c=0.25)


def test_perturbation_bounds_combine_pointwise_part_and_atom():
    tent = make_perturbation("neg_spike", 1, depth=1.0, width=0.5)
    assert tent.sign_class == "nonpositive"
    assert tent.upper_bound() == 0.0
    assert tent.lower_bound() == -1.0

    atom = make_perturbation("neg_spike", 1, depth=1.0, width=0.0)
    assert atom.zero_atom == -1.0
    assert atom.support_radius == 0.0
    # the pointwise part vanishes; the atom alone sets the lower bound
    assert atom.sup_bound == 0.0
    assert atom.lower_bound() == -1.0
    assert atom.upper_bound() == 0.0
    # pointwise evaluation never sees the atom
    assert float(atom.evaluator(np.array([[0.0]]))[0]) == 0.0


def test_runge_decay_profile():
    W = make_perturbation("runge_decay", 1, amplitude=2.0)
    assert W.sign_class == "nonnegative"
    assert float(W.evaluator(np.array([[0.0]]))[0]) == 2.0
    assert float(W.evaluator(np.array([[3.0]]))[0]) == pytest.approx(0.2)
    assert W.upper_bound() == 2.0 and W.lower_bound() == 0.0


def test_indicator_ball_support():
    W = make_perturbation("indicator_ball", 2, amplitude=1.0, radius=0.5)
    inside = np.array([[0.1, 0.2]])
    outside = np.array([[0.6, 0.0]])
    assert float(W.evaluator(inside)[0]) == 1.0
    assert float(W.evaluator(outside)[0]) == 0.0
    assert W.support_radius == 0.5


def test_line_average_decays_for_integrable_bump():
    W = make_perturbation("runge_decay", 1, amplitude=1.0)
    a64 = line_average(W, 64.0)
    a512 = line_average(W, 512.0)
    assert a512 < a64
    # the window is [-R, R] scaled by 1/R; total mass of 1/(1+y^2) is pi
    assert a512 * 512.0 == pytest.approx(np.pi, rel=0.05)


def test_line_average_constant_is_flat():
    W = make_perturbation("constant", 1, value=0.7)
    assert line_average(W, 64.0) == pytest.approx(1.4, rel=1e-6)
    assert line_average(W, 512.0) == pytest.approx(1.4, rel=1e-6)


def test_cylinder_average_constant_closed_form():
    W = make_perturbation("constant", 2, value=1.0)
    # two-sided chord tube of half-width r: area 4*r*R up to the chord correction
    for r in (0.5, 1.0):
        avg = cylinder_average(W, [1.0, 0.0], r, 512.0)
        assert avg == pytest.approx(4.0 * r, rel=1e-3)


def test_cylinder_average_rejects_bad_inputs():
    W = make_perturbation("constant", 2, value=1.0)
    with pytest.raises(InputError):
        cylinder_average(W, [0.0, 0.0], 1.0, 64.0)
    with pytest.raises(InputError):
        cylinder_average(W, [1.0, 0.0], 2.0, 1.0)
    W1 = make_perturbation("constant", 1, value=1.0)
    with pytest.raises(InputError):
        cylinder_average(W1, [1.0], 0.5, 64.0)
    # a non-finite entry, or a norm that overflows, is refused before the
    # parabola's closed form or any sampling
    for name in ("parabola_example", "runge_decay"):
        for xi in ([np.nan, 1.0], [np.inf, 0.0], [1e308, 1e308]):
            with pytest.raises(InputError, match="finite norm"):
                cylinder_average(make_perturbation(name, 2), xi, 0.5, 64.0)


def _reference_cylinder_average(W, xi, r, R, n_cross=16, n_axis=None):
    """cylinder_average's sampled rule by the plain per-chord loop, each
    chord's points built afresh; finer with more cells across (n_cross per
    axis) or along (n_axis per chord, _chord_cells(R) by default)."""
    axis = np.asarray(xi, dtype=float) / np.linalg.norm(xi)
    basis = _householder_frame(axis)[:, 1:]
    n_axis = n_axis or _chord_cells(R)
    offsets = mesh([midpoints(-r, r, n_cross)] * (W.dimension - 1))
    offsets = offsets[np.sum(offsets * offsets, axis=-1) < r * r]
    cell = (2 * r / n_cross) ** (W.dimension - 1)
    total = 0.0
    rel = midpoints(-1.0, 1.0, n_axis)
    for z in offsets:
        half_chord = np.sqrt(max(R * R - float(z @ z), 0.0))
        if half_chord == 0.0:
            continue
        t = rel * half_chord
        pts = t[:, None] * axis[None, :] + (basis @ z)[None, :]
        total += float(np.sum(W.evaluator(pts))) * (2 * half_chord / n_axis) * cell
    return total / R


# The tube directions of the benchmark's lattice workload (bench/workloads.py);
# the last one is (cos 1, sin 1).
WORKLOAD_DIRECTIONS = [
    [0.0, 1.0],
    [0.0, -1.0],
    [0.7071067811865476, 0.7071067811865476],
    [-0.7071067811865476, 0.7071067811865476],
    [0.5403023058681398, 0.8414709848078965],
]


@pytest.mark.parametrize("R", [64.0, 1024.0, 4096.0])
@pytest.mark.parametrize(
    "name, d", [("parabola_example", 2), ("runge_decay", 2), ("constant", 2), ("runge_decay", 3)]
)
def test_cylinder_average_is_the_per_chord_loop_bit_for_bit(name, d, R):
    """The sampled rule, one W call per chord of 512 to 32768 points. A 0/1 W
    hides the order of a sum; the continuous runge_decay, whose last bits
    depend on it, is the case that checks it. The parabola goes without its
    closed form, so it is sampled."""
    W = dataclasses.replace(make_perturbation(name, d), tube_average=None)
    for xi in ([-1.0, 0.0], WORKLOAD_DIRECTIONS[0], WORKLOAD_DIRECTIONS[-1]):
        xi = xi + [0.0] * (d - 2)
        assert cylinder_average(W, xi, 0.5, R) == _reference_cylinder_average(W, xi, 0.5, R)


def test_lp_unif_estimate_constant():
    W = make_perturbation("constant", 2, value=1.0)
    centers = [np.zeros(2)]
    # unit-ball mass of W^2 is the ball area
    assert lp_unif_estimate(W, centers) == pytest.approx(np.pi, rel=1e-2)


def test_parabola_free_region_geometry():
    # a level-2 channel opens along the vertical axis at large radius
    far_on_axis = np.array([[0.0, 300.0]])
    assert parabola_free_region(far_on_axis)[0]
    # generic non-dyadic direction stays outside every channel
    theta = 1.0
    far_generic = 300.0 * np.array([[np.cos(theta), np.sin(theta)]])
    assert not parabola_free_region(far_generic)[0]
    # the indicator perturbation is the complement of the free region
    W = make_perturbation("parabola_example", 2)
    assert float(W.evaluator(far_on_axis)[0]) == 0.0
    assert float(W.evaluator(far_generic)[0]) == 1.0
    assert W.sign_class == "nonnegative"


def _reference_free_region(x):
    """parabola_free_region by the plain loop: every point at every level 2^k <= max radius."""
    pts = np.asarray(x, dtype=float)
    rho = np.hypot(pts[..., 0], pts[..., 1])
    theta = np.mod(np.arctan2(pts[..., 1], pts[..., 0]), 2 * np.pi)
    free = np.zeros(rho.shape, dtype=bool)
    rho_max = float(np.max(rho)) if rho.size else 0.0
    k = 2
    while 2.0**k <= rho_max:
        base = 2 * np.pi / 2.0**k
        h_near = 2.0 * np.round((theta / base - 1.0) / 2.0) + 1.0
        gap = np.abs(theta - base * h_near)
        gap = np.minimum(gap, 2 * np.pi - gap)
        inside_radius = rho >= 2.0**k
        c_k = 4.0 ** (-k) * 2.0 ** (k / 2.0)
        with np.errstate(invalid="ignore"):
            width = np.minimum(4.0 ** (-k), c_k / np.sqrt(np.maximum(rho - 2.0**k, 0.0) + 1.0))
        free |= inside_radius & (gap <= width)
        k += 1
    return free


def _polar(rho, angle):
    return np.stack([rho * np.cos(angle), rho * np.sin(angle)], axis=-1)


@st.composite
def _tongue_probes(draw):
    """Points at a level's tongue center, window edge or width, a few ulp either side,
    at radii at, just below, just above and past 2^k."""
    k = draw(st.integers(2, 18))
    h = 2 * draw(st.integers(0, 2 ** (k - 1) - 1)) + 1
    pow2 = 2.0**k
    rho = draw(
        st.sampled_from([np.nextafter(pow2, 0.0), pow2, np.nextafter(pow2, np.inf)])
        | st.floats(pow2, 4 * pow2)
    )
    width = min(4.0 ** (-k), 4.0 ** (-k) * 2.0 ** (k / 2.0) / np.sqrt(max(rho - pow2, 0.0) + 1.0))
    offset = draw(st.sampled_from([0.0, 4.0 ** (-k), width])) * draw(st.sampled_from([-1.0, 1.0]))
    angle = 2 * np.pi / pow2 * h + offset
    ulps = np.arange(-4, 5) * np.spacing(angle)
    return _polar(rho, angle + ulps)


@st.composite
def _parabola_batches(draw):
    parts = [np.zeros((0, 2))]
    for _ in range(draw(st.integers(0, 3))):
        parts.append(draw(_tongue_probes()))
    n_uniform = draw(st.integers(0, 30))
    if n_uniform:  # uniform in the disc of radius 2^14, mixed with small scales
        radius = draw(st.lists(st.floats(0.0, 2.0**14), min_size=n_uniform, max_size=n_uniform))
        scale = draw(st.lists(st.sampled_from([1e-3, 1.0, 1.0]), min_size=n_uniform, max_size=n_uniform))
        angle = draw(st.lists(st.floats(-np.pi, 2 * np.pi), min_size=n_uniform, max_size=n_uniform))
        parts.append(_polar(np.sqrt(np.asarray(radius) * 2.0**14) * scale, np.asarray(angle)))
    batch = np.concatenate(parts)
    order = draw(st.permutations(range(batch.shape[0])))
    batch = batch[list(order)]
    shape = draw(st.sampled_from([(-1, 2), (1, -1, 2), (-1, 1, 2)]))
    return batch.reshape(shape)


@st.composite
def _chord_batches(draw):
    """Points along one chord, as cylinder_average lays them out. The chord
    crosses radius rho at an angle a (a tongue center, a 4^-k window end give
    or take a few ulps, a generic angle, or pi), heading out from the origin,
    across, along (0, 1), along (-1, 0) or generically. So a call's angles
    span one window, none, a window end, or (through the origin, or across
    the negative x axis where arctan2 jumps from pi to -pi) most of the
    circle."""
    k = draw(st.integers(2, 18))
    center = 2 * np.pi / 2.0**k * (2 * draw(st.integers(0, 2 ** (k - 1) - 1)) + 1)
    half = 4.0 ** (-k)
    a = draw(st.sampled_from([center, center - half, center + half, 1.0, np.pi]))
    a += draw(st.integers(-3, 3)) * np.spacing(a)
    heading = draw(st.sampled_from([a, a + np.pi / 2, np.pi / 2, np.pi, 1.0]))
    rho = draw(st.floats(4.0, 2.0**14) | st.sampled_from([1.5 * 2.0**17, 2.0**19]))
    reach = draw(st.sampled_from([1e-3, 1.0, rho]))
    t = np.linspace(-reach, reach, draw(st.integers(1, 300)))
    cross = rho * np.array([np.cos(a), np.sin(a)])
    return cross + t[:, None] * np.array([np.cos(heading), np.sin(heading)])


@settings(max_examples=200, deadline=None)
@given(_chord_batches())
def test_parabola_free_region_on_chords_equals_the_per_level_loop(pts):
    assert (parabola_free_region(pts) == _reference_free_region(pts)).all()


def test_parabola_free_region_on_the_workload_tubes_equals_the_per_level_loop():
    """Every array that the sampled rule hands to the parabola W for the
    lattice workload's tubes (five directions, R = 64 to 4096, r = 0.5): 3.5M
    points, one call per chord."""
    W = make_perturbation("parabola_example", 2)
    seen = []

    def checked(x):
        got = parabola_free_region(x)
        assert (got == _reference_free_region(x)).all()
        seen.append(x.shape[0])
        return np.where(got, 0.0, 1.0)

    for xi in WORKLOAD_DIRECTIONS:
        direction = np.asarray(xi) / np.linalg.norm(xi)  # as the conditions runner passes it
        for R in (64.0, 256.0, 1024.0, 4096.0):
            sampled = dataclasses.replace(W, evaluator=checked, tube_average=None)
            cylinder_average(sampled, direction, 0.5, R)
    assert len(seen) == 5 * 4 * 16 and sum(seen) == 5 * 16 * (512 + 2048 + 8192 + 32768)


def test_parabola_free_region_on_long_lines_equals_the_per_level_loop():
    """2341 points on each of two lines through the origin out to radius
    3000, one generic and one beside a level-2 tongue's axis."""
    t = np.linspace(-3000.0, 3000.0, 9 * 256 + 37)[:, None]
    pts = np.concatenate([t * [np.cos(1.0), np.sin(1.0)], t * [0.0, 1.0] + [0.25, 0.0]])
    assert (parabola_free_region(pts) == _reference_free_region(pts)).all()


def test_points_between_two_tongue_centers_are_free_only_at_the_centers():
    """256 points at radius 2^9 from one level-8 tongue center to the next:
    only the two end points lie in a tongue."""
    pts = _polar(np.full(256, 512.0), 2 * np.pi / 256 * np.linspace(1.0, 3.0, 256))
    want = _reference_free_region(pts)
    assert np.flatnonzero(want).tolist() == [0, 255]
    assert (parabola_free_region(pts) == want).all()


@st.composite
def _ulp_runs(draw):
    """A run of 256 points whose angles or radii go in ulp steps away from a
    tongue width, a 4^-k window edge or the radius 2^k. The run starts a few ulps
    inside or outside that boundary, or crosses it further in, so its least or
    greatest angle or radius sits on the boundary of the per-point test.

    Half of the centers are ones whose float c does not divide back to h by
    2*pi/2^k, so the nearest-center step rounds there."""
    k = draw(st.integers(2, 18))
    pow2 = 2.0**k
    base = 2 * np.pi / pow2
    odd = np.arange(1.0, pow2, 2.0)
    fragile = odd[base * odd / base != odd]
    if fragile.size and draw(st.booleans()):
        h = fragile[draw(st.integers(0, fragile.size - 1))]
    else:
        h = odd[draw(st.integers(0, odd.size - 1))]
    center = base * h
    outward = draw(st.sampled_from([-1.0, 1.0]))
    steps = outward * (np.arange(256) - draw(st.integers(-3, 3) | st.integers(4, 259)))
    if draw(st.booleans()):  # away from an angle, at radii near one rho
        rho = draw(
            st.sampled_from([pow2, np.nextafter(pow2, np.inf)]) | st.floats(pow2, 4 * pow2)
        )
        width = min(4.0**-k, 4.0**-k * 2.0 ** (k / 2.0) / np.sqrt(max(rho - pow2, 0.0) + 1.0))
        edge = center + outward * draw(st.sampled_from([width, 4.0**-k]))
        angles = edge + steps * np.spacing(edge)
        spread = draw(st.sampled_from([0.0, 3.0, 1e6]))
        radii = rho + (np.arange(256) % 7 - 3) * spread * np.spacing(rho)
    else:  # away from the radius 2^k, inside or at the edge of a tongue
        angles = center + draw(st.sampled_from([0.0, 0.5, 1.0])) * 4.0**-k
        radii = pow2 + steps * np.spacing(pow2)
    return _polar(radii, angles)


@settings(max_examples=200, deadline=None)
@given(st.lists(_ulp_runs(), min_size=1, max_size=6), st.integers(0, 40))
def test_parabola_free_region_on_ulp_runs_at_a_boundary_equals_the_per_level_loop(runs, tail):
    """Runs of points on a boundary get the per-level loop's mask, bit for bit."""
    pts = np.concatenate(runs + [runs[0][:tail]])
    assert (parabola_free_region(pts) == _reference_free_region(pts)).all()


@settings(max_examples=200, deadline=None)
@given(_parabola_batches())
def test_parabola_free_region_equals_the_per_level_loop(pts):
    got = parabola_free_region(pts)
    want = _reference_free_region(pts)
    assert got.dtype == bool and got.shape == want.shape == pts.shape[:-1]
    assert (got == want).all()


@settings(max_examples=60, deadline=None)
@given(_parabola_batches())
def test_parabola_free_region_is_pointwise(pts):
    flat = pts.reshape(-1, 2)
    together = parabola_free_region(flat)
    alone = [parabola_free_region(flat[i : i + 1])[0] for i in range(flat.shape[0])]
    assert together.tolist() == alone


@pytest.mark.parametrize("shape", [(0, 2), (3, 0, 2)])
def test_parabola_free_region_empty(shape):
    assert parabola_free_region(np.zeros(shape)).shape == shape[:-1]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_parabola_rejects_non_finite_points(bad):
    W = make_perturbation("parabola_example", 2)
    finite = np.array([[0.0, 5.0], [0.0, -40.0]])
    assert W.evaluator(finite).tolist() == [0.0, 0.0]
    with pytest.raises(InputError, match=r"\[(nan|-?inf), 0\.0\]"):
        W.evaluator(np.vstack([finite, [[bad, 0.0]], [[1.0, bad]]]))


def test_parabola_rejects_radii_above_2_to_the_40():
    """Past radius 2^40 the float64 angle test is not trusted, so such points raise."""
    edge = np.array([[0.0, 2.0**40], [0.0, -(2.0**40)], [2.0**39, 2.0**39]])
    assert parabola_free_region(edge).tolist() == [True, True, True]
    far = 2.0**41 * np.array([[np.cos(1.0), np.sin(1.0)]])
    with pytest.raises(InputError, match="2\\^40"):
        parabola_free_region(np.vstack([edge, far]))
    with pytest.raises(InputError):
        make_perturbation("parabola_example", 2).evaluator(np.array([[0.0, 2.0**41]]))


# -- the parabola's exact tube average ----------------------------------------------------------


def _unit(angle):
    return [float(np.cos(angle)), float(np.sin(angle))]


# (direction, r, R) of the tubes that the workload, the shipped config and the
# tests average, and dyadic rays 2*pi*h/2^k at levels 2-6 up to the refusal radius.
_TUBES = (
    [(np.asarray(xi) / np.linalg.norm(xi), 0.5, R)
     for xi in WORKLOAD_DIRECTIONS for R in (64.0, 256.0, 1024.0, 4096.0)]
    + [(xi, 0.5, R) for xi in ([1.0, 0.0], [0.0, 1.0]) for R in (4.0, 16.0)]
    + [([0.0, 1.0], 1.0, R) for R in (64.0, 256.0)]
    + [(_unit(2 * np.pi * h / 2.0**k), 0.5, 2.0**e)
       for k in range(2, 7) for h in (1, 2**k - 3) for e in (8, 12, 16, 20, 24)]
)


def test_the_exact_tube_average_agrees_with_its_doubled_rule(monkeypatch):
    """Every tube within 1e-12 relative of 24 Gauss-Legendre nodes per panel."""
    W = make_perturbation("parabola_example", 2)
    values = [cylinder_average(W, xi, r, R) for xi, r, R in _TUBES]
    monkeypatch.setattr(potentials, "_TUBE_NODES", 24)
    for (xi, r, R), value in zip(_TUBES, values):
        assert cylinder_average(W, xi, r, R) == pytest.approx(value, rel=1e-12, abs=0.0), (xi, r, R)


def test_the_exact_tube_average_reproduces_the_polar_table():
    W = make_perturbation("parabola_example", 2)
    table = [([0.0, 1.0], 64.0, 0.16460505), ([0.0, 1.0], 4096.0, 0.00257195),
             (_unit(np.pi / 4), 64.0, 0.98801728), (_unit(1.0), 4096.0, 1.99624349),
             (_unit(np.pi / 4), 4096.0, 0.01874125)]
    for xi, R, want in table:
        assert cylinder_average(W, xi, 0.5, R) == pytest.approx(want, abs=5e-9)


@pytest.mark.parametrize(
    "angle", [np.pi / 2, np.pi / 4, 3 * np.pi / 8, 2 * np.pi * 5 / 32, 1.0, -2.0]
)
def test_the_covered_measure_is_the_free_share_of_each_arc(angle):
    """c(rho) against the share of 4096 angle midpoints of each arc that
    parabola_free_region marks free, at radii just below and above each 2^k,
    at each 2^(k+1) - 1 and at every other panel edge (the crossings). On
    2^k itself the points' rounded radii fall on either side. The midpoints
    miss at most 1/4096 of the arc at each edge they cross."""
    r, R = 0.5, 2.0**16
    tongues = potentials._arc_tongues(angle, r, R)
    edges = potentials._tube_panels(tongues, r, 4.0, R)
    powers = 2.0 ** np.arange(2, 16)
    radii = np.concatenate([powers * (1 - 1e-9), powers * (1 + 1e-9), 2 * powers - 1, edges])
    radii = radii[(radii >= 4.0) & ~np.isin(radii, 2.0 ** np.arange(2, 17))]
    alpha = np.arcsin(r / radii)
    covered = potentials._covered(radii, alpha, tongues)
    share = midpoints(-1.0, 1.0, 4096)
    for rho, a, c in zip(radii, alpha, covered):
        for center in (angle, angle + np.pi):
            free = parabola_free_region(_polar(rho, center + a * share))
            assert abs(2 * a * free.mean() - c) <= 2 * a * (2 * tongues.shape[1] + 1) / 4096
    assert covered.max() > 0 or tongues.shape[1] == 0


def test_the_sampled_rule_is_within_its_first_order_error_of_the_exact_value():
    """The sampled rule (16 transverse cells, 4 cells per unit length) is
    within 0.5% of the exact value on the workload tubes, and the same rule
    with 4 and 16 times as many cells both across and along closes in on it
    at R = 64."""
    W = make_perturbation("parabola_example", 2)
    sampled = dataclasses.replace(W, tube_average=None)
    for xi in WORKLOAD_DIRECTIONS:
        for R in (64.0, 256.0, 1024.0, 4096.0):
            exact = cylinder_average(W, xi, 0.5, R)
            assert cylinder_average(sampled, xi, 0.5, R) == pytest.approx(exact, rel=5e-3)
    for xi in ([0.0, 1.0], _unit(3 * np.pi / 8)):
        exact = cylinder_average(W, xi, 0.5, 64.0)
        errors = [abs(_reference_cylinder_average(W, xi, 0.5, 64.0, n, 128 * m) - exact)
                  for n, m in ((16, 4), (64, 16), (256, 64))]
        assert errors[2] < errors[1] < errors[0] and errors[2] < 0.25 * errors[0], errors


@settings(max_examples=100, deadline=None)
@given(
    angle=st.floats(-np.pi, np.pi),
    r=st.floats(0.05, 3.95),
    log_R=st.floats(0.0, 24.0),
)
def test_the_exact_tube_average_is_symmetric_and_bounded(angle, r, log_R):
    """Mirroring (x, y) -> (x, -y) and turning xi to -xi keep the value to
    1e-14; it lies between 0 and the whole tube's area over R."""
    R = max(2.0**log_R, 1.01 * r)
    W = make_perturbation("parabola_example", 2)
    xi = np.array(_unit(angle))
    value = cylinder_average(W, xi, r, R)
    for other in (xi * [1.0, -1.0], -xi):
        assert cylinder_average(W, other, r, R) == pytest.approx(value, rel=1e-14, abs=0.0)
    whole = 2 * (r * np.sqrt(R * R - r * r) + R * R * np.arcsin(r / R)) / R
    assert 0.0 <= value <= whole * (1 + 1e-14)


def test_the_exact_tube_average_refuses_r_from_4_and_R_past_2_to_the_24():
    W = make_perturbation("parabola_example", 2)
    assert cylinder_average(W, [0.0, 1.0], 3.999, 2.0**24) > 0
    with pytest.raises(InputError, match="needs r < 4, got r = 4.0"):
        cylinder_average(W, [0.0, 1.0], 4.0, 64.0)
    with pytest.raises(InputError, match=r"verified up to R = 2\^24, got R = 16777217.0"):
        cylinder_average(W, [0.0, 1.0], 0.5, 2.0**24 + 1)


def _covered_calls(monkeypatch):
    """The (rho, tongues) of every `_covered` call from now on, in call order."""
    calls = []
    covered = potentials._covered

    def recording(rho, alpha, tongues):
        calls.append((rho, tongues))
        return covered(rho, alpha, tongues)

    monkeypatch.setattr(potentials, "_covered", recording)
    return calls


_DIRECTIONS = st.one_of(
    st.builds(lambda k, h: 2 * np.pi * h / 2.0**k, st.integers(2, 7), st.integers(0, 127)),
    st.floats(-np.pi, np.pi),
)


@settings(max_examples=100, deadline=None)
@given(
    angle=_DIRECTIONS,
    r=st.floats(0.05, 3.95),
    draws=st.lists(
        st.one_of(st.integers(2, 24), st.floats(0.0, 24.0)).map(lambda e: 2.0**e),
        min_size=1, max_size=6,
    ),
)
def test_a_stack_of_radii_gives_each_solo_float_bitwise(angle, r, draws):
    """A ladder of 1-6 radii (powers of two from 4 up, other reals, values of
    4 or less, repeats) gives each radius the float of its own call, in input
    order, for the exact rule; every radius past 4 integrates over the radii
    and reads the tongue rows of its own call. The sampled rule does the
    same on small radii."""
    radii = [max(R, 1.01 * r) for R in draws]
    W = make_perturbation("parabola_example", 2)
    xi = _unit(angle)
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = _covered_calls(monkeypatch)
        stacked = cylinder_average(W, xi, r, radii)
        shared = list(calls)
        solo = [cylinder_average(W, xi, r, R) for R in radii]
    assert isinstance(stacked, list) and all(isinstance(v, float) for v in stacked)
    assert [v.hex() for v in stacked] == [v.hex() for v in solo]
    assert len(shared) == len(calls) - len(shared) == sum(R > 4.0 for R in radii)
    for (rho, tongues), (own_rho, own_tongues) in zip(shared, calls[len(shared):]):
        assert np.array_equal(rho, own_rho) and np.array_equal(tongues, own_tongues)
    sampled = dataclasses.replace(W, tube_average=None)
    small = [min(R, 24.0) for R in radii[:2]]
    assert cylinder_average(sampled, xi, r, small) == [
        cylinder_average(sampled, xi, r, R) for R in small
    ]


def test_a_single_radius_still_gives_a_float():
    W = make_perturbation("parabola_example", 2)
    value = cylinder_average(W, [0.0, 1.0], 0.5, 64.0)
    assert type(value) is float
    assert cylinder_average(W, [0.0, 1.0], 0.5, [64.0]) == [value]
    assert cylinder_average(W, [0.0, 1.0], 0.5, np.array([64.0, 64.0])) == [value, value]


@pytest.mark.parametrize(
    "r,radii,refusal,closed_form_only",
    [
        (0.5, [64.0, 0.25, 2.0**25], "needs 0 < r < R, got r = 0.5, R = 0.25", False),
        (0.0, [64.0], "needs 0 < r < R, got r = 0.0, R = 64.0", False),
        (0.5, [64.0, 2.0**25, 3.0 * 2.0**25], "verified up to R = 2^24, got R = 33554432.0", True),
        (4.0, [64.0, 2.0**25], "needs r < 4, got r = 4.0", True),
    ],
)
def test_a_stack_raises_its_first_failing_radius_before_any_panel(
    monkeypatch, r, radii, refusal, closed_form_only
):
    """Every radius is checked, in input order, before the closed form
    builds a panel or the sampled rule reads W."""

    def refused(*args):
        raise AssertionError("work began before every radius was checked")

    monkeypatch.setattr(potentials, "_tube_panels", refused)
    W = make_perturbation("parabola_example", 2)
    sampled = dataclasses.replace(W, evaluator=refused, tube_average=None)
    for perturbation in [W] if closed_form_only else [W, sampled]:
        with pytest.raises(InputError, match=re.escape(refusal)):
            cylinder_average(perturbation, [0.0, 1.0], r, radii)


def test_lp_unif_estimate_raises_on_nan_integral():
    W = Perturbation(2, lambda x: np.where(x[..., 0] < 0, np.nan, 1.0), "nonnegative", 1.0)
    assert lp_unif_estimate(W, [[5.0, 0.0]]) == pytest.approx(np.pi, rel=1e-2)
    with pytest.raises(SolverError, match=r"\[-5\.0, 0\.0\]"):
        lp_unif_estimate(W, [[5.0, 0.0], [-5.0, 0.0]])
    with pytest.raises(SolverError):
        lp_unif_estimate(W, [[-5.0, 1.0], [-6.0, 0.0]])


def test_parabola_requires_dimension_two():
    with pytest.raises(ConfigError):
        make_perturbation("parabola_example", 1)


def test_integrability_exponent_is_replaceable():
    W = make_perturbation("constant", 2, value=1.0)
    W3 = dataclasses.replace(W, integrability_exponent=3.0)
    assert W3.integrability_exponent == 3.0
    assert float(W3.evaluator(np.zeros((1, 2)))[0]) == 1.0


@pytest.mark.parametrize("kind,name", SMOOTH_REGISTRY)
@settings(max_examples=40, deadline=None)
@given(
    dimension=st.integers(1, 3),
    coords=st.lists(st.floats(-3.0, 3.0), min_size=6, max_size=6),
)
def test_registry_hessian_matches_difference_of_gradient(kind, name, dimension, coords):
    obj = _registry_object(kind, name, dimension)
    assert obj.hessian is not None
    pts = np.asarray(coords).reshape(2, 3)[:, :dimension]
    hess = obj.hessian(pts)
    assert hess.shape == (2, dimension, dimension)
    np.testing.assert_allclose(hess, _fd_hessian(obj.gradient, pts), atol=1e-6)


@pytest.mark.parametrize("kind,name", SMOOTH_REGISTRY)
@settings(max_examples=40, deadline=None)
@given(
    dimension=st.integers(1, 3),
    coords=st.lists(st.floats(-3.0, 3.0), min_size=6, max_size=6),
)
def test_registry_gradient_matches_difference_of_values(kind, name, dimension, coords):
    obj = _registry_object(kind, name, dimension)
    pts = np.asarray(coords).reshape(2, 3)[:, :dimension]
    np.testing.assert_allclose(obj.gradient(pts), _fd_gradient(obj.evaluator, pts), atol=1e-6)
