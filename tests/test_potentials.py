"""Registry potentials and perturbations: shapes, bounds, averages, geometry."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homoglab import (
    ConfigError,
    InputError,
    QuadratureSpec,
    cylinder_average,
    line_average,
    lp_unif_estimate,
    make_perturbation,
    make_potential,
    parabola_free_region,
)
from homoglab.potentials import PERTURBATION_BUILDERS, POTENTIAL_BUILDERS, _fd_hessian

SMOOTH_REGISTRY = [("potential", n) for n in ("zero", "constant", "sin2", "cos_sum")] + [
    ("perturbation", n) for n in ("zero", "constant", "runge_decay")
]


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


def test_line_average_decays_for_integrable_bump(quad):
    W = make_perturbation("runge_decay", 1, amplitude=1.0)
    a64 = line_average(W, 64.0, quad)
    a512 = line_average(W, 512.0, quad)
    assert a512 < a64
    # the window is [-R, R] scaled by 1/R; total mass of 1/(1+y^2) is pi
    assert a512 * 512.0 == pytest.approx(np.pi, rel=0.05)


def test_line_average_constant_is_flat(quad):
    W = make_perturbation("constant", 1, value=0.7)
    assert line_average(W, 64.0, quad) == pytest.approx(1.4, rel=1e-6)
    assert line_average(W, 512.0, quad) == pytest.approx(1.4, rel=1e-6)


def test_cylinder_average_constant_closed_form(quad):
    W = make_perturbation("constant", 2, value=1.0)
    # two-sided chord tube of half-width r: area 4*r*R up to the chord correction
    for r in (0.5, 1.0):
        avg = cylinder_average(W, [1.0, 0.0], r, 512.0, quad)
        assert avg == pytest.approx(4.0 * r, rel=1e-3)


def test_cylinder_average_rejects_bad_inputs(quad):
    W = make_perturbation("constant", 2, value=1.0)
    with pytest.raises(InputError):
        cylinder_average(W, [0.0, 0.0], 1.0, 64.0, quad)
    with pytest.raises(InputError):
        cylinder_average(W, [1.0, 0.0], 2.0, 1.0, quad)
    W1 = make_perturbation("constant", 1, value=1.0)
    with pytest.raises(InputError):
        cylinder_average(W1, [1.0], 0.5, 64.0, quad)


def test_lp_unif_estimate_constant(quad):
    W = make_perturbation("constant", 2, value=1.0)
    centers = [np.zeros(2)]
    # unit-ball mass of W^2 is the ball area
    assert lp_unif_estimate(W, 2.0, centers, quad) == pytest.approx(np.pi, rel=1e-2)


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
    hess = obj.hess(pts)
    assert hess.shape == (2, dimension, dimension)
    np.testing.assert_allclose(hess, _fd_hessian(obj.grad, pts), atol=1e-6)
