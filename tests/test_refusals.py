"""One rule per refusal: every positive scalar goes through
`errors.check_positive`, every direction through `grid.unit_vector`."""

import dataclasses
import math
import re
import warnings

import numpy as np
import pytest

from homoglab import (
    AlmostCorrectorPlan,
    DPGrid,
    ExperimentConfig,
    InputError,
    OptimizerSpec,
    Trajectory,
    action_F,
    action_G,
    build_almost_corrector,
    build_recovery_trajectory,
    cylinder_average,
    discounted_action,
    dp_oracle_halfline,
    ergodic_shift_finder,
    exp_interval_weights,
    line_average,
    make_initial_datum,
    make_perturbation,
    make_potential,
    minimize_halfline,
    polar_bound_check,
    run_condition_diagnostics,
    solve_evolutionary_hom,
    solve_steady_eps,
    solve_steady_hom,
    tabulate_f_hom,
)

_V = make_potential("sin2", 1)
_V2 = make_potential("sin2", 2)
_W = make_perturbation("runge_decay", 1, amplitude=1.0)
_W2 = make_perturbation("runge_decay", 2, amplitude=1.0)
_PATH = Trajectory.affine(0.0, 1.0, 1.0, 9)
_FAST = OptimizerSpec(max_iters=5)
_GRID = DPGrid(-1.0, 1.0, 41, 41)
_X = np.linspace(-0.5, 0.5, 3)
_PLAN = AlmostCorrectorPlan(
    np.array([1.0]),
    delta=0.5,
    eta=0.1,
    l_delta=1.0,
    T=4.0,
    shifts=np.array([0.0, 5.0]),
    breakpoints=np.array([0.0, 2.0, 4.0]),
    slopes=np.array([[0.5], [-0.5]]),
    profile_values=np.array([[0.0], [1.0], [0.0]]),
)


def _conditions(direction=(1.0, 0.0), radius=256.0):
    cfg = ExperimentConfig.from_dict({
        "experiment": "conditions",
        "dimension": 2,
        "potential": {"name": "zero"},
        "perturbation": {"name": "parabola_example"},
        "grids": {"radii": [64, radius], "directions": [[0.0, 1.0], list(direction)]},
    })
    return run_condition_diagnostics(cfg)


_SCALARS = [
    ("action_F", "eps", lambda v: action_F(_PATH, _V, v)),
    ("action_G", "eps", lambda v: action_G(_PATH, _V, _W, v)),
    ("discounted_action", "eps", lambda v: discounted_action(_PATH, _V, _W, v, 1.0)),
    ("discounted_action", "lam", lambda v: discounted_action(_PATH, _V, _W, 0.1, v)),
    ("polar_bound_check", "r", lambda v: polar_bound_check(
        dataclasses.replace(_W2, integrability_exponent=2.0), 0.6, v)),
    ("exp_interval_weights", "lam", lambda v: exp_interval_weights(np.array([0.0, 1.0]), v)),
    ("ergodic_shift_finder", "eta", lambda v: ergodic_shift_finder([1.0, 2**0.5], v, 0.0, 8.0)),
    ("ergodic_shift_finder", "window_length",
     lambda v: ergodic_shift_finder([1.0, 2**0.5], 0.1, 0.0, v)),
    ("build_almost_corrector", "delta",
     lambda v: build_almost_corrector(_V2, [1.0, 2**0.5], v, 40.0)),
    ("build_almost_corrector", "horizon",
     lambda v: build_almost_corrector(_V2, [1.0, 2**0.5], 0.2, v)),
    ("build_recovery_trajectory", "eps", lambda v: build_recovery_trajectory(
        _PLAN, make_perturbation("constant", 1, value=0.5), v)),
    ("line_average", "R", lambda v: line_average(_W, v)),
    ("run_condition_diagnostics", "R", lambda v: _conditions(radius=v)),
    ("solve_evolutionary_hom", "t", lambda v: solve_evolutionary_hom(
        tabulate_f_hom(_V, _X), make_initial_datum("plane_wave", 1, p=[1.0]), _X, [0.5, v], _X)),
    ("minimize_halfline", "lam",
     lambda v: minimize_halfline(_V, None, 0.1, v, 0.0, 6.0, 33, _FAST)),
    ("dp_oracle_halfline", "lam", lambda v: dp_oracle_halfline(_V, None, 0.1, v, 0.0, 6.0, _GRID)),
    ("solve_steady_eps", "lam", lambda v: solve_steady_eps(_V, None, 0.1, v, _X, _FAST)),
    ("solve_steady_hom", "lam", lambda v: solve_steady_hom(tabulate_f_hom(_V, _X), v, _X)),
]
_DIRECTIONS = [
    ("ergodic_shift_finder", "xi", lambda v: ergodic_shift_finder(v, 0.1, 0.0, 8.0)),
    ("build_almost_corrector", "xi", lambda v: build_almost_corrector(_V2, v, 0.2, 40.0)),
    ("cylinder_average", "xi", lambda v: cylinder_average(_W2, v, 1.0, 8.0)),
    ("run_condition_diagnostics", "direction", _conditions),
]
_BAD_SCALARS = {"0": 0.0, "negative": -1.0, "nan": math.nan, "inf": math.inf}
_BAD_DIRECTIONS = {"zero": [0.0, 0.0], "nan": [math.nan, 1.0], "overflow": [1e308, 1e308]}
# A config refuses a NaN or infinite entry itself (ConfigError): the runner sees none.
_CONFIG_REFUSES = {("run_condition_diagnostics", "nan"), ("run_condition_diagnostics", "inf")}


def _cases():
    for entry, name, call in _SCALARS:
        for label, value in _BAD_SCALARS.items():
            if (entry, label) in _CONFIG_REFUSES:
                continue
            shown = f"{name} must be positive and finite, got {name}={value!r}"
            yield pytest.param(call, value, shown, id=f"{entry}-{name}-{label}")
    for entry, name, call in _DIRECTIONS:
        for label, value in _BAD_DIRECTIONS.items():
            if (entry, label) in _CONFIG_REFUSES:
                continue
            shown = f"{name} must be a nonzero vector with a finite norm, got {name}={value}"
            yield pytest.param(call, value, shown, id=f"{entry}-{name}-{label}")


@pytest.mark.parametrize("call, value, shown", list(_cases()))
def test_a_bad_scalar_or_direction_is_refused_by_name_and_value(call, value, shown):
    """0, -1, NaN and inf for a positive scalar (an entry of the t grid or of
    the radii too), and a zero, a NaN and an overflowing direction, each raise
    InputError naming the parameter and its value, before any work and with
    no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match=re.escape(shown)):
            call(value)
