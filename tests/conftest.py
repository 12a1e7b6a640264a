"""Shared fixtures: deterministic solver specs and registry objects."""

import numpy as np
import pytest

from homoglab import OptimizerSpec, QuadratureSpec, make_potential, make_perturbation


@pytest.fixture(scope="session")
def quad():
    return QuadratureSpec()


@pytest.fixture(scope="session")
def fast_opt():
    """Cheap optimizer for structural tests where accuracy is not the point."""
    return OptimizerSpec(max_iters=400, restarts=1, seed=0)


@pytest.fixture(scope="session")
def std_opt():
    """Production optimizer used by the calibrated comparisons."""
    return OptimizerSpec(max_iters=2000, restarts=3, seed=2)


@pytest.fixture(scope="session")
def sin2_1d():
    return make_potential("sin2", 1)


@pytest.fixture(scope="session")
def zero_1d():
    return make_potential("zero", 1)


@pytest.fixture(scope="session")
def runge_1d():
    return make_perturbation("runge_decay", 1, amplitude=1.0)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)
