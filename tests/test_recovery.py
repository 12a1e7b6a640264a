"""Recovery trajectories decorated with tube shifts and connector curves."""

import numpy as np
import pytest

from homoglab import (
    InputError,
    OptimizerSpec,
    Trajectory,
    action_F,
    action_G,
    build_almost_corrector,
    build_recovery_trajectory,
    make_perturbation,
    make_potential,
    scaled_corrector_start,
    solve_corrector_1d,
)


@pytest.fixture(scope="module")
def plan2d():
    V = make_potential("sin2", 2)
    opt = OptimizerSpec(max_iters=1200, restarts=2, seed=5)
    return build_almost_corrector(
        V, np.array([1.0, np.sqrt(2.0)]), delta=0.2, horizon=400.0, opt=opt
    )


def test_recovery_endpoints_pinned_to_affine(plan2d):
    W = make_perturbation("runge_decay", 2, amplitude=1.0)
    for eps in (0.1, 0.05):
        traj = build_recovery_trajectory(plan2d, W, eps, eta_tube=0.25, alpha=0.75)
        xi = plan2d.xi
        np.testing.assert_allclose(traj.nodes[0], traj.times[0] * xi, atol=1e-9)
        np.testing.assert_allclose(traj.nodes[-1], traj.times[-1] * xi, atol=1e-9)
        assert traj.times[0] == 0.0


def test_recovery_requires_nonnegative_perturbation(plan2d):
    W = make_perturbation("constant", 2, value=-0.5)
    with pytest.raises(InputError):
        build_recovery_trajectory(plan2d, W, 0.1, eta_tube=0.25, alpha=0.75)


def test_recovery_action_bounded_by_perturbed_plan(plan2d, quad):
    """The decorated path's perturbed action stays near the plan's unperturbed one."""
    V = make_potential("sin2", 2)
    W = make_perturbation("runge_decay", 2, amplitude=1.0)
    eps = 0.05
    traj = build_recovery_trajectory(plan2d, W, eps, eta_tube=0.25, alpha=0.75)
    span = float(traj.times[-1] - traj.times[0])
    perturbed = action_G(traj, V, W, eps, quad) / span
    base = plan2d.meta["cell_value_at_T"]
    # W decays along the shifted tube, so the excess over the unperturbed
    # block value must stay well below the crude bound sup W = 1
    assert perturbed <= base * 1.25 + 0.5


def test_scaled_corrector_start_shape_and_endpoints(sin2_1d):
    opt = OptimizerSpec(max_iters=1500, restarts=2, seed=3)
    prof = solve_corrector_1d(sin2_1d, 1.0, opt=opt)
    start = scaled_corrector_start(prof, 0.1, 0.0, 1.0, 0.0, 1.0, 65)
    assert isinstance(start, Trajectory)
    assert start.times.size == 65
    assert start.times[0] == 0.0 and start.times[-1] == 1.0
    np.testing.assert_allclose(start.nodes[0], [0.0], atol=1e-12)
    np.testing.assert_allclose(start.nodes[-1], [1.0], atol=1e-12)


def test_scaled_corrector_start_is_good_warm_start(quad, sin2_1d):
    """The rescaled cell profile lands near the homogenized action level."""
    opt = OptimizerSpec(max_iters=1500, restarts=2, seed=3)
    prof = solve_corrector_1d(sin2_1d, 1.0, opt=opt)
    eps = 0.05
    start = scaled_corrector_start(prof, eps, 0.0, 1.0, 0.0, 1.0, 129)
    value = action_F(start, sin2_1d, eps, quad)
    assert value == pytest.approx(prof.cell_value, rel=0.08)
