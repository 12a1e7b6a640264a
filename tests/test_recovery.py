"""Recovery trajectories decorated with tube shifts and connector curves."""

import numpy as np
import pytest

from homoglab import (
    AlmostCorrectorPlan,
    InputError,
    OptimizerSpec,
    Perturbation,
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
from homoglab.cell import _plan_pieces


@pytest.fixture(scope="module")
def plan2d():
    V = make_potential("sin2", 2)
    opt = OptimizerSpec(max_iters=1200)
    return build_almost_corrector(
        V, np.array([1.0, np.sqrt(2.0)]), delta=0.2, horizon=400.0, opt=opt
    )


def test_recovery_endpoints_pinned_to_affine(plan2d):
    W = make_perturbation("runge_decay", 2, amplitude=1.0)
    for eps in (0.1, 0.05):
        traj = build_recovery_trajectory(plan2d, W, eps)
        xi = plan2d.xi
        np.testing.assert_allclose(traj.nodes[0], traj.times[0] * xi, atol=1e-9)
        np.testing.assert_allclose(traj.nodes[-1], traj.times[-1] * xi, atol=1e-9)
        assert traj.times[0] == 0.0


@pytest.mark.parametrize("eps", [0.05, 0.02])
def test_each_tube_shift_is_transverse_to_its_own_piece(plan2d, eps):
    """Piece k >= 1 picks its shift from the offset table turned into its own
    frame: |z| <= 1/4 and z orthogonal to the piece's velocity slope + xi."""
    W = make_perturbation("runge_decay", 2, amplitude=1.0)
    traj = build_recovery_trajectory(plan2d, W, eps)
    t_end = 1.0 / eps
    pieces = _plan_pieces(plan2d, t_end - min(1.0, 0.25 * t_end))
    z = np.array(traj.meta["z_shifts"])
    assert z.shape == (len(pieces), 2) and np.all(z[0] == 0.0)
    assert np.count_nonzero(np.linalg.norm(z[1:], axis=1)) >= 2
    for (_, _, slope), shift in zip(pieces[1:], z[1:]):
        velocity = (slope + plan2d.xi) / np.linalg.norm(slope + plan2d.xi)
        assert abs(float(np.dot(shift, velocity))) <= 1e-12
        assert np.linalg.norm(shift) <= 0.25 + 1e-12


def test_recovery_in_one_dimension_shifts_no_piece(sin2_1d):
    plan = build_almost_corrector(
        sin2_1d, np.array([np.sqrt(2.0)]), delta=0.2, horizon=40.0,
        opt=OptimizerSpec(max_iters=1200),
    )
    traj = build_recovery_trajectory(plan, make_perturbation("runge_decay", 1), 0.1)
    assert traj.meta["z_shifts"] == [[0.0]] * len(traj.meta["z_shifts"])
    assert traj.meta["connector_count"] == 0
    assert traj.times[-1] == 1.0 and traj.nodes[-1, 0] == np.sqrt(2.0)


def test_recovery_requires_nonnegative_perturbation(plan2d):
    W = make_perturbation("constant", 2, value=-0.5)
    with pytest.raises(InputError):
        build_recovery_trajectory(plan2d, W, 0.1)


def test_recovery_action_bounded_by_perturbed_plan(plan2d, quad):
    """The decorated path's perturbed action stays near the plan's unperturbed one."""
    V = make_potential("sin2", 2)
    W = make_perturbation("runge_decay", 2, amplitude=1.0)
    eps = 0.05
    traj = build_recovery_trajectory(plan2d, W, eps)
    span = float(traj.times[-1] - traj.times[0])
    perturbed = action_G(traj, V, W, eps, quad) / span
    base = plan2d.meta["cell_value_at_T"]
    # W decays along the shifted tube, so the excess over the unperturbed
    # block value must stay well below the crude bound sup W = 1
    assert perturbed <= base * 1.25 + 0.5


@pytest.mark.parametrize(
    "peak_at,peak,eps", [(9.0, 2.08e-7, 0.05), (5.5, 3e-7, 0.1)], ids=["raw", "macro"]
)
def test_recovery_closes_a_jump_below_the_time_cursors_spacing(peak_at, peak, eps):
    """The block profile rises by `peak` across xi = (1, 0) on [1, peak_at] and
    falls back on [peak_at, 16], and W = exp(x_2) shifts each piece by 0.25 down
    its own normal, so the nearly parallel pieces meet with jumps of 1e-8 to
    2.4e-8. A connector over such a jump has graded time steps of 2e-16 to
    1e-15. In the raw case they are below the float spacing of the time
    cursor (1.8e-15 past 9); in the macro case they pass there (8.9e-16 at
    5.8) and vanish only once the times are mapped onto [0, 1]. Either way
    the piece starts where the path is instead, and the times stay strictly
    increasing."""
    plan = AlmostCorrectorPlan(
        xi=[1.0, 0.0], delta=1.0, eta=0.25, l_delta=1.0, T=16.0, shifts=[0.0],
        breakpoints=[0.0, 1.0, peak_at, 16.0],
        slopes=[[0.0, 0.0], [0.0, peak / (peak_at - 1.0)], [0.0, -peak / (16.0 - peak_at)]],
        profile_values=[[0.0, 0.0], [0.0, 0.0], [0.0, peak], [0.0, 0.0]],
    )
    W = Perturbation(2, lambda x: np.exp(x[..., 1]), "nonnegative", integrability_exponent=2.0)
    traj = build_recovery_trajectory(plan, W, eps)
    assert np.all(np.diff(traj.times) > 0)
    assert traj.times[0] == 0.0 and traj.times[-1] == 1.0
    np.testing.assert_array_equal(traj.nodes[-1], plan.xi)
    # only the jump from the first, unshifted piece gets its connector
    assert traj.meta["connector_count"] == 1


def test_scaled_corrector_start_shape_and_endpoints(sin2_1d):
    opt = OptimizerSpec(max_iters=1500)
    prof = solve_corrector_1d(sin2_1d, 1.0, opt=opt)
    start = scaled_corrector_start(prof, 0.1, 65)
    assert isinstance(start, Trajectory)
    assert start.times.size == 65
    assert start.times[0] == 0.0 and start.times[-1] == 1.0
    np.testing.assert_allclose(start.nodes[0], [0.0], atol=1e-12)
    np.testing.assert_allclose(start.nodes[-1], [1.0], atol=1e-12)


def test_scaled_corrector_start_is_good_warm_start(quad, sin2_1d):
    """The rescaled cell profile lands near the homogenized action level."""
    opt = OptimizerSpec(max_iters=1500)
    prof = solve_corrector_1d(sin2_1d, 1.0, opt=opt)
    eps = 0.05
    start = scaled_corrector_start(prof, eps, 129)
    value = action_F(start, sin2_1d, eps, quad)
    assert value == pytest.approx(prof.cell_value, rel=0.08)


def test_scaled_corrector_start_pins_its_ends_to_0_and_xi(sin2_1d):
    """At eps = 0.03, t = 1 sits a third of a period into the profile, where
    v is not 0; the end is still exactly xi."""
    prof = solve_corrector_1d(sin2_1d, 0.7, opt=OptimizerSpec(max_iters=1500))
    eps = 0.03
    assert np.interp(np.mod(1.0 / eps, prof.T), prof.profile.times, prof.profile.nodes[:, 0]) != 0
    start = scaled_corrector_start(prof, eps, 65)
    assert start.nodes[0, 0] == 0.0
    assert start.nodes[-1, 0] == prof.xi[0] == 0.7
