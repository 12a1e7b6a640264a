"""Ergodic shift search and the quasiperiodic almost-corrector plan."""

import dataclasses

import numpy as np
import pytest

from homoglab import (
    AlmostCorrectorPlan,
    ErgodicWindowError,
    InputError,
    InvariantError,
    OptimizerSpec,
    build_almost_corrector,
    ergodic_shift_finder,
    make_potential,
)
from homoglab.cell import _nudge_degenerate_pieces, _plan_pieces


def lattice_distance(t, xi):
    frac = np.atleast_1d(t)[:, None] * np.asarray(xi)[None, :]
    return np.max(np.abs(frac - np.round(frac)), axis=-1)


def test_shift_finder_returns_admissible_point():
    xi = np.array([1.0, np.sqrt(2.0)])
    eta = 0.1
    tau = ergodic_shift_finder(xi, eta, 5.0, 40.0)
    assert 5.0 <= tau <= 45.0
    assert float(lattice_distance(tau, xi)[0]) < eta


def test_shift_finder_is_minimal_on_its_scan_lattice():
    xi = np.array([1.0, np.sqrt(2.0)])
    eta = 0.1
    tau = ergodic_shift_finder(xi, eta, 5.0, 40.0)
    # the scanner walks the window at step eta/(2|xi|) and stops at the
    # first admissible point, so every earlier scan point is inadmissible
    step = eta / (2.0 * float(np.linalg.norm(xi)))
    n_before = int(np.floor((tau - 5.0) / step + 0.5))
    probes = 5.0 + step * np.arange(n_before)
    assert np.all(lattice_distance(probes, xi) >= eta)


def test_shift_finder_raises_when_window_too_short():
    xi = np.array([1.0, np.sqrt(2.0)])
    with pytest.raises(ErgodicWindowError):
        ergodic_shift_finder(xi, 0.01, 5.0, 0.5)


def test_integer_slope_hits_every_integer_time():
    xi = np.array([1.0, 1.0])
    tau = ergodic_shift_finder(xi, 0.05, 3.2, 2.0)
    assert tau == pytest.approx(4.0, abs=0.05)


@pytest.fixture(scope="module")
def plan():
    V = make_potential("sin2", 2)
    opt = OptimizerSpec(max_iters=1200)
    return build_almost_corrector(
        V, np.array([1.0, np.sqrt(2.0)]), delta=0.2, horizon=400.0, opt=opt
    )


def test_plan_invariants(plan):
    assert plan.shifts[0] == 0.0
    assert plan.T >= (plan.l_delta + 1.0) / plan.delta
    spacing = np.diff(plan.shifts)
    assert np.all(spacing >= plan.T + 1.0)
    assert np.all(spacing <= plan.T + plan.l_delta)
    assert np.all(lattice_distance(plan.shifts, plan.xi) < plan.eta)


def test_plan_eta_is_the_lipschitz_bound(plan):
    # V = sin2 in d = 2 is (pi * sqrt 2)-Lipschitz: eta = (delta / 2) / lip.
    assert plan.eta == 0.2 / 2.0 / (np.pi * np.sqrt(2.0))


def test_a_potential_without_a_lipschitz_constant_is_refused():
    V = dataclasses.replace(make_potential("sin2", 2), lipschitz=None)
    with pytest.raises(InputError, match="declares no Lipschitz constant"):
        build_almost_corrector(V, np.array([1.0, np.sqrt(2.0)]), delta=0.2, horizon=400.0)


def test_plan_profile_vanishes_between_blocks(plan):
    gap_t = plan.shifts[1] - 0.5  # strictly between block 0 end and block 1 start
    assert gap_t > plan.T
    np.testing.assert_allclose(plan.profile(np.array([gap_t])), 0.0, atol=1e-12)


def test_plan_block_action_near_cell_value(plan):
    actions = plan.meta["block_actions"]
    target = plan.meta["cell_value_at_T"]
    for a in actions:
        # block profiles are resampled to a few affine pieces; the per-block
        # action may only exceed the window optimum by a modest margin
        assert a >= target - 1e-9
        assert a <= target * 1.10 + 0.5


def test_plan_validation_rejects_bad_spacing(plan):
    with pytest.raises(InvariantError):
        AlmostCorrectorPlan(
            plan.xi,
            plan.delta,
            plan.eta,
            plan.l_delta,
            plan.T,
            np.array([0.0, plan.T + 0.5]),  # spacing below T + 1
            plan.breakpoints,
            plan.slopes,
            plan.profile_values,
        )


def test_plan_pieces_tile_the_window_past_the_last_block():
    """Blocks at shifts 0 and 5 (T = 4) and t_end = 12: the gap after the
    last block is the final piece, and the pieces tile [0, 12] exactly."""
    plan = AlmostCorrectorPlan(
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
    pieces = _plan_pieces(plan, 12.0)
    starts = [a for a, _, _ in pieces]
    ends = [b for _, b, _ in pieces]
    assert starts == [0.0, 2.0, 4.0, 5.0, 7.0, 9.0]
    assert ends == starts[1:] + [12.0]
    assert [float(s[0]) for _, _, s in pieces] == [0.5, -0.5, 0.0, 0.5, -0.5, 0.0]


def test_a_zero_velocity_piece_is_nudged_along_xi():
    """At xi = (1, 0) a first piece of slope -xi does not move: the value at
    its interior end moves by 2 floor width along xi / |xi|, every piece's
    full velocity then exceeds the floor, and the end values stay."""
    xi = np.array([1.0, 0.0])
    floor = 1e-9 * (1.0 + 1.0)
    breakpoints = np.array([0.0, 0.5, 1.25])
    before = np.array([[0.0, 0.0], [-0.5, 0.0], [0.0, 0.0]])
    slopes = np.diff(before, axis=0) / np.diff(breakpoints)[:, None]
    assert np.array_equal(slopes[0], -xi)
    slopes, values = _nudge_degenerate_pieces(slopes, before.copy(), breakpoints, xi)
    assert np.all(np.linalg.norm(slopes + xi, axis=1) > floor)
    np.testing.assert_array_equal(slopes, np.diff(values, axis=0) / np.diff(breakpoints)[:, None])
    np.testing.assert_array_equal(values[[0, -1]], before[[0, -1]])
    np.testing.assert_allclose(values[1] - before[1], [2 * floor * 0.5, 0.0], rtol=1e-6, atol=0)


def test_a_lone_zero_velocity_piece_cannot_be_nudged():
    """A block of one piece has no interior value to move."""
    xi = np.array([1.0, 0.0])
    breakpoints = np.array([0.0, 0.5])
    values = np.array([[0.0, 0.0], [-0.5, 0.0]])
    slopes = np.diff(values, axis=0) / np.diff(breakpoints)[:, None]
    with pytest.raises(InvariantError, match="zero-velocity pieces"):
        _nudge_degenerate_pieces(slopes, values, breakpoints, xi)
