"""Boundary-value minimizers against closed forms and the DP oracle."""

import numpy as np
import pytest

from homoglab import (
    DPGrid,
    InputError,
    OptimizerSpec,
    QuadratureSpec,
    Trajectory,
    action_G,
    dp_oracle_1d,
    dp_oracle_halfline,
    make_perturbation,
    make_potential,
    minimize_bvp,
    minimize_bvp_batch,
    minimize_halfline,
    minimize_lagrangian_bvp,
)
from homoglab.minimize import _newton_steps
from homoglab.potentials import GeneralLagrangian


def test_bvp_free_particle_is_straight_line(std_opt, quad, zero_1d):
    u, val = minimize_bvp(zero_1d, None, 0.1, 0.0, 2.0, 0.0, 3.0, 41, std_opt, quad)
    assert val == pytest.approx(4.5, abs=1e-8)
    expected = np.linspace(0.0, 3.0, u.times.size)
    np.testing.assert_allclose(u.nodes[:, 0], expected, atol=1e-5)


def test_bvp_constant_shift_exactness(std_opt, quad, sin2_1d):
    """Adding W = c shifts the minimum by exactly c * (t1 - t0)."""
    W = make_perturbation("constant", 1, value=0.5)
    _, base = minimize_bvp(sin2_1d, None, 0.2, 0.0, 1.0, 0.0, 1.0, 65, std_opt, quad)
    _, shifted = minimize_bvp(sin2_1d, W, 0.2, 0.0, 1.0, 0.0, 1.0, 65, std_opt, quad)
    assert shifted - base == pytest.approx(0.5, abs=1e-8)


def test_bvp_agrees_with_dp_oracle(std_opt, quad, sin2_1d):
    eps, xi = 0.2, 1.0
    _, val = minimize_bvp(sin2_1d, None, eps, 0.0, 1.0, 0.0, xi, 129, std_opt, quad)
    dp = dp_oracle_1d(sin2_1d, None, eps, 0.0, 1.0, 0.0, xi,
                      DPGrid(-0.6, 1.6, 1921, 121), slope_set=np.linspace(-4, 4, 129))
    assert val == pytest.approx(dp, rel=0.02)


def test_bvp_refinement_consistency(std_opt, quad, sin2_1d):
    _, coarse = minimize_bvp(sin2_1d, None, 0.1, 0.0, 1.0, 0.0, 1.0, 65, std_opt, quad)
    _, fine = minimize_bvp(sin2_1d, None, 0.1, 0.0, 1.0, 0.0, 1.0, 129, std_opt, quad)
    assert fine == pytest.approx(coarse, rel=5e-3)
    # refining the node set can only improve (or match) the minimum
    assert fine <= coarse + 1e-6


def test_bvp_warm_start_never_hurts(std_opt, quad, sin2_1d):
    t = np.linspace(0.0, 1.0, 65)
    warm = Trajectory(t, (t * 1.0)[:, None])
    _, cold_val = minimize_bvp(sin2_1d, None, 0.1, 0.0, 1.0, 0.0, 1.0, 65, std_opt, quad)
    _, warm_val = minimize_bvp(
        sin2_1d, None, 0.1, 0.0, 1.0, 0.0, 1.0, 65, std_opt, quad, warm_starts=(warm,)
    )
    assert warm_val <= cold_val + 1e-7


def test_bvp_batch_matches_single(std_opt, quad, sin2_1d):
    a_batch = np.array([[0.0], [0.25]])
    values, nodes, times = minimize_bvp_batch(
        sin2_1d, None, 0.2, 0.0, 1.0, a_batch, np.array([1.0]), 65, std_opt, quad
    )
    assert values.shape == (2,)
    assert nodes.shape[0] == 2 and times.size == nodes.shape[1]
    for k in range(2):
        _, single = minimize_bvp(
            sin2_1d, None, 0.2, 0.0, 1.0, a_batch[k], np.array([1.0]), 65, std_opt, quad
        )
        assert values[k] == pytest.approx(single, rel=1e-3, abs=1e-6)


def test_bvp_value_certified_against_action(std_opt, quad, sin2_1d):
    u, val = minimize_bvp(sin2_1d, None, 0.2, 0.0, 1.0, 0.0, 1.0, 65, std_opt, quad)
    assert action_G(u, sin2_1d, None, 0.2, quad) == pytest.approx(val, abs=1e-9)


def test_bvp_rejects_bad_window(std_opt, quad, sin2_1d):
    with pytest.raises(InputError):
        minimize_bvp(sin2_1d, None, 0.1, 1.0, 1.0, 0.0, 1.0, 33, std_opt, quad)
    with pytest.raises(InputError):
        minimize_bvp(sin2_1d, None, -0.1, 0.0, 1.0, 0.0, 1.0, 33, std_opt, quad)


def test_dp_oracle_free_particle():
    V = make_potential("zero", 1)
    dp = dp_oracle_1d(V, None, 0.1, 0.0, 1.0, 0.0, 1.0,
                      DPGrid(-0.5, 1.5, 801, 81), slope_set=np.linspace(-4, 4, 161))
    assert dp == pytest.approx(1.0, rel=0.01)


def test_dp_oracle_charges_negative_atom():
    V = make_potential("zero", 1)
    atom = make_perturbation("neg_spike", 1, depth=1.0, width=0.0)
    grid = DPGrid(-1.0, 1.0, 801, 81)
    assert 0.0 in np.abs(grid.states())
    val = dp_oracle_1d(V, atom, 0.1, 0.0, 1.0, 0.0, 0.0, grid,
                       slope_set=np.linspace(-4, 4, 161))
    # parking at the origin collects the atom for the whole window
    assert val == pytest.approx(-1.0, abs=1e-9)


def test_halfline_constant_potential_closed_form(std_opt, quad):
    V = make_potential("constant", 1, value=1.0)
    lam = 1.0
    traj, value = minimize_halfline(V, None, 0.1, lam, np.array([0.3]), 8.0, 161, std_opt, quad)
    # staying put integrates 1*exp(-t) up to the truncation horizon
    assert value == pytest.approx(1.0, rel=2e-3)
    assert traj.times[0] == 0.0


def test_halfline_matches_dp(std_opt, quad, sin2_1d):
    lam = 1.0
    x0 = 0.3
    _, value = minimize_halfline(sin2_1d, None, 0.2, lam, np.array([x0]), 8.0, 161, std_opt, quad)
    dp = dp_oracle_halfline(sin2_1d, None, 0.2, lam, x0, 8.0,
                            DPGrid(x0 - 1.2, x0 + 1.2, 2561, 481),
                            slope_set=np.linspace(-4, 4, 257))
    # both sides overestimate the infimum; the descent solver must be at
    # least as sharp as the lattice and not stray far below it
    assert value <= dp + 1e-3
    assert value == pytest.approx(dp, rel=0.06)


def test_halfline_rejects_short_horizon(std_opt, quad, sin2_1d):
    with pytest.raises(InputError):
        minimize_halfline(sin2_1d, None, 0.1, 1.0, np.array([0.0]), 3.0, 65, std_opt, quad)


def test_general_lagrangian_bvp_matches_quadratic(std_opt, quad):
    V = make_potential("zero", 2)
    L = GeneralLagrangian.from_potential(V)
    u, val = minimize_lagrangian_bvp(L, 0.0, 1.0, np.zeros(2), np.array([1.0, 1.0]), 33, std_opt, quad)
    assert val == pytest.approx(2.0, abs=1e-6)
    np.testing.assert_allclose(u.nodes[-1], [1.0, 1.0], atol=1e-12)


def _dense(diag, off):
    n, d = diag.shape[:2]
    H = np.zeros((n * d, n * d))
    for i in range(n):
        H[i * d : (i + 1) * d, i * d : (i + 1) * d] = diag[i]
    for i in range(n - 1):
        H[i * d : (i + 1) * d, (i + 1) * d : (i + 2) * d] = off[i]
        H[(i + 1) * d : (i + 2) * d, i * d : (i + 1) * d] = off[i].T
    return H


@pytest.mark.parametrize("d", [1, 2, 3])
def test_stacked_newton_steps_solve_each_shifted_system(d):
    """Each start's step solves (H + tau I) p = -g with H + tau I positive
    definite, tau = 0 when H already is, whatever its neighbours in the stack."""
    rng = np.random.default_rng(d)
    B, n = 4, 6
    off = rng.uniform(-1.0, 1.0, size=(B, n - 1, d, d))
    diag = rng.uniform(-0.5, 0.5, size=(B, n, d, d))
    diag = diag + np.swapaxes(diag, -1, -2)
    diag[[0, 2]] += 4.0 * d * np.eye(d)  # starts 0 and 2 diagonally dominant
    diag[[1, 3]] -= 4.0 * np.eye(d)  # starts 1 and 3 indefinite
    grad = rng.normal(size=(B, n, d))
    steps, dec = _newton_steps(diag, off, grad)
    for b in range(B):
        H = _dense(diag[b], off[b])
        p, g = steps[b].reshape(-1), grad[b].reshape(-1)
        tau = -float((H @ p + g) @ p) / float(p @ p)
        np.testing.assert_allclose(H @ p + tau * p, -g, atol=1e-9)
        low = np.min(np.linalg.eigvalsh(H))
        assert low + tau > 0
        if b in (0, 2):
            assert low > 0 and tau == pytest.approx(0.0, abs=1e-9)
        else:
            assert low < 0
        assert dec[b] == pytest.approx(-float(g @ p))
        assert dec[b] > 0


def test_newton_records_convergence_of_the_winning_start(std_opt, quad, sin2_1d, runge_1d):
    u, _ = minimize_bvp(sin2_1d, runge_1d, 0.05, 0.0, 1.0, 0.0, 1.0, 249, std_opt, quad)
    assert u.meta["converged"]
    assert u.meta["grad_norm"] <= 1e-8
    assert 1 <= u.meta["iterations"] < 100
