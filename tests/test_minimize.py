"""Boundary-value minimizers against closed forms and the DP oracle."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    SolverError,
)
from homoglab.minimize import (
    _Action,
    _dp_sweep,
    _lattice_moves,
    _lattice_seeds,
    _newton_steps,
    _solve,
    _start_stack,
)
from homoglab.potentials import GeneralLagrangian, Perturbation, eval_potential
from homoglab.quadrature import exp_interval_weights, sub_interval_edges


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


def _naive_dp_step(value, weight, moves, slopes, cost, atom_cost):
    """The full-grid lattice step: every state, every move, every step."""
    n_x = value.size
    best = np.full(n_x, np.inf)
    for k, s in zip(moves, slopes):
        src_lo = max(0, -k)
        src_hi = n_x - max(0, k)
        if src_hi <= src_lo:
            continue
        stage = weight * (s * s + cost[src_lo:src_hi])
        if k == 0 and atom_cost is not None:
            stage = stage + weight * atom_cost[src_lo:src_hi]
        cand = stage + value[src_lo + k : src_hi + k]
        np.minimum(best[src_lo:src_hi], cand, out=best[src_lo:src_hi])
    return best


def _naive_lattice(V, W, eps, grid, h, slope_set):
    states = grid.states()
    moves, slopes = _lattice_moves(slope_set, h, states[1] - states[0], grid.n_x)
    cost = eval_potential(V, W, states[:, None] / eps)
    atom = W.zero_atom if W is not None else 0.0
    atom_cost = None if atom == 0.0 else np.where(states == 0.0, atom, 0.0)
    return states, moves, slopes, cost, atom_cost


def _naive_dp_1d(V, W, eps, a, b, grid, slope_set):
    states, moves, slopes, cost, atom_cost = _naive_lattice(
        V, W, eps, grid, 1.0 / (grid.n_t - 1), slope_set
    )
    value = np.full(grid.n_x, np.inf)
    value[int(np.argmin(np.abs(states - b)))] = 0.0
    for _ in range(grid.n_t - 1):
        value = _naive_dp_step(value, 1.0 / (grid.n_t - 1), moves, slopes, cost, atom_cost)
    return value[int(np.argmin(np.abs(states - a)))]


def _naive_dp_halfline(V, W, eps, lam, x0, T_max, grid, slope_set):
    states, moves, slopes, cost, atom_cost = _naive_lattice(
        V, W, eps, grid, T_max / (grid.n_t - 1), slope_set
    )
    anti = np.exp(-lam * np.linspace(0.0, T_max, grid.n_t)) / lam
    weights = anti[:-1] - anti[1:]
    value = (cost if atom_cost is None else cost + atom_cost) * (np.exp(-lam * T_max) / lam)
    for step in range(grid.n_t - 2, -1, -1):
        value = _naive_dp_step(value, weights[step], moves, slopes, cost, atom_cost)
    return value[int(np.argmin(np.abs(states - x0)))]


def _forbidden_bands(x):
    """A perturbation that is +inf (a forbidden state) on bands of x."""
    return np.where(np.cos(3.0 * x[..., 0]) > 0.9, np.inf, 0.5 * np.sin(x[..., 0]))


_DP_PERTURBATIONS = {
    "none": None,
    "runge": make_perturbation("runge_decay", 1, amplitude=1.0),
    "atom": make_perturbation("neg_spike", 1, depth=1.0, width=0.0),
    "spike_and_atom": make_perturbation("neg_spike", 1, depth=0.7, width=0.3),
    "forbidden": Perturbation(1, _forbidden_bands, sign_class="signed", sup_bound=np.inf),
}


@st.composite
def _slope_sets(draw):
    kind = draw(st.sampled_from(["symmetric", "one_signed", "single"]))
    top = draw(st.floats(0.1, 8.0))
    if kind == "single":
        return [draw(st.floats(-8.0, 8.0))]
    count = draw(st.integers(2, 25))
    if kind == "symmetric":
        return np.linspace(-top, top, count)
    low = draw(st.floats(0.0, top))
    sign = draw(st.sampled_from([-1.0, 1.0]))
    return sign * np.linspace(low, top, count)


def _outcome(solve):
    """The solver's value, or the name of the error it raised."""
    try:
        value = solve()
    except (InputError, SolverError) as exc:
        return type(exc).__name__
    return value if np.isfinite(value) else "SolverError"


@settings(max_examples=150, deadline=None)
@given(
    n_x=st.integers(3, 400),
    n_t=st.integers(2, 60),
    symmetric=st.booleans(),
    perturbation=st.sampled_from(sorted(_DP_PERTURBATIONS)),
    slope_set=_slope_sets(),
    eps=st.sampled_from([0.05, 0.3, 1.0]),
    lam=st.floats(0.3, 3.0),
    T_max=st.floats(0.5, 5.0),
    data=st.data(),
)
def test_swept_cone_dp_equals_the_full_lattice_bitwise(
    n_x, n_t, symmetric, perturbation, slope_set, eps, lam, T_max, data
):
    grid = DPGrid(-1.0, 1.0, n_x, n_t) if symmetric else DPGrid(-0.7, 1.3, n_x, n_t)
    V = make_potential("sin2", 1)
    W = _DP_PERTURBATIONS[perturbation]
    states = grid.states()
    a, b, x0 = (float(states[data.draw(st.integers(0, n_x - 1))]) for _ in range(3))

    got = _outcome(lambda: dp_oracle_1d(V, W, eps, 0.0, 1.0, a, b, grid, slope_set=slope_set))
    want = _outcome(lambda: _naive_dp_1d(V, W, eps, a, b, grid, slope_set))
    assert got == want
    got = _outcome(
        lambda: dp_oracle_halfline(V, W, eps, lam, x0, T_max, grid, slope_set=slope_set)
    )
    want = _outcome(lambda: _naive_dp_halfline(V, W, eps, lam, x0, T_max, grid, slope_set))
    assert got == want


def _full_grid_sweep(value, moves, stages, n_steps, weights):
    """Every state, every move, every step: the values after each step."""
    out = []
    for j in range(n_steps):
        best = np.full(value.size, np.inf)
        for k, stage in zip(moves, stages):
            for i in range(max(0, -k), value.size - max(0, k)):
                c = stage[i] if weights is None else weights[j] * stage[i]
                best[i] = min(best[i], c + value[i + k])
        value = best
        out.append(value)
    return out


@settings(max_examples=120, deadline=None)
@given(
    n_x=st.integers(2, 40),
    n_steps=st.integers(1, 12),
    moves=st.lists(st.integers(-5, 5), min_size=1, max_size=6, unique=True).map(sorted),
    discounted=st.booleans(),
    data=st.data(),
)
def test_dp_sweep_reads_whole_fields_and_backtracks_their_costs(
    n_x, n_steps, moves, discounted, data
):
    """Read-outs equal the full-grid sweep bit for bit, recording moves changes
    no value, and the backtracked path from every finite state, its stage costs
    re-summed from the far end, costs exactly that state's value."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    stages = [np.where(rng.random(n_x) < 0.1, np.inf, rng.uniform(0.0, 2.0, n_x)) for _ in moves]
    lo = data.draw(st.integers(0, n_x - 1))
    hi = data.draw(st.integers(lo, n_x - 1))
    start = np.full(n_x, np.inf)
    start[lo : hi + 1] = rng.uniform(-1.0, 1.0, hi - lo + 1)
    weights = rng.uniform(0.1, 1.0, n_steps) if discounted else None
    read_at = sorted(data.draw(st.sets(st.integers(1, n_steps), min_size=1)))

    want = _full_grid_sweep(start, moves, stages, n_steps, weights)
    value, reads, arg = _dp_sweep(
        start.copy(), lo, hi, np.array(moves), stages, n_steps, weights=weights,
        read_at=read_at, record=True,
    )
    plain, plain_reads, no_arg = _dp_sweep(
        start.copy(), lo, hi, np.array(moves), stages, n_steps, weights=weights, read_at=read_at
    )
    assert no_arg is None
    assert np.array_equal(value, want[-1]) and np.array_equal(plain, want[-1])
    for n, read, plain_read in zip(read_at, reads, plain_reads):
        assert np.array_equal(read, want[n - 1]) and np.array_equal(plain_read, want[n - 1])
        for i in np.flatnonzero(np.isfinite(read)):
            path, taken = [int(i)], []
            for j in range(n - 1, -1, -1):
                m = int(arg[j, path[-1]])
                taken.append((j, m, path[-1]))
                path.append(path[-1] + moves[m])
            total = start[path[-1]]
            for j, m, state in reversed(taken):
                c = stages[m][state] if weights is None else weights[j] * stages[m][state]
                total = c + total
            assert total == read[i]


def _per_move_sweep(
    value, lo, hi, moves, stages, n_steps, target=None, weights=None, atom=None,
    read_at=(), record=False,
):
    """The swept-cone lattice DP one move at a time: a Python loop over the
    moves of each step, each updating the best value by a strict `<`."""
    n_x = value.size
    moves = moves.tolist()
    kmin, kmax = moves[0], moves[-1]
    best = np.full(n_x, np.inf)
    cand = np.empty(n_x)
    arg = np.empty((n_steps, n_x), np.min_scalar_type(len(moves))) if record else None
    reads = []
    for j in range(n_steps):
        new_lo = max(lo - kmax, 0)
        new_hi = min(hi - kmin, n_x - 1)
        if target is not None:
            left = n_steps - 1 - j
            new_lo = max(new_lo, target + left * kmin)
            new_hi = min(new_hi, target + left * kmax)
        if new_hi < new_lo:
            value[:] = np.inf
            break
        if target is None:
            best.fill(np.inf)
        else:
            best[new_lo : new_hi + 1] = np.inf
        for m, (k, stage) in enumerate(zip(moves, stages)):
            i0 = max(new_lo, lo - k)
            i1 = min(new_hi, hi - k) + 1
            if i1 <= i0:
                continue
            c = cand[: i1 - i0]
            if weights is None:
                np.add(stage[i0:i1], value[i0 + k : i1 + k], out=c)
            else:
                np.multiply(weights[j], stage[i0:i1], out=c)
                if k == 0 and atom is not None:
                    np.add(c, weights[j] * atom[i0:i1], out=c)
                np.add(c, value[i0 + k : i1 + k], out=c)
            b = best[i0:i1]
            if record:
                mask = c < b
                np.copyto(b, c, where=mask)
                np.copyto(arg[j, i0:i1], m, where=mask)
            else:
                np.minimum(b, c, out=b)
        value, best = best, value
        lo, hi = new_lo, new_hi
        if j + 1 in read_at:
            reads.append(value.copy())
    return value, reads, arg


@st.composite
def _move_sets(draw):
    """Sorted unique moves: a contiguous run, or any set (gaps, one sign, one move)."""
    if draw(st.booleans()):
        first = draw(st.integers(-6, 6))
        return list(range(first, first + draw(st.integers(1, 9))))
    return sorted(draw(st.sets(st.integers(-7, 7), min_size=1, max_size=7)))


@settings(max_examples=200, deadline=None)
@given(
    n_x=st.integers(1, 50),
    n_steps=st.integers(1, 14),
    moves=_move_sets(),
    discounted=st.booleans(),
    with_atom=st.booleans(),
    aimed=st.booleans(),
    ties=st.booleans(),
    data=st.data(),
)
def test_stacked_dp_step_equals_the_per_move_loop_bitwise(
    n_x, n_steps, moves, discounted, with_atom, aimed, ties, data
):
    """The stacked sweep gives the per-move loop's value (at the target, given
    one), its read-outs and, wherever a read value is finite, its moves. With
    `ties`, every number is a multiple of 1/4, so equal candidates are common
    and the first minimal move must win."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))

    def numbers(lo, hi, size):
        return rng.integers(4 * lo, 4 * hi + 1, size) / 4 if ties else rng.uniform(lo, hi, size)

    stages = np.where(rng.random((len(moves), n_x)) < 0.1, np.inf,
                      numbers(0.0, 2.0, (len(moves), n_x)))
    lo = data.draw(st.integers(0, n_x - 1))
    hi = data.draw(st.integers(lo, n_x - 1))
    start = np.full(n_x, np.inf)
    start[lo : hi + 1] = np.where(rng.random(hi - lo + 1) < 0.2, np.inf,
                                  numbers(-1.0, 1.0, hi - lo + 1))
    weights = np.maximum(numbers(0.0, 1.0, n_steps), 0.05) if discounted else None
    atom = numbers(-0.5, 0.5, n_x) if discounted and with_atom else None
    target = data.draw(st.integers(0, n_x - 1)) if aimed else None
    read_at = sorted(data.draw(st.sets(st.integers(1, n_steps), min_size=1)))
    kwargs = dict(target=target, weights=weights, atom=atom, read_at=read_at)

    want, want_reads, want_arg = _per_move_sweep(
        start.copy(), lo, hi, np.array(moves), list(stages), n_steps, record=True, **kwargs
    )
    kept = start.copy()
    value, reads, arg = _dp_sweep(start, lo, hi, np.array(moves), stages, n_steps,
                                  record=True, **kwargs)
    plain, plain_reads, _ = _dp_sweep(start, lo, hi, np.array(moves), stages, n_steps, **kwargs)
    assert np.array_equal(start, kept)  # the sweep leaves its input alone
    if target is None:
        assert np.array_equal(value, want) and np.array_equal(plain, want)
    else:
        assert np.array_equal(value[target], want[target])
        assert np.array_equal(plain[target], want[target])
    assert len(reads) == len(plain_reads) == len(want_reads)
    for n, read, plain_read, want_read in zip(read_at, reads, plain_reads, want_reads):
        assert np.array_equal(read, plain_read)
        finite = np.isfinite(read)
        if target is None:  # outside the cone, the per-move loop keeps stale values
            assert np.array_equal(read, want_read)
        assert np.array_equal(read[finite], want_read[finite])
        assert np.array_equal(arg[n - 1][finite], want_arg[n - 1][finite])


def test_discounted_lattice_seeds_survive_underflowing_weights(sin2_1d):
    """Past lam * t ~ 745 the step weights underflow to 0; the sweep still
    charges nothing there, so a long horizon gives the short one's values."""
    x = np.array([0.0, 0.1, 0.3])
    long_run = _lattice_seeds(sin2_1d, None, 0.4, x, 800.0, [800.0], lam=1.0)
    short_run = _lattice_seeds(sin2_1d, None, 0.4, x, 40.0, [40.0], lam=1.0)
    assert long_run[0]["steps"] == 20 * short_run[0]["steps"]
    (long_values, _), (short_values, _) = long_run[2][0], short_run[2][0]
    assert np.all(np.isfinite(long_values))
    np.testing.assert_allclose(long_values, short_values, rtol=0.0, atol=1e-12)


def _nan_at_quarter(x):
    return np.where(x[..., 0] == 0.25, np.nan, 0.0)


def test_dp_oracles_reject_a_nan_stage_cost():
    V = make_potential("zero", 1)
    W = Perturbation(1, _nan_at_quarter, sign_class="signed")
    # the NaN state 0.25 sits far outside the cone between a = b = -1.0
    grid = DPGrid(-1.0, 1.0, 9, 3)
    with pytest.raises(SolverError, match=r"state 5 \(x = 0\.25\) is nan"):
        dp_oracle_1d(V, W, 1.0, 0.0, 1.0, -1.0, -1.0, grid, slope_set=[0.0])
    with pytest.raises(SolverError, match=r"state 5 \(x = 0\.25\) is nan"):
        dp_oracle_halfline(V, W, 1.0, 1.0, -1.0, 2.0, grid, slope_set=[0.0])


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
    L = GeneralLagrangian(V)
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


@pytest.mark.parametrize("d", [1, 2])
def test_newton_steps_double_the_shift_of_adjacent_indefinite_starts(d):
    """Starts 1-3 have a positive main diagonal, so their shift starts at 0,
    yet are indefinite: each retry must resume at its own start, from its
    unfactored columns, with the shift doubled until the factorization holds."""
    rng = np.random.default_rng(10 + d)
    B, n = 5, 6
    diag = np.broadcast_to(np.eye(d), (B, n, d, d)).copy()
    off = np.broadcast_to(-1.5 * np.eye(d), (B, n - 1, d, d)).copy()
    off[[0, 4]] *= 0.2  # starts 0 and 4 positive definite
    grad = rng.normal(size=(B, n, d))
    steps, dec = _newton_steps(diag, off, grad)
    floor = 1e-3 + np.finfo(float).tiny
    for b in range(B):
        H = _dense(diag[b], off[b])
        p, g = steps[b].reshape(-1), grad[b].reshape(-1)
        tau = -float((H @ p + g) @ p) / float(p @ p)
        low = np.min(np.linalg.eigvalsh(H))
        if b in (0, 4):
            assert low > 0 and tau == pytest.approx(0.0, abs=1e-9)
        else:
            assert low < 0 and tau > -low and tau >= 4 * floor
            doublings = np.log2(tau / floor)
            assert doublings == pytest.approx(round(doublings), abs=1e-6)
        shifted = np.linalg.solve(H + tau * np.eye(n * d), -g)
        np.testing.assert_allclose(p, shifted, rtol=1e-9, atol=1e-12)
        assert dec[b] == pytest.approx(-float(g @ p))


def test_newton_records_convergence_of_the_winning_start(std_opt, quad, sin2_1d, runge_1d):
    u, _ = minimize_bvp(sin2_1d, runge_1d, 0.05, 0.0, 1.0, 0.0, 1.0, 249, std_opt, quad)
    assert u.meta["converged"]
    assert u.meta["grad_norm"] <= 1e-8
    assert 1 <= u.meta["iterations"] < 100


# -- the Newton kernel's reuse of values ----------------------------------------


def _kernel_action(d, with_w, halfline, eps, V=None):
    """A pinned eps-action on [0, 2], or the half-line action (free last node,
    constant tail) on [0, 5] at discount 1, over sin2 and optionally Runge W."""
    V = make_potential("sin2", d) if V is None else V
    W = make_perturbation("runge_decay", d, amplitude=1.0) if with_w else None
    if not halfline:
        return _Action.eps_action(V, W, eps, np.linspace(0.0, 2.0, 17), 4)
    times = np.linspace(0.0, 5.0, 21)
    weights = exp_interval_weights(sub_interval_edges(times, 4), 1.0)
    kinetic = exp_interval_weights(times, 1.0) / np.diff(times) ** 2
    return _Action(V, W, eps, kinetic, weights, float(np.exp(-5.0)), last_free=True)


_kernel_cases = dict(
    d=st.sampled_from([1, 2]),
    with_w=st.booleans(),
    halfline=st.booleans(),
    eps=st.floats(0.05, 1.0),
    seed=st.integers(0, 2**16),
)


@settings(max_examples=40, deadline=None)
@given(**_kernel_cases, rows=st.lists(st.booleans(), min_size=5, max_size=5))
def test_action_rows_do_not_depend_on_the_rest_of_the_batch(d, with_w, halfline, eps, seed, rows):
    """The value and derivatives of any sub-batch are the full batch's rows, bit
    for bit. The solver relies on it: a start's accepted line-search value is its
    value in the next sweep's batch, and a start that stops without moving keeps
    the gradient norm of the batch it was last evaluated in."""
    action = _kernel_action(d, with_w, halfline, eps)
    x = np.random.default_rng(seed).uniform(-1.5, 1.5, size=(5, action.kinetic.size + 1, d))
    keep = np.array(rows)
    assert np.array_equal(action.value(x[keep]), action.value(x)[keep])
    for part, whole in zip(action.derivatives(x[keep]), action.derivatives(x)):
        assert np.array_equal(part, whole[keep])


@pytest.mark.parametrize("halfline", [False, True], ids=["pinned", "half-line"])
@pytest.mark.parametrize("with_w", [False, True], ids=["V", "V+W"])
@pytest.mark.parametrize("d", [1, 2])
def test_one_potential_pass_per_accepted_full_step(d, with_w, halfline):
    """Counting V's evaluator over path samples: one pass for the starts, then
    one per line-search trial, and none inside the derivatives, the value of
    an accepted step being the one the line search found. Started near its minimizer, where Newton
    takes full steps, a solve makes one pass per step, not two."""
    base = make_potential("sin2", d)
    passes, in_derivatives = [], []

    def counting(y, _evaluate=base.evaluator):
        if y.ndim == 4:  # path samples; the half-line tail evaluates the last node alone
            passes.append(bool(in_derivatives))
        return _evaluate(y)

    action = _kernel_action(d, with_w, halfline, 0.5, V=dataclasses.replace(base, evaluator=counting))
    derivatives = action.derivatives

    def tracked(*args, **kwargs):
        in_derivatives.append(True)
        try:
            return derivatives(*args, **kwargs)
        finally:
            in_derivatives.pop()

    action.derivatives = tracked
    N, opt = action.kinetic.size + 1, OptimizerSpec(max_iters=50, restarts=0)
    starts = _start_stack(
        np.linspace(0.0, 1.0, N), np.zeros((1, d)), np.full((1, d), 0.7), np.zeros((1, 0, N, d)), 0, 0
    )
    _, nodes, _ = _solve(action, starts, opt)
    near = nodes[:, None].copy()
    near[..., 1:-1, :] += 1e-3 * np.sin(np.linspace(0.0, np.pi, N))[1:-1, None]
    passes.clear()
    _, _, [record] = _solve(action, near, opt)
    assert record["converged"] and record["iterations"] >= 1
    assert not any(passes)
    assert len(passes) == record["iterations"] + 1
