"""Boundary-value minimizers against closed forms and the DP oracle."""

import dataclasses
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homoglab import (
    DPGrid,
    InputError,
    InvariantError,
    OptimizerSpec,
    QuadratureSpec,
    Trajectory,
    action_G,
    dp_oracle_1d,
    dp_oracle_halfline,
    make_initial_datum,
    make_perturbation,
    make_potential,
    minimize_bvp,
    minimize_bvp_batch,
    minimize_halfline,
    minimize_lagrangian_bvp,
    s_eps,
    solve_evolutionary_eps,
    solve_steady_eps,
    solve_steady_hom,
    tabulate_f_hom,
    SolverError,
)
from homoglab import minimize
from homoglab.minimize import (
    _Action,
    _Problems,
    _dp_sweep,
    _lattice_moves,
    _lattice_seeds,
    _newton_steps,
    _seed_nodes,
    _solve,
    _start_stack,
)
from homoglab.potentials import GeneralLagrangian, Perturbation, eval_potential
from homoglab.quadrature import exp_interval_weights, sub_interval_edges


def test_bvp_free_particle_is_straight_line(std_opt, quad, zero_1d):
    u, val = minimize_bvp(zero_1d, None, 0.1, 2.0, 0.0, 3.0, 41, std_opt, quad)
    assert val == pytest.approx(4.5, abs=1e-8)
    expected = np.linspace(0.0, 3.0, u.times.size)
    np.testing.assert_allclose(u.nodes[:, 0], expected, atol=1e-5)


def test_bvp_constant_shift_exactness(std_opt, quad, sin2_1d):
    """Adding W = c shifts the minimum by exactly c * (t1 - t0)."""
    W = make_perturbation("constant", 1, value=0.5)
    _, base = minimize_bvp(sin2_1d, None, 0.2, 1.0, 0.0, 1.0, 65, std_opt, quad)
    _, shifted = minimize_bvp(sin2_1d, W, 0.2, 1.0, 0.0, 1.0, 65, std_opt, quad)
    assert shifted - base == pytest.approx(0.5, abs=1e-8)


def test_bvp_agrees_with_dp_oracle(std_opt, quad, sin2_1d):
    eps, xi = 0.2, 1.0
    _, val = minimize_bvp(sin2_1d, None, eps, 1.0, 0.0, xi, 129, std_opt, quad)
    dp = dp_oracle_1d(sin2_1d, None, eps, 1.0, 0.0, xi,
                      DPGrid(-0.6, 1.6, 1921, 121), slope_set=np.linspace(-4, 4, 129))
    assert val == pytest.approx(dp, rel=0.02)


def test_bvp_refinement_consistency(std_opt, quad, sin2_1d):
    _, coarse = minimize_bvp(sin2_1d, None, 0.1, 1.0, 0.0, 1.0, 65, std_opt, quad)
    _, fine = minimize_bvp(sin2_1d, None, 0.1, 1.0, 0.0, 1.0, 129, std_opt, quad)
    assert fine == pytest.approx(coarse, rel=5e-3)
    # refining the node set can only improve (or match) the minimum
    assert fine <= coarse + 1e-6


def test_bvp_warm_start_never_hurts(std_opt, quad, sin2_1d):
    t = np.linspace(0.0, 1.0, 65)
    warm = Trajectory(t, (t * 1.0)[:, None])
    _, cold_val = minimize_bvp(sin2_1d, None, 0.1, 1.0, 0.0, 1.0, 65, std_opt, quad)
    _, warm_val = minimize_bvp(
        sin2_1d, None, 0.1, 1.0, 0.0, 1.0, 65, std_opt, quad, warm_starts=(warm,)
    )
    assert warm_val <= cold_val + 1e-7


@settings(max_examples=40, deadline=None)
@given(
    d=st.sampled_from([1, 2]),
    with_w=st.booleans(),
    unit_eps=st.booleans(),
    eps=st.floats(0.05, 0.9),
    seed=st.integers(0, 2**16),
)
def test_bvp_batch_matches_single(d, with_w, unit_eps, eps, seed):
    """A 3-problem batch gives each problem, bit for bit, the solver value,
    certified value, nodes and solver record it gets alone. Solver values are
    compared with solver values: minimize_bvp returns the certified one,
    which may differ by up to 1e-10. The drawn ends and the two sine-bumped
    warm starts of each problem spread the starts' iteration counts, so the
    batch runs with starts converged, beaten and halving their steps while
    others take full ones."""
    V = make_potential("sin2", d)
    W = make_perturbation("runge_decay", d, amplitude=1.0) if with_w else None
    eps = 1.0 if unit_eps else eps
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(-1.0, 1.0, (3, d)), rng.uniform(-1.0, 2.0, (3, d))
    tau = np.linspace(0.0, 1.0, 33)
    modes = np.arange(1, 5)
    sines = np.sin(np.pi * modes[:, None] * tau)  # (4, 33), zero at both ends
    affine = a[:, None] * (1 - tau[:, None]) + b[:, None] * tau[:, None]  # (3, 33, d)
    bumps = rng.normal(size=(3, 2, 4, d)) / modes[:, None]
    warm = affine[:, None] + np.einsum("pwjk,jn->pwnk", bumps, sines)  # (3, 2, 33, d)
    quad, opt = QuadratureSpec(), OptimizerSpec(max_iters=200)
    values, certified, nodes, times, records = minimize._solve_pinned(
        V, W, eps, 1.5, a, b, 33, opt, quad, warm
    )
    assert nodes.shape == (3, times.size, d)
    for p in range(3):
        alone = minimize._solve_pinned(
            V, W, eps, 1.5, a[p : p + 1], b[p : p + 1], 33, opt, quad, warm[p : p + 1]
        )
        assert values[p] == alone[0][0]
        assert certified[p] == alone[1][0]
        assert np.array_equal(nodes[p], alone[2][0])
        assert records[p] == alone[4][0]


def test_bvp_value_certified_against_action(std_opt, quad, sin2_1d):
    u, val = minimize_bvp(sin2_1d, None, 0.2, 1.0, 0.0, 1.0, 65, std_opt, quad)
    assert action_G(u, sin2_1d, None, 0.2, quad) == pytest.approx(val, abs=1e-9)


def test_bvp_rejects_bad_window(std_opt, quad, sin2_1d):
    with pytest.raises(InputError):
        minimize_bvp(sin2_1d, None, 0.1, 0.0, 0.0, 1.0, 33, std_opt, quad)
    with pytest.raises(InputError):
        minimize_bvp(sin2_1d, None, -0.1, 1.0, 0.0, 1.0, 33, std_opt, quad)


_V = make_potential("sin2", 1)
_GRID = DPGrid(-1.0, 1.0, 81, 21)
_X = np.linspace(-0.2, 0.2, 3)
_FAST = OptimizerSpec(max_iters=5)


def _evolutionary(eps):
    phi = make_initial_datum("abs_min", 1)
    return solve_evolutionary_eps(_V, None, eps, phi, _X, [0.5], np.linspace(-1.0, 1.0, 21), _FAST)


@pytest.mark.parametrize(
    "solve, shown",
    [
        (lambda: dp_oracle_1d(_V, None, -0.1, 1.0, 0.0, 0.5, _GRID), "eps=-0.1"),
        (lambda: dp_oracle_1d(_V, None, np.inf, 1.0, 0.0, 0.5, _GRID), "eps=inf"),
        (lambda: dp_oracle_1d(_V, None, 0.0, 1.0, 0.0, 0.5, _GRID), "eps=0.0"),
        (lambda: dp_oracle_1d(_V, None, [0.1, 0.0], 1.0, 0.0, 0.5, _GRID), "eps=0.0"),
        (lambda: dp_oracle_1d(_V, None, 0.1, np.inf, 0.0, 0.5, _GRID), "t=inf"),
        (lambda: dp_oracle_halfline(_V, None, 0.1, 1.0, 0.0, -1.0, _GRID), "T_max=-1.0"),
        (lambda: dp_oracle_halfline(_V, None, 0.1, 1.0, 0.0, 0.0, _GRID), "T_max=0.0"),
        (lambda: dp_oracle_halfline(_V, None, -0.1, 1.0, 0.0, 6.0, _GRID), "eps=-0.1"),
        (lambda: dp_oracle_halfline(_V, None, 0.1, np.inf, 0.0, 6.0, _GRID), "lam=inf"),
        (lambda: solve_steady_eps(_V, None, -0.1, 1.0, _X, _FAST), "eps=-0.1"),
        (lambda: solve_steady_eps(_V, None, 0.0, 1.0, _X, _FAST), "eps=0.0"),
        (lambda: solve_steady_eps(_V, None, np.nan, 1.0, _X, _FAST), "eps=nan"),
        (lambda: solve_steady_eps(_V, None, 0.1, np.inf, _X, _FAST), "lam=inf"),
        (lambda: solve_steady_hom(tabulate_f_hom(_V, _X), np.inf, _X), "lam=inf"),
        (lambda: _evolutionary(-0.1), "eps=-0.1"),
        (lambda: _evolutionary(0.0), "eps=0.0"),
        (lambda: minimize_bvp(_V, None, 0.1, np.inf, 0.0, 1.0, 33, _FAST), "t=inf"),
        (lambda: minimize_halfline(_V, None, np.inf, 1.0, 0.0, 6.0, 33, _FAST), "eps=inf"),
        (lambda: minimize_halfline(_V, None, 0.1, np.inf, 0.0, 6.0, 33, _FAST), "lam=inf"),
        (lambda: minimize_halfline(_V, None, 0.1, 1.0, 0.0, np.nan, 33, _FAST), "T_max=nan"),
        (lambda: s_eps(_V, None, 0.1, 0.0, 0.5, -1.0, _FAST), "t=-1.0"),
    ],
    ids=[
        "dp-eps-negative", "dp-eps-inf", "dp-eps-0", "dp-stacked-eps-0", "dp-t-inf",
        "halfline-dp-T-negative", "halfline-dp-T-0", "halfline-dp-eps-negative",
        "halfline-dp-lam-inf", "steady-eps-negative", "steady-eps-0", "steady-eps-nan",
        "steady-lam-inf", "steady-hom-lam-inf", "evolutionary-eps-negative", "evolutionary-eps-0", "bvp-t-inf",
        "halfline-eps-inf", "halfline-lam-inf", "halfline-T-nan", "s-eps-t-negative",
    ],
)
def test_every_solver_refuses_a_bad_window_by_value(solve, shown):
    """A t, eps or lam that is not positive and finite is an InputError naming
    the value (the half-line solvers' horizon by its own name, T_max), raised before anything is built: no warning, no other error
    and no value."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match=re.escape(shown)):
            solve()


def test_a_tiny_window_squares_no_gradient_or_slope_past_a_float():
    """At t = 1e-300 the Newton solve's roundoff gradient (about 1e286) and
    the lattice's slopes (above 1e300) square past the largest float. The
    Newton solvers take that norm without squaring it and return a certified
    value, |b - a|^2 / t to roundoff; dp_oracle_1d refuses the window by
    value, before its costs. No warning is raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = s_eps(_V, None, 0.1, 0.0, 0.5, 1e-300)
        path, same = minimize_bvp(_V, None, 0.1, 1e-300, 0.0, 0.5, 33, OptimizerSpec())
        with pytest.raises(InputError, match=re.escape("the window [0.0, 1e-300] reach 2e+300")):
            dp_oracle_1d(_V, None, 0.1, 1e-300, 0.0, 0.5, _GRID)
    assert value == same == pytest.approx(0.25 / 1e-300, rel=1e-12)
    assert 1e280 < path.meta["grad_norm"] < np.inf


@pytest.mark.parametrize(
    "dimension,name,params",
    [
        (1, "indicator_ball", {}),
        (2, "indicator_ball", {}),
        (1, "neg_spike", {"depth": 1.0, "width": 0.5}),
        (2, "parabola_example", {}),
    ],
)
def test_newton_solvers_reject_a_w_without_closed_form_derivatives(
    fast_opt, dimension, name, params
):
    V = make_potential("sin2", dimension)
    W = make_perturbation(name, dimension, **params)
    a, b = np.zeros(dimension), np.ones(dimension)
    match = "no closed-form gradient and Hessian.*dp_oracle_1d"
    with pytest.raises(InputError, match=match):
        minimize_bvp(V, W, 0.2, 1.0, a, b, 33, fast_opt)
    with pytest.raises(InputError, match=match):
        minimize_bvp_batch(V, W, 0.2, 1.0, a[None], b, 33, fast_opt)
    with pytest.raises(InputError, match=match):
        minimize_halfline(V, W, 0.2, 1.0, a, 5.0, 33, fast_opt)


def test_newton_solvers_reject_a_v_without_a_closed_form_hessian_and_a_zero_atom(fast_opt):
    V = make_potential("sin2", 1)
    bare = dataclasses.replace(V, hessian=None)
    atom = make_perturbation("neg_spike", 1, depth=1.0, width=0.0)
    a, b = np.zeros(1), np.ones(1)
    for V_, W, match in ((bare, None, "'sin2' declares no"), (V, atom, "zero atom")):
        with pytest.raises(InputError, match=match):
            minimize_bvp(V_, W, 0.2, 1.0, a, b, 33, fast_opt)
        with pytest.raises(InputError, match=match):
            minimize_bvp_batch(V_, W, 0.2, 1.0, a[None], b, 33, fast_opt)
        with pytest.raises(InputError, match=match):
            minimize_halfline(V_, W, 0.2, 1.0, a, 5.0, 33, fast_opt)


def test_halfline_checks_its_node_count_before_building_a_node_array(monkeypatch, fast_opt):
    """2^20 + 1 nodes are refused, naming eps and the window, as a pinned
    solve refuses them, before the half-line solve builds its weights."""

    def unreachable(*args, **kwargs):
        raise AssertionError("the half-line solve built its node arrays")

    monkeypatch.setattr(minimize, "sub_interval_edges", unreachable)
    monkeypatch.setattr(minimize, "exp_interval_weights", unreachable)
    V = make_potential("sin2", 1)
    for n_nodes in (1, 2**20 + 1):
        with pytest.raises(InputError, match=rf"need 2 to 2\^20 nodes, got {n_nodes} "
                                             r"\(eps=0\.2, window \[0\.0, 8\.0\]\)"):
            minimize_halfline(V, None, 0.2, 1.0, np.zeros(1), 8.0, n_nodes, fast_opt)


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(["sin2", "cos_sum"]),
    eps=st.sampled_from([0.05, 0.1, 0.2, 0.5]),
    k=st.integers(-7, 7),
    a=st.floats(-1.0, 1.0),
    b=st.floats(-1.0, 1.0),
    t=st.floats(0.3, 1.5),
)
def test_minimal_action_is_invariant_under_eps_lattice_shifts(std_opt, name, eps, k, a, b, t):
    """V(x / eps) has period eps, so S(a + eps k, b + eps k) = S(a, b): the
    starts are the shifted ones, and only rounding differs. The solves take
    the hj node rule, 8 t / eps + 9 nodes (at least 33)."""
    V = make_potential(name, 1)
    n_nodes = max(33, int(8 * t / eps) + 9)
    _, value = minimize_bvp(V, None, eps, t, a, b, n_nodes, std_opt)
    _, shifted = minimize_bvp(V, None, eps, t, a + eps * k, b + eps * k, n_nodes, std_opt)
    assert abs(shifted - value) <= 1e-12 * max(1.0, abs(value))


@pytest.mark.parametrize("end", [0.0, 1e-10], ids=["gradient", "roundoff"])
def test_a_start_stopped_on_a_saddle_is_unconverged(std_opt, end):
    """cos_sum(x / 0.05) has its maximum at 0, so the constant path at 0 is a
    stationary point of the action with an indefinite Hessian. From a = b = 0
    the affine start passes the gradient test at once; from a = b = 1e-10 its
    first Newton step, on the shifted Hessian, is at roundoff. Either way the
    solve stops on the saddle, at action 1 (the maximum over a unit window),
    and says it has not converged."""
    V = make_potential("cos_sum", 1)
    u, value = minimize_bvp(V, None, 0.05, 1.0, end, end, 169, std_opt)
    assert value == pytest.approx(1.0, abs=1e-12)
    assert u.meta["iterations"] <= 1
    assert not u.meta["converged"]


def test_dp_oracle_free_particle():
    V = make_potential("zero", 1)
    dp = dp_oracle_1d(V, None, 0.1, 1.0, 0.0, 1.0,
                      DPGrid(-0.5, 1.5, 801, 81), slope_set=np.linspace(-4, 4, 161))
    assert dp == pytest.approx(1.0, rel=0.01)


def test_dp_oracle_charges_negative_atom():
    V = make_potential("zero", 1)
    atom = make_perturbation("neg_spike", 1, depth=1.0, width=0.0)
    grid = DPGrid(-1.0, 1.0, 801, 81)
    assert 0.0 in np.abs(grid.states())
    val = dp_oracle_1d(V, atom, 0.1, 1.0, 0.0, 0.0, grid,
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

    got = _outcome(lambda: dp_oracle_1d(V, W, eps, 1.0, a, b, grid, slope_set=slope_set))
    want = _outcome(lambda: _naive_dp_1d(V, W, eps, a, b, grid, slope_set))
    assert got == want
    got = _outcome(
        lambda: dp_oracle_halfline(V, W, eps, lam, x0, T_max, grid, slope_set=slope_set)
    )
    want = _outcome(lambda: _naive_dp_halfline(V, W, eps, lam, x0, T_max, grid, slope_set))
    assert got == want


def _oracle_sweep(monkeypatch, *args, **kwargs):
    """The one sweep that a one-problem dp_oracle_1d(*args, **kwargs) runs, as
    the arguments of the same sweep over its whole stage table, and its
    outcome (see _outcome); no arguments if it raised before sweeping. The
    bound (limit, kinetic, rate) is None where it prunes nothing."""
    calls = []

    def capturing(*sweep_args, **sweep_kwargs):
        calls.append((sweep_args, sweep_kwargs))
        return _dp_sweep(*sweep_args, **sweep_kwargs)

    monkeypatch.setattr(minimize, "_dp_sweep", capturing)
    outcome = _outcome(lambda: dp_oracle_1d(*args, **kwargs))
    assert len(calls) <= 1
    if not calls:
        return None, outcome
    (value, lo, hi, moves, stages, n_steps, span), sweep = calls[0]
    assert value.shape[0] == 1
    stages = stages(0, value.shape[1])[0]
    bound = None
    if sweep["bound"] is not None and np.isfinite(sweep["bound"][0][0]):
        limit, kinetic, rate, _ = sweep["bound"]
        bound = (limit[0], kinetic, rate[0])
    return ((value[0], lo, hi, moves, stages, n_steps, span), {"bound": bound}), outcome


def _straight_path_cost(moves, stages, ia, ib, n_steps):
    """The summed stages of the straight lattice path from ia to ib (see
    minimize._straight_path), +inf without one."""
    path = minimize._straight_path(moves, ia, ib, n_steps)
    return np.inf if path is None else float(np.sum(stages[path]))


def _forward_costs(moves, stages, ia, n_steps):
    """F[r, i]: the least cost of an r-step lattice path from state ia to state
    i (r = 0..n_steps), over the full grid, one move at a time."""
    n_x = stages.shape[1]
    F = np.full((n_steps + 1, n_x), np.inf)
    F[0, ia] = 0.0
    for r in range(n_steps):
        for m, k in enumerate(moves.tolist()):
            src = slice(max(0, -k), n_x - max(0, k))
            dst = slice(max(0, k), n_x + min(0, k))
            np.minimum(F[r + 1, dst], F[r, src] + stages[m, src], out=F[r + 1, dst])
    return F


@settings(max_examples=200, deadline=None)
@given(
    n_x=st.integers(3, 80),
    n_t=st.integers(2, 40),
    symmetric=st.booleans(),
    perturbation=st.sampled_from(sorted(_DP_PERTURBATIONS)),
    slope_set=_slope_sets(),
    moves=st.none() | st.tuples(st.integers(-6, 0), st.integers(0, 6)),
    eps=st.sampled_from([0.05, 0.3, 1.0]),
    data=st.data(),
)
def test_the_dp_bound_holds_on_every_lattice_path(
    n_x, n_t, symmetric, perturbation, slope_set, moves, eps, data
):
    """dp_oracle_1d's bound is sound: the straight path's cost is at least the
    optimum, and at every step count r and state i, kinetic (i - ia)^2 / r +
    r rate is at most the least cost of reaching i from a in r steps. Both
    hold to a thousandth of the margin the sweep adds to the straight cost.
    Without a finite straight path there is no bound. A symmetric grid has
    an odd state count, so its state 0 carries the atoms. Given `moves`, the
    slopes make every move from its first to its last entry, so a straight
    path mostly exists."""
    n_x += symmetric and n_x % 2 == 0
    grid = DPGrid(-1.0, 1.0, n_x, n_t) if symmetric else DPGrid(-0.7, 1.3, n_x, n_t)
    states = grid.states()
    if moves is not None:  # the slope of move k is k dx / h, with h = 1 / (n_t - 1)
        slope_set = np.arange(moves[0], moves[1] + 1) * (states[1] - states[0]) * (n_t - 1)
    V = make_potential("sin2", 1)
    W = _DP_PERTURBATIONS[perturbation]
    a, b = (float(states[data.draw(st.integers(0, n_x - 1))]) for _ in range(2))
    with pytest.MonkeyPatch.context() as patch:
        call, _ = _oracle_sweep(patch, V, W, eps, 1.0, a, b, grid, slope_set=slope_set)
    if call is None:  # no admissible move: refused before any sweep
        return
    (_, ib, _, moves, stages, n_steps, (ia, _)), kwargs = call
    straight = _straight_path_cost(moves, stages, ia, ib, n_steps)
    if kwargs["bound"] is None:
        assert straight == np.inf
        return
    limit, kinetic, rate = kwargs["bound"]
    assert np.isfinite(straight) and limit > straight
    slack = 1e-3 * (limit - straight)
    F = _forward_costs(moves, stages, ia, n_steps)
    assert straight >= F[n_steps, ib] - slack
    r = np.arange(1, n_steps + 1)[:, None]
    lower = kinetic * (np.arange(n_x) - ia) ** 2 / r + r * rate
    assert np.all(lower <= F[1:] + slack)


@pytest.mark.parametrize(
    "V,W,a,b,grid",
    [
        pytest.param("zero", None, 0.25, 0.25, DPGrid(-1.0, 1.0, 65, 17), id="zero V, a = b"),
        pytest.param(
            "zero", "atom", 0.0, 0.0, DPGrid(-2.0, 2.0, 129, 33), id="pure atom, exact sums"
        ),
        pytest.param(
            "zero", "atom", 0.0, 0.0, DPGrid(-2.0, 2.0, 12801, 1281), id="pure atom, negative run"
        ),
        pytest.param("flat", None, -0.5, 0.25, DPGrid(-1.0, 1.0, 65, 17), id="flat, tied paths"),
    ],
)
def test_the_bounded_sweep_keeps_the_value_where_paths_tie(monkeypatch, V, W, a, b, grid):
    """The straight path is optimal, and the bounded sweep returns the
    unbounded sweep's float. With zero V or a pure atom, each state of the
    straight path meets the pruning test with equality, before the margin. In
    the flat case 12870 orders of the moves 1 and 2 cost the same. On the
    grids with power-of-two steps every sum is exact, so the straight cost
    equals the optimum."""
    V = make_potential("constant", 1, value=0.5) if V == "flat" else make_potential(V, 1)
    W = _DP_PERTURBATIONS[W] if W else None
    call, value = _oracle_sweep(monkeypatch, V, W, 1.0, 1.0, a, b, grid)
    (start, ib, _, moves, stages, n_steps, span), kwargs = call
    assert kwargs["bound"] is not None
    ia = span[0]
    plain = _dp_sweep(start, ib, ib, moves, stages, n_steps, span)[ia]
    assert repr(value) == repr(float(plain))
    straight = _straight_path_cost(moves, stages, ia, ib, n_steps)
    if grid.n_t - 1 in (16, 32):
        assert straight == value
    else:  # pairwise and step-by-step sums of -1/1280 differ in the last bits
        assert abs(straight - value) < 1e-12


def _wall(x):
    """+inf right of x = 2, 0 left of it."""
    return np.where(x[..., 0] > 2.0, np.inf, 0.0)


_WALL = Perturbation(1, _wall, sign_class="signed", sup_bound=np.inf, name="wall")


def _stacked_outcome(solve):
    """The solver's values as reprs, so -0.0 and every bit count, or the name
    of the error it raised."""
    try:
        values = solve()
    except (InputError, SolverError) as exc:
        return type(exc).__name__
    return [repr(v) for v in values]


@settings(max_examples=200, deadline=None)
@given(
    n_x=st.integers(3, 120),
    n_t=st.integers(2, 40),
    symmetric=st.booleans(),
    slope_set=_slope_sets(),
    moves=st.none() | st.tuples(st.integers(-6, 0), st.integers(0, 6)),
    problems=st.lists(
        st.tuples(st.sampled_from(sorted(_DP_PERTURBATIONS) + ["wall"]),
                  st.sampled_from([0.05, 0.3, 1.0])),
        min_size=1, max_size=5,
    ),
    data=st.data(),
)
def test_a_stacked_dp_oracle_equals_its_solo_calls_bitwise(
    n_x, n_t, symmetric, slope_set, moves, problems, data
):
    """dp_oracle_1d on a stack of problems (W and eps one per problem) gives
    each problem's solo float, bit for bit; where a solo call fails, the stack
    raises the same type of error as the first that fails. A symmetric grid has an odd state count, so its
    state 0 carries the atoms. Given `moves`, the slopes make every move from
    its first to its last entry, so a straight path mostly exists and the
    problems it does not cross a +inf state of are pruned. The `forbidden`
    bands and the wall (+inf right of x = 2 eps: off the grid at eps 1) block
    it for some eps, so a stack mixes pruned and unpruned problems."""
    n_x += symmetric and n_x % 2 == 0
    grid = DPGrid(-1.0, 1.0, n_x, n_t) if symmetric else DPGrid(-0.7, 1.3, n_x, n_t)
    states = grid.states()
    if moves is not None:  # the slope of move k is k dx / h, with h = 1 / (n_t - 1)
        slope_set = np.arange(moves[0], moves[1] + 1) * (states[1] - states[0]) * (n_t - 1)
    V = make_potential("sin2", 1)
    Ws = [_WALL if name == "wall" else _DP_PERTURBATIONS[name] for name, _ in problems]
    epss = [eps for _, eps in problems]
    a, b = (float(states[data.draw(st.integers(0, n_x - 1))]) for _ in range(2))

    def oracle(W, eps):
        return dp_oracle_1d(V, W, eps, 1.0, a, b, grid, slope_set=slope_set)

    solo = [_stacked_outcome(lambda: [oracle(W, eps)]) for W, eps in zip(Ws, epss)]
    failed = [outcome for outcome in solo if isinstance(outcome, str)]
    want = failed[0] if failed else [value for [value] in solo]
    assert _stacked_outcome(lambda: oracle(Ws, epss)) == want
    if len(set(map(id, Ws))) == 1:  # one W, shared by the stack
        assert _stacked_outcome(lambda: oracle(Ws[0], epss)) == want


def test_a_stacked_sweep_keeps_the_cone_of_every_problem():
    """With V = 0 and a = b = 0.5, the free particle stays put, and its bound
    keeps only the state 0.5. A deep atom at 0 pays for the trip there and
    back at slope 2 (cost 2, a stay of 1/2 worth -5). Stacked behind the free
    particle, the atom problem keeps the cone that reaches 0."""
    V, grid = make_potential("zero", 1), DPGrid(-1.0, 1.0, 81, 33)
    atom = make_perturbation("neg_spike", 1, depth=10.0, width=0.0)
    solo = [dp_oracle_1d(V, W, 1.0, 1.0, 0.5, 0.5, grid) for W in (None, atom)]
    assert solo[0] == 0.0 and solo[1] < -2.0
    assert dp_oracle_1d(V, [None, atom], 1.0, 1.0, 0.5, 0.5, grid) == solo


def test_a_stacked_dp_oracle_names_the_problem_it_cannot_connect():
    """At eps = 0.1 the wall forbids every state right of 0.2, and no slope
    up to 2 jumps from there to b = 0.9 in one step of 1/16; at eps = 1 the
    wall lies at 2, off the grid."""
    V, grid = make_potential("zero", 1), DPGrid(-1.0, 1.0, 81, 17)
    slopes = np.linspace(-2.0, 2.0, 33)
    assert dp_oracle_1d(V, _WALL, [1.0], 1.0, -0.5, 0.9, grid, slopes) == [
        dp_oracle_1d(V, None, 1.0, 1.0, -0.5, 0.9, grid, slopes)
    ]
    with pytest.raises(SolverError, match=r"connect .* at eps=0\.1, W='wall'"):
        dp_oracle_1d(V, _WALL, [1.0, 0.1], 1.0, -0.5, 0.9, grid, slopes)


def test_a_stacked_dp_oracle_names_the_problem_its_bound_failed(monkeypatch):
    """A bound read off a path that does not reach b (a stay at x = 0.6, one
    that costs nothing at eps = 1) is far below the optimum, so it drops every
    state of that problem's cone, and the error names it. At eps = 0.1 the
    wall makes that path cost +inf, so that problem is not pruned."""
    V, grid = make_potential("zero", 1), DPGrid(-1.0, 1.0, 81, 17)
    states = grid.states()
    stay_at = int(np.argmin(np.abs(states - 0.6)))

    def stay(moves, ia, ib, n_steps):
        return np.full(n_steps, np.searchsorted(moves, 0)), np.full(n_steps, stay_at)

    monkeypatch.setattr(minimize, "_straight_path", stay)
    with pytest.raises(InvariantError, match=r"dropped every state .* at eps=1\.0, W='wall'"):
        dp_oracle_1d(V, _WALL, [0.1, 1.0], 1.0, -0.5, 0.5, grid)


def test_dp_oracle_stacks_take_one_or_p_of_each():
    V, grid = make_potential("zero", 1), DPGrid(-1.0, 1.0, 81, 17)
    atom = _DP_PERTURBATIONS["atom"]
    with pytest.raises(InputError, match="one per problem"):
        dp_oracle_1d(V, [None, atom], [0.1, 0.2, 0.3], 1.0, 0.0, 0.0, grid)
    with pytest.raises(InputError, match="one per problem"):
        dp_oracle_1d(V, [], 0.1, 1.0, 0.0, 0.0, grid)


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


def _record_paths(arg, start, n, moves):
    """The paths (n + 1, P) from the states `start` at step count n through a
    per-move record arg (see _per_move_sweep)."""
    path = [start]
    for j in range(n - 1, -1, -1):
        path.append(path[-1] + moves[arg[j, path[-1]]])
    return np.array(path)


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
    """Every row of the history equals the full-grid sweep bit for bit, its
    padding is +inf, and its last row is the plain sweep's value. The path
    backtracked from every finite state of a row is the one the per-move
    loop's strict `<` record gives, and its stage costs, re-summed from the
    far end, cost exactly that state's value."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    stages = np.array(
        [np.where(rng.random(n_x) < 0.1, np.inf, rng.uniform(0.0, 2.0, n_x)) for _ in moves]
    )
    lo = data.draw(st.integers(0, n_x - 1))
    hi = data.draw(st.integers(lo, n_x - 1))
    start = np.full(n_x, np.inf)
    start[lo : hi + 1] = rng.uniform(-1.0, 1.0, hi - lo + 1)
    weights = rng.uniform(0.1, 1.0, n_steps) if discounted else None
    moves = np.array(moves)

    want = [start] + _full_grid_sweep(start, moves, stages, n_steps, weights)
    whole = (0, n_x - 1)
    history = _dp_sweep(start.copy(), lo, hi, moves, stages, n_steps, whole, weights=weights,
                        history=True)
    plain = _dp_sweep(start.copy(), lo, hi, moves, stages, n_steps, whole, weights=weights)
    _, _, arg = _per_move_sweep(start.copy(), lo, hi, moves, list(stages), n_steps, whole,
                                weights=weights, record=True)
    pad = max(0, -moves[0])
    assert history.shape == (n_steps + 1, pad + n_x + max(0, moves[-1]))
    assert np.all(history[:, :pad] == np.inf) and np.all(history[:, pad + n_x :] == np.inf)
    assert np.array_equal(plain, want[-1]) and np.array_equal(history[-1, pad : pad + n_x], plain)
    for n in range(1, n_steps + 1):
        read = history[n, pad : pad + n_x]
        assert np.array_equal(read, want[n])
        finite = np.flatnonzero(np.isfinite(read))
        path = minimize._backtrack(history, finite, n, moves, stages, weights)
        assert np.array_equal(path, _record_paths(arg, finite, n, moves))
        for p, i in enumerate(finite):
            total = start[path[n, p]]
            for j in range(n):  # sweep step j: from path[n - j - 1] to path[n - j]
                m = np.searchsorted(moves, path[n - j, p] - path[n - j - 1, p])
                c = stages[m, path[n - j - 1, p]]
                total = (c if weights is None else weights[j] * c) + total
            assert total == read[i]


def _per_move_sweep(
    value, lo, hi, moves, stages, n_steps, span, weights=None, atom=None, read_at=(),
    record=False,
):
    """The swept-cone lattice DP one move at a time: a Python loop over the
    moves of each step, each updating the best value by a strict `<`. A step
    sweeps the states grown from lo..hi that can reach the span (first, last)
    in at most the steps left; every other state is +inf."""
    n_x = value.size
    moves = moves.tolist()
    kmin, kmax = moves[0], moves[-1]
    first, last = span
    best = np.full(n_x, np.inf)
    cand = np.empty(n_x)
    arg = np.empty((n_steps, n_x), np.min_scalar_type(len(moves))) if record else None
    reads = []
    for j in range(n_steps):
        left = n_steps - 1 - j
        new_lo = max(lo - kmax, 0, first + left * min(kmin, 0))
        new_hi = min(hi - kmin, n_x - 1, last + left * max(kmax, 0))
        if new_hi < new_lo:
            value[:] = np.inf
            break
        best.fill(np.inf)
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
    """The stacked sweep gives the per-move loop's value, on a drawn span or
    the whole range, and its history the loop's value after every step, +inf
    outside the step's cone included. Without an atom,
    the path backtracked from every finite state of a row is the one the
    loop's strict `<` record gives. With `ties`, every number is a multiple of
    1/4, so equal candidates are common and the first minimal move must win."""
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
    first = data.draw(st.integers(0, n_x - 1)) if aimed else 0
    last = data.draw(st.integers(first, n_x - 1)) if aimed else n_x - 1
    moves = np.array(moves)
    kwargs = dict(span=(first, last), weights=weights, atom=atom)

    want, want_reads, want_arg = _per_move_sweep(
        start.copy(), lo, hi, moves, list(stages), n_steps, record=True,
        read_at=range(1, n_steps + 1), **kwargs
    )
    kept = start.copy()
    history = _dp_sweep(start, lo, hi, moves, stages, n_steps, history=True, **kwargs)
    plain = _dp_sweep(start, lo, hi, moves, stages, n_steps, **kwargs)
    assert np.array_equal(start, kept)  # the sweep leaves its input alone
    pad = max(0, -moves[0])
    rows = history[:, pad : pad + n_x]
    assert np.array_equal(plain, want) and np.array_equal(rows[-1], want)
    for n, want_read in zip(range(1, n_steps + 1), want_reads):
        read = rows[n]
        finite = np.flatnonzero(np.isfinite(read))
        assert np.array_equal(read, want_read)
        if atom is None:
            path = minimize._backtrack(history, finite, n, moves, stages, weights)
            assert np.array_equal(path, _record_paths(want_arg, finite, n, moves))


@settings(max_examples=200, deadline=None)
@given(
    n_x=st.integers(1, 50),
    n_steps=st.integers(1, 14),
    moves=_move_sets(),
    discounted=st.booleans(),
    with_atom=st.booleans(),
    data=st.data(),
)
def test_a_span_sweep_is_the_whole_range_sweep_on_its_cone(
    n_x, n_steps, moves, discounted, with_atom, data
):
    """With `left` steps still to go, a sweep toward the span (first, last)
    keeps the states first + left min(kmin, 0) .. last + left max(kmax, 0).
    There each row of its history equals the whole-range sweep's, span
    (0, n_x - 1), bit for bit, and elsewhere it is +inf; its value without
    history is its last row. Row 0 is the start value in both."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    stages = np.where(rng.random((len(moves), n_x)) < 0.1, np.inf,
                      rng.uniform(0.0, 2.0, (len(moves), n_x)))
    lo = data.draw(st.integers(0, n_x - 1))
    hi = data.draw(st.integers(lo, n_x - 1))
    start = np.full(n_x, np.inf)
    start[lo : hi + 1] = rng.uniform(-1.0, 1.0, hi - lo + 1)
    first = data.draw(st.integers(0, n_x - 1))
    last = data.draw(st.integers(first, n_x - 1))
    weights = rng.uniform(0.1, 1.0, n_steps) if discounted else None
    atom = rng.uniform(-0.5, 0.5, n_x) if discounted and with_atom else None
    kmin, kmax = moves[0], moves[-1]
    moves = np.array(moves)

    def sweep(span, history):
        return _dp_sweep(start, lo, hi, moves, stages, n_steps, span, weights=weights,
                         atom=atom, history=history)

    whole, aimed = sweep((0, n_x - 1), True), sweep((first, last), True)
    pad = max(0, -kmin)
    assert np.all(aimed[:, :pad] == np.inf) and np.all(aimed[:, pad + n_x :] == np.inf)
    rows, whole_rows = aimed[:, pad : pad + n_x], whole[:, pad : pad + n_x]
    assert np.array_equal(rows[0], whole_rows[0])
    states = np.arange(n_x)
    for j in range(1, n_steps + 1):
        left = n_steps - j
        cone = (states >= first + left * min(kmin, 0)) & (states <= last + left * max(kmax, 0))
        assert np.array_equal(rows[j, cone], whole_rows[j, cone])
        assert np.all(rows[j, ~cone] == np.inf)
    assert np.array_equal(sweep((first, last), False), rows[-1])


@settings(max_examples=40, deadline=None)
@given(
    eps=st.sampled_from([0.2, 0.3, 0.5]),
    perturbed=st.booleans(),
    discounted=st.booleans(),
    horizon=st.floats(0.5, 2.0),
    times=st.sets(st.integers(1, 20), min_size=1, max_size=4),
    data=st.data(),
)
def test_lattice_seed_paths_follow_the_per_move_record(
    eps, perturbed, discounted, horizon, times, data
):
    """Each read-out of _lattice_seeds, discounted or from y and phi, gives
    the per-move loop's values at x, swept over the whole range, and the
    paths backtracked through its strict `<` record, ties included."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    V = make_potential("sin2", 1)
    W = make_perturbation("runge_decay", 1) if perturbed else None
    x = np.sort(rng.uniform(-0.6, 0.6, data.draw(st.integers(1, 5))))
    calls = []

    def capturing(*args, **kwargs):
        calls.append((args, kwargs))
        return _dp_sweep(*args, **kwargs)

    y = np.linspace(-1.0, 1.0, data.draw(st.integers(2, 9)))
    phi = rng.integers(-4, 5, y.size) / 4  # multiples of 1/4: ties are common
    read_at = horizon * np.array(sorted(times)) / max(times)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(minimize, "_dp_sweep", capturing)
        if discounted:
            _, _, seeds = _lattice_seeds(V, W, eps, x, horizon, [horizon], lam=6.0 / horizon)
        else:
            _, _, seeds = _lattice_seeds(V, W, eps, x, horizon, read_at, y, phi)
    [((value, lo, hi, moves, stages, n_steps, _), kwargs)] = calls
    counts = [path.shape[0] - 1 for _, path in seeds]
    _, reads, arg = _per_move_sweep(value.copy(), lo, hi, moves, list(stages), n_steps,
                                    (0, value.size - 1), weights=kwargs["weights"],
                                    read_at=counts, record=True)
    for (values, path), n, read in zip(seeds, counts, reads):
        assert np.array_equal(values, read[path[0]])
        assert np.array_equal(path, _record_paths(arg, path[0], n, moves))


def test_lattice_seeds_put_every_read_out_on_a_step(sin2_1d):
    """No count from 6 to 12 steps puts t = 0.37 on a step; the lattice takes
    100 steps and reads t = 0.37 after 37 of them. A time that no count within
    2^28 bytes of history puts on a step is refused, named."""
    x, y = np.array([-0.3, 0.1]), np.linspace(-2.0, 2.0, 41)
    phi = 0.1 * y**2
    info, _, seeds = _lattice_seeds(sin2_1d, None, 0.2, x, 1.0, [0.37, 1.0], y, phi)
    assert info["steps"] == 100
    assert [path.shape[0] - 1 for _, path in seeds] == [37, 100]
    with pytest.raises(InputError, match=r"eps=0\.2 need more than 2\^28 bytes of history "
                                         r"to put t=0\.3712345678901 on a step"):
        _lattice_seeds(sin2_1d, None, 0.2, x, 1.0, [0.3712345678901, 1.0], y, phi)


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
        dp_oracle_1d(V, W, 1.0, 1.0, -1.0, -1.0, grid, slope_set=[0.0])
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
    # warm-started from the lattice path, as solve_steady_eps seeds it
    _, states, [(_, path)] = _lattice_seeds(sin2_1d, None, 0.2, np.array([x0]), 8.0, [8.0], lam=lam)
    seed = _seed_nodes(states, path, np.linspace(0.0, 8.0, 161))
    _, value = minimize_halfline(
        sin2_1d, None, 0.2, lam, np.array([x0]), 8.0, 161, std_opt, quad, warm_starts=seed
    )
    dp = dp_oracle_halfline(sin2_1d, None, 0.2, lam, x0, 8.0,
                            DPGrid(x0 - 1.2, x0 + 1.2, 2561, 481),
                            slope_set=np.linspace(-4, 4, 257))
    # both sides overestimate the infimum; the descent solver must be at
    # least as sharp as the lattice and not stray far below it
    assert value <= dp + 1e-3
    assert value == pytest.approx(dp, rel=0.06)


def test_halfline_runs_in_two_dimensions_from_the_constant_start(fast_opt, quad):
    """With no warm start the constant path is the only start, in any d: for
    V = 1 it is optimal, and the exact discount weights make its action 1/lam."""
    V = make_potential("constant", 2, value=1.0)
    traj, value = minimize_halfline(V, None, 0.2, 0.5, np.array([0.3, -0.1]), 12.0, 33, fast_opt, quad)
    assert value == pytest.approx(2.0, rel=1e-14)
    assert np.all(traj.nodes == [0.3, -0.1])


def test_halfline_rejects_short_horizon(std_opt, quad, sin2_1d):
    with pytest.raises(InputError):
        minimize_halfline(sin2_1d, None, 0.1, 1.0, np.array([0.0]), 3.0, 65, std_opt, quad)


def test_general_lagrangian_bvp_matches_quadratic(std_opt, quad):
    V = make_potential("zero", 2)
    L = GeneralLagrangian(V)
    u, val = minimize_lagrangian_bvp(L, 1.0, np.zeros(2), np.array([1.0, 1.0]), 33, std_opt, quad)
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
    steps, dec, shifts = _newton_steps(diag, off, grad, _Problems(1.0, 1.0, np.zeros((B, d))))
    for b in range(B):
        H = _dense(diag[b], off[b])
        p, g = steps[b].reshape(-1), grad[b].reshape(-1)
        tau = -float((H @ p + g) @ p) / float(p @ p)
        np.testing.assert_allclose(H @ p + tau * p, -g, atol=1e-9)
        assert shifts[b] == pytest.approx(tau, abs=1e-9)
        low = np.min(np.linalg.eigvalsh(H))
        assert low + tau > 0
        if b in (0, 2):
            assert low > 0 and tau == pytest.approx(0.0, abs=1e-9) and shifts[b] == 0.0
        else:
            assert low < 0 and shifts[b] > 0
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
    steps, dec, shifts = _newton_steps(diag, off, grad, _Problems(1.0, 1.0, np.zeros((B, d))))
    floor = 1e-3 + np.finfo(float).tiny
    for b in range(B):
        H = _dense(diag[b], off[b])
        p, g = steps[b].reshape(-1), grad[b].reshape(-1)
        tau = -float((H @ p + g) @ p) / float(p @ p)
        low = np.min(np.linalg.eigvalsh(H))
        assert shifts[b] == pytest.approx(tau, rel=1e-9, abs=1e-9)
        if b in (0, 4):
            assert low > 0 and tau == pytest.approx(0.0, abs=1e-9) and shifts[b] == 0.0
        else:
            assert low < 0 and tau > -low and tau >= 4 * floor
            doublings = np.log2(tau / floor)
            assert doublings == pytest.approx(round(doublings), abs=1e-6)
        shifted = np.linalg.solve(H + tau * np.eye(n * d), -g)
        np.testing.assert_allclose(p, shifted, rtol=1e-9, atol=1e-12)
        assert dec[b] == pytest.approx(-float(g @ p))


def _nan_potential(d):
    return dataclasses.replace(
        make_potential("sin2", d), evaluator=lambda y: np.full(y.shape[:-1], np.nan)
    )


def test_newton_errors_name_eps_window_and_ends(fast_opt, quad):
    """A failing solve says which problem it was: eps, the window and the end
    values, so a failing stability rung or table slope can be told from stderr."""
    V = _nan_potential(1)
    with pytest.raises(SolverError) as info:
        minimize_bvp(V, None, 0.25, 2.0, 0.5, 1.5, 17, fast_opt, quad)
    assert "(eps=0.25, window [0.0, 2.0], a=[0.5], b=[1.5])" in str(info.value)
    # the batch names the problem of the first non-finite start
    a_batch = np.array([[-1.0], [0.0]])
    with pytest.raises(SolverError) as info:
        minimize_bvp_batch(V, None, 0.5, 2.0, a_batch, 2.0, 17, fast_opt, quad)
    assert "(eps=0.5, window [0.0, 2.0], a=[-1.0], b=[2.0])" in str(info.value)
    with pytest.raises(SolverError) as info:
        minimize_halfline(
            V, None, 0.5, 1.0, 0.25, 6.0, 33, fast_opt, quad, warm_starts=[np.zeros((33, 1))]
        )
    assert str(info.value).endswith("(eps=0.5, window [0.0, 6.0], a=[0.25])")
    with pytest.raises(SolverError, match="eps=0.5"):  # the constant start alone
        minimize_halfline(V, None, 0.5, 1.0, 0.25, 6.0, 33, fast_opt, quad)


def test_a_non_finite_newton_decrement_names_its_problem(fast_opt, quad, sin2_1d):
    """A NaN Hessian makes every Newton decrement NaN: the solve fails, naming
    its problem, rather than report its starts as minima."""
    V = dataclasses.replace(sin2_1d, hessian=lambda y: np.full(y.shape + (1,), np.nan))
    with pytest.raises(SolverError, match=r"decrement not finite \(eps=0.25, window \[0.0, 2.0\]"):
        minimize_bvp(V, None, 0.25, 2.0, 0.5, 1.5, 17, fast_opt, quad)
    with pytest.raises(SolverError, match=r"decrement not finite \(eps=0.5, .*a=\[-1.0\]"):
        minimize_bvp_batch(V, None, 0.5, 2.0, np.array([[-1.0], [0.0]]), 2.0, 17, fast_opt)
    with pytest.raises(SolverError, match=r"decrement not finite \(eps=0.5, window \[0.0, 6.0\]"):
        minimize_halfline(
            V, None, 0.5, 1.0, 0.25, 6.0, 33, fast_opt, quad, warm_starts=[np.ones((33, 1))]
        )


def test_pinned_solvers_check_warm_start_shapes(fast_opt, quad):
    V = make_potential("sin2", 1)
    match = r"warm start of shape \(5,\), expected \(33, 1\)"
    with pytest.raises(InputError, match=match):
        minimize_bvp(V, None, 0.5, 1.0, 0.0, 1.0, 33, fast_opt, quad, [np.zeros(5)])
    with pytest.raises(InputError, match=match):
        minimize_bvp_batch(
            V, None, 0.5, 1.0, np.zeros((2, 1)), 1.0, 33, fast_opt, quad, [[np.zeros(5)]] * 2
        )


def test_the_batch_needs_a_potential(fast_opt, runge_1d):
    """action_G, which certifies every winner, cannot evaluate a missing V."""
    with pytest.raises(InputError, match="periodic potential is required"):
        minimize_bvp_batch(None, runge_1d, 0.5, 1.0, np.zeros((1, 1)), 1.0, 33, fast_opt)


@pytest.mark.parametrize("kind", ["pinned", "batch", "half-line"])
def test_a_failed_certificate_names_its_problem(monkeypatch, fast_opt, quad, sin2_1d, kind):
    """The check is off only for paths leaving 0.25, so the batch must name
    that problem, its second, and not its first."""
    name = "discounted_action" if kind == "half-line" else "action_G"
    check = getattr(minimize, name)
    monkeypatch.setattr(
        minimize, name, lambda u, *args: check(u, *args) + float(u.nodes[0, 0] == 0.25)
    )
    with pytest.raises(InvariantError) as info:
        if kind == "half-line":
            minimize_halfline(sin2_1d, None, 0.5, 1.0, 0.25, 6.0, 33, fast_opt, quad)
        elif kind == "pinned":
            minimize_bvp(sin2_1d, None, 0.5, 6.0, 0.25, 1.0, 33, fast_opt, quad)
        else:
            a_batch = np.array([[0.0], [0.25]])
            minimize_bvp_batch(sin2_1d, None, 0.5, 6.0, a_batch, [[1.0], [1.5]], 33, fast_opt)
    assert "disagree (eps=0.5, window [0.0, 6.0], a=[0.25]" in str(info.value)
    if kind != "half-line":
        assert str(info.value).endswith("a=[0.25], b=[1.5])" if kind == "batch" else "b=[1.0])")


def test_newton_records_convergence_of_the_winning_start(std_opt, quad, sin2_1d, runge_1d):
    u, _ = minimize_bvp(sin2_1d, runge_1d, 0.05, 1.0, 0.0, 1.0, 249, std_opt, quad)
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
    """The value, samples and derivatives of any sub-batch are the full batch's
    rows, bit for bit. The solver relies on it: a start's accepted line-search
    value and samples are its value and samples in the next sweep's batch, and
    a start that stops without moving keeps the gradient norm of the batch it
    was last evaluated in."""
    action = _kernel_action(d, with_w, halfline, eps)
    x = np.random.default_rng(seed).uniform(-1.5, 1.5, size=(5, action.kinetic.size + 1, d))
    keep = np.array(rows)
    value, y = action.value_and_samples(x)
    part_value, part_y = action.value_and_samples(x[keep])
    assert np.array_equal(part_value, value[keep]) and np.array_equal(part_y, y[keep])
    assert np.array_equal(action.gradient(x[keep], y[keep]), action.gradient(x, y)[keep])
    for part, whole in zip(action.hessian(x[keep], y[keep]), action.hessian(x, y)):
        assert np.array_equal(part, whole[keep])


@pytest.mark.parametrize("halfline", [False, True], ids=["pinned", "half-line"])
@pytest.mark.parametrize("with_w", [False, True], ids=["V", "V+W"])
@pytest.mark.parametrize("d", [1, 2])
def test_one_potential_pass_per_accepted_full_step(monkeypatch, d, with_w, halfline):
    """Counting V's evaluator over path samples, and the sample layouts
    (minimize.interval_samples): one of each for the starts, then one per
    line-search trial, and none inside the derivatives, whose samples are
    those the line search laid out for the point it accepted, with its value.
    Started near its minimizer, where Newton takes full steps, a solve makes
    one pass and one layout per step, not two."""
    base = make_potential("sin2", d)
    passes, layouts, in_derivatives = [], [], []

    def counting(y, _evaluate=base.evaluator):
        if y.ndim == 4:  # path samples; the half-line tail evaluates the last node alone
            passes.append(bool(in_derivatives))
        return _evaluate(y)

    def laying_out(nodes, m, _lay_out=minimize.interval_samples):
        layouts.append(bool(in_derivatives))
        return _lay_out(nodes, m)

    monkeypatch.setattr(minimize, "interval_samples", laying_out)
    action = _kernel_action(d, with_w, halfline, 0.5, V=dataclasses.replace(base, evaluator=counting))

    def tracked(part):
        def wrapper(*args, **kwargs):
            in_derivatives.append(True)
            try:
                return part(*args, **kwargs)
            finally:
                in_derivatives.pop()

        return wrapper

    action.gradient, action.hessian = tracked(action.gradient), tracked(action.hessian)
    N, opt = action.kinetic.size + 1, OptimizerSpec(max_iters=50)
    starts = _start_stack(
        np.linspace(0.0, 1.0, N), np.zeros((1, d)), np.full((1, d), 0.7), np.zeros((1, 0, N, d))
    )
    problems = _Problems(0.5, 1.0, np.zeros((1, d)), np.full((1, d), 0.7))
    _, nodes, _ = _solve(action, starts, opt, problems)
    near = nodes[:, None].copy()
    near[..., 1:-1, :] += 1e-3 * np.sin(np.linspace(0.0, np.pi, N))[1:-1, None]
    passes.clear()
    layouts.clear()
    _, _, [record] = _solve(action, near, opt, problems)
    assert record["converged"] and record["iterations"] >= 1
    assert not any(passes) and not any(layouts)
    assert len(passes) == len(layouts) == record["iterations"] + 1
