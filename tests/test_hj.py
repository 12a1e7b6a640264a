"""Variational Hamilton-Jacobi solvers: exact cases, bounds, serialization."""

import numpy as np
import pytest

from homoglab import (
    HomogenizedLagrangian,
    InputError,
    InvariantError,
    OptimizerSpec,
    QuadratureSpec,
    Trajectory,
    ValueField,
    field_distance,
    make_initial_datum,
    make_potential,
    make_perturbation,
    minimize_halfline,
    s_eps,
    solve_evolutionary_eps,
    solve_evolutionary_hom,
    solve_steady_eps,
    solve_steady_hom,
    tabulate_f_hom,
)
from homoglab import hj
from homoglab.grid import mesh
from homoglab.trajectory import action_G, discounted_action

OPT = OptimizerSpec(max_iters=800)
QUAD = QuadratureSpec()


@pytest.fixture(scope="module")
def free_table():
    V = make_potential("zero", 1)
    return tabulate_f_hom(V, np.linspace(-3, 3, 25), opt=OPT)


def test_value_field_csv_layout(tmp_path):
    x = np.linspace(0.0, 1.0, 3)
    t = np.array([0.5, 1.0])
    vals = np.arange(6, dtype=float).reshape(3, 2)
    field = ValueField((x,), t, vals, {"kind": "test"})
    csv_path = tmp_path / "field.csv"
    field.to_csv(csv_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "x_1,t,value"
    assert len(lines) == 1 + vals.size


def test_value_field_rejects_nonfinite():
    x = np.linspace(0.0, 1.0, 3)
    t = np.array([1.0])
    bad = np.array([[0.0], [np.nan], [1.0]])
    with pytest.raises(InvariantError):
        ValueField((x,), t, bad, {})


def test_value_fields_check_their_grids():
    for bad_x, bad_t in [
        ([1.0, 0.0, -1.0], None),
        ([0.0, np.nan, 1.0], None),
        ([0.0, 0.5, 1.0], [1.0, 0.5, 0.5]),
    ]:
        shape = (3,) if bad_t is None else (3, 3)
        with pytest.raises(InputError):
            ValueField((np.array(bad_x),), bad_t, np.zeros(shape), {})
    values = np.zeros((2, 2))
    field = ValueField((np.array([0.0, 1.0]),), np.array([0.5, 1.0]), values, {})
    others = [
        ValueField((np.array([5.0, 9.0]),), np.array([0.5, 1.0]), values, {}),
        ValueField((np.array([0.0, 1.0]),), np.array([0.5, 2.0]), values, {}),
        ValueField((np.array([0.0, 1.0]), np.array([0.0, 1.0])), None, values, {}),
    ]
    for other in others:
        with pytest.raises(InputError, match="different grids"):
            field_distance(field, other)
        with pytest.raises(InputError, match="different grids"):
            field_distance(other, field)


def test_plane_wave_is_exact_for_homogenized_solver(free_table):
    p = 1.0
    Phi = make_initial_datum("plane_wave", 1, p=[p])
    x = np.linspace(-1, 1, 9)
    t = np.array([0.5, 1.0])
    y = np.linspace(-3, 3, 241)
    U = solve_evolutionary_hom(free_table, Phi, x, t, y)
    # H(p) = sup_xi (p xi - xi^2) = p^2/4 over the tabulated hull
    expected = p * x[:, None] - t[None, :] * (p * p / 4.0)
    np.testing.assert_allclose(U.values, expected, atol=1e-9)


def test_quadratic_datum_hopf_lax_closed_form(free_table):
    Phi = make_initial_datum("quadratic", 1, a=1.0)
    x = np.linspace(-0.8, 0.8, 9)
    t = np.array([0.5, 1.0])
    y = np.linspace(-2, 2, 641)
    U = solve_evolutionary_hom(free_table, Phi, x, t, y)
    expected = x[:, None] ** 2 / (1.0 + t[None, :])
    # Table step 0.25 => piecewise-linear chord error up to step^2/4 * t = 0.0156.
    np.testing.assert_allclose(U.values, expected, atol=2e-2)


def test_eps_solver_matches_hom_for_free_potential(free_table):
    V = make_potential("zero", 1)
    Phi = make_initial_datum("plane_wave", 1, p=[1.0])
    x = np.linspace(-0.5, 0.5, 5)
    t = np.array([0.5, 1.0])
    y = np.linspace(-2.5, 2.5, 201)
    U_eps = solve_evolutionary_eps(V, None, 0.1, Phi, x, t, y, opt=OPT)
    U_hom = solve_evolutionary_hom(free_table, Phi, x, t, y)
    sup, _ = field_distance(U_eps, U_hom)
    assert sup <= 1e-3


def test_evolutionary_eps_grid_points_do_not_interact():
    """One lattice sweep and one stacked solve per time slice give every x the
    value it gets alone, bit for bit: the lattice does not depend on which x
    are read out."""
    V = make_potential("sin2", 1)
    Phi = make_initial_datum("abs_min", 1, cap=1.0)
    x = np.array([-1.9, 0.0, 0.45])
    t = np.array([0.5, 1.0])
    y = np.linspace(-2.0, 2.0, 41)
    args = dict(opt=OPT)
    together = solve_evolutionary_eps(V, None, 0.2, Phi, x, t, y, **args)
    for i in range(x.size):
        alone = solve_evolutionary_eps(V, None, 0.2, Phi, x[i : i + 1], t, y, **args)
        assert np.array_equal(together.values[i], alone.values[0])


def test_polished_values_never_exceed_their_lattice_seed_paths(monkeypatch):
    """Every polish is seeded with a lattice path that joins its own ends to
    within half a lattice step (eps/32 at most), and returns at most that
    path's discrete action on its Newton grid, once re-pinned to the ends.
    So do the extra polishes: the evolutionary ones from the neighbouring y of
    y_grid (the path tilted onto them), the steady ones from the lattice
    paths of the points one period eps away (checked for the action bound
    only)."""
    V = make_potential("sin2", 1)
    W = make_perturbation("runge_decay", 1, amplitude=1.0)
    real_batch, real_halfline = hj.minimize_bvp_batch, hj.minimize_halfline
    checked = []

    def batch_spy(V, W, eps, t, a_batch, b, n_nodes, opt, *, warm_starts_per_problem, **kw):
        warm = warm_starts_per_problem
        values, nodes, times = real_batch(
            V, W, eps, t, a_batch, b, n_nodes, opt, warm_starts_per_problem=warm, **kw
        )
        for value, a, end, (seed,) in zip(values, a_batch, b, warm):
            seed = np.array(seed)
            assert np.all(np.abs(seed[[0, -1]] - [a, end]) <= eps / 32 + 1e-12)
            seed[0], seed[-1] = a, end
            checked.append((value, action_G(Trajectory(times, seed), V, W, eps)))
        return values, nodes, times

    def halfline_spy(V, W, eps, lam, x0, T_max, n_nodes, opt, *, warm_starts):
        traj, value = real_halfline(
            V, W, eps, lam, x0, T_max, n_nodes, opt, warm_starts=warm_starts
        )
        assert np.all(np.abs(warm_starts[0][0] - x0) <= eps / 32 + 1e-12)
        for seed in warm_starts:
            seed = np.array(seed)
            seed[0] = x0
            seed_value = discounted_action(Trajectory(traj.times, seed), V, W, eps, lam)
            checked.append((value, seed_value))
        return traj, value

    monkeypatch.setattr(hj, "minimize_bvp_batch", batch_spy)
    monkeypatch.setattr(hj, "minimize_halfline", halfline_spy)
    Phi = make_initial_datum("abs_min", 1, cap=1.0)
    x = np.linspace(-0.4, 0.4, 5)
    t = np.array([0.5, 1.0])
    solve_evolutionary_eps(V, W, 0.1, Phi, x, t, np.linspace(-2, 2, 81), OPT)
    solve_steady_eps(V, W, 0.1, 1.0, x, OPT)
    assert len(checked) == x.size * (hj._Y_NEIGHBOURS.size * t.size + 3)
    for value, seed_value in checked:
        assert value <= seed_value


def test_evolutionary_eps_reaches_y_off_the_grid_points():
    """x between, and outside, the points of a coarse y_grid: with zero V and
    a constant datum the lattice's slope bound must still let every x reach
    its nearest y, and the field is the free particle's |x - y|^2 / t."""
    V = make_potential("zero", 1)
    Phi = make_initial_datum("plane_wave", 1, p=[0.0])
    x = np.array([-0.9, -0.33, 0.1, 0.25, 1.7])
    t = np.array([0.05, 0.5])
    y = np.linspace(-1.0, 1.0, 5)
    U = solve_evolutionary_eps(V, None, 0.1, Phi, x, t, y, OPT)
    near = np.min(np.abs(x[:, None] - y[None, :]), axis=1)
    np.testing.assert_allclose(U.values, near[:, None] ** 2 / t[None, :], rtol=1e-9)
    assert U.provenance["all_converged"]


def test_a_grown_step_count_refines_the_seed_lattice():
    """No count from 6 to 99 steps puts t = 0.37 on a step, so the seed
    lattice takes 100. Its dx falls from 0.0125 to 0.000625, still a whole
    fraction of the y spacing 0.1, so the slope step dx/h stays 1/16 (kept,
    dx would make it 1.25, with 7 moves). The lattice field then lies within
    the 6-step lattice's distance of the polished one (0.0159 at t = 1/3 and
    1.0; 0.0376 with dx kept)."""
    V = make_potential("sin2", 1)
    x, y = np.linspace(-0.5, 0.5, 21), np.linspace(-2.0, 2.0, 41)
    U = solve_evolutionary_eps(V, None, 0.2, lambda z: 0.5 * float(z @ z), x, [0.37, 1.0], y, OPT)
    assert U.provenance["dp_lattice"] == {"states": 6402, "steps": 100, "moves": 89}
    assert U.provenance["dp_sup_distance"] < 0.0159


def test_free_particle_field_is_the_exact_minimum_over_y_grid():
    """With V = 0 the straight path is optimal, so the field is the closed-form
    minimum over y_grid of |x - y|^2 / t + Phi(y). The lattice's quantized
    kinetic cost can rank the best y one grid step behind a neighbour; the
    polish of the neighbouring y must recover it."""
    V = make_potential("zero", 1)
    x = np.linspace(-0.5, 0.5, 5)
    t = np.array([0.5, 1.0])
    y = np.linspace(-2.5, 2.5, 201)
    for p in (0.8, 1.7):
        Phi = make_initial_datum("plane_wave", 1, p=[p])
        U = solve_evolutionary_eps(V, None, 0.1, Phi, x, t, y, OPT)
        exact = np.min((x[:, None, None] - y) ** 2 / t[:, None] + p * y, axis=2)
        np.testing.assert_allclose(U.values, exact, rtol=0, atol=1e-12)


def test_steady_polish_finds_the_farther_well():
    """At eps = 0.05, x = -0.22 lies between the wells of V(x / eps) at -0.25
    and -0.20. The lattice's path parks at -0.20; the decaying W makes the
    farther well cheaper, and the lattice path from x - eps must find it: the
    field is no higher than a polish started from a path parked at -0.25."""
    V = make_potential("sin2", 1)
    W = make_perturbation("runge_decay", 1, amplitude=1.0)
    U = solve_steady_eps(V, W, 0.05, 1.0, np.array([-0.22, 0.22]), OPT)
    n_nodes, horizon = U.provenance["n_nodes"], U.provenance["T_max"]
    for x, value in zip([-0.22, 0.22], U.values):
        parked = np.full((n_nodes, 1), np.copysign(0.25, x))
        _, reference = minimize_halfline(V, W, 0.05, 1.0, [x], horizon, n_nodes, OPT, QUAD, [parked])
        assert value <= reference + 1e-12


def test_hj_eps_fields_reject_two_dimensions():
    V = make_potential("sin2", 2)
    Phi = make_initial_datum("abs_min", 2, cap=1.0)
    axes = (np.linspace(-0.2, 0.2, 3),) * 2
    with pytest.raises(InputError, match="d = 1"):
        solve_evolutionary_eps(V, None, 0.2, Phi, axes, np.array([0.5]), axes, OPT)
    with pytest.raises(InputError, match="d = 1"):
        solve_steady_eps(V, None, 0.2, 1.0, axes, OPT)


def test_s_eps_constant_shift_exact():
    V = make_potential("zero", 1)
    W = make_perturbation("constant", 1, value=0.5)
    base = s_eps(V, None, 0.1, np.array([0.0]), np.array([1.0]), 1.0, opt=OPT)
    shifted = s_eps(V, W, 0.1, np.array([0.0]), np.array([1.0]), 1.0, opt=OPT)
    assert shifted - base == pytest.approx(0.5, abs=1e-8)
    assert base == pytest.approx(1.0, abs=1e-6)


def test_steady_hom_is_flat_minimum_over_discount(free_table):
    lam = 0.5
    U = solve_steady_hom(free_table, lam, np.linspace(-1, 1, 7), opt=OPT)
    np.testing.assert_allclose(U.values, 0.0, atol=1e-12)
    assert U.t_grid is None
    assert U.provenance["table_min"] == free_table.f0


def test_steady_hom_rejects_table_below_f0():
    axis = np.linspace(-1.0, 1.0, 3)
    dipped = HomogenizedLagrangian((axis,), np.array([1.0, 0.5, -0.25]), 0.5)
    with pytest.raises(InvariantError):
        solve_steady_hom(dipped, 1.0, np.linspace(-1, 1, 3))


def test_steady_eps_comparison_bounds_hold():
    V = make_potential("sin2", 1)
    W = make_perturbation("runge_decay", 1, amplitude=1.0)
    lam = 1.0
    x = np.linspace(-0.4, 0.4, 5)
    U = solve_steady_eps(V, W, 0.1, lam, x, opt=OPT)
    lower = (V.v_min + W.lower_bound()) / lam
    upper = (V.v_max + W.upper_bound()) / lam
    assert np.all(U.values >= lower - 1e-9)
    assert np.all(U.values <= upper + 1e-9)


def test_steady_constant_potential_closed_form():
    V = make_potential("constant", 1, value=0.8)
    lam = 0.5
    x = np.linspace(-1, 1, 5)
    U = solve_steady_eps(V, None, 0.1, lam, x, opt=OPT)
    np.testing.assert_allclose(U.values, 0.8 / lam, rtol=5e-3)


def test_park_extension_bound_along_time():
    """Values grown by waiting cost at most max(V+W) per unit time."""
    V = make_potential("sin2", 1)
    W = make_perturbation("runge_decay", 1, amplitude=1.0)
    eps = 0.1
    z = np.linspace(-3, 3, 6001)
    M = float(np.max(V.evaluator(z[:, None]) + W.evaluator(z[:, None])))
    y, x = np.array([0.0]), np.array([0.6])
    ts = [0.5, 1.0, 1.5]
    vals = [s_eps(V, W, eps, y, x, t, opt=OPT) for t in ts]
    for (t1, s1), (t2, s2) in zip(zip(ts, vals), zip(ts[1:], vals[1:])):
        assert s2 <= s1 + M * (t2 - t1) + 0.02 * max(abs(s1), 1.0)


@pytest.mark.parametrize("d", [1, 2])
def test_evolutionary_hom_is_the_per_point_loop(d):
    """One table query per time slice, over its admissible (x, y), gives the
    minima and the skipped fraction of a loop over (t, x) pairs, bit for bit."""
    rng = np.random.default_rng(d)
    axes = tuple(np.linspace(-1.5, 1.0, 6) for _ in range(d))
    f = HomogenizedLagrangian(axes, rng.uniform(0.0, 2.0, size=(6,) * d), 0.0)

    def Phi(y):
        return float(np.sum(np.sin(3.0 * y)))

    x_axes = tuple(np.linspace(-0.5, 0.5, 4) for _ in range(d))
    y_axes = tuple(np.linspace(-1.0, 1.0, 9) for _ in range(d))
    t = np.array([0.5, 1.0, 2.0])
    field = solve_evolutionary_hom(f, Phi, x_axes, t, y_axes)

    lo, hi = np.array(f.hull()).T
    xs, ys = mesh(x_axes), mesh(y_axes)
    phi = np.array([Phi(y) for y in ys])
    want, skipped = np.empty((len(xs), t.size)), 0
    for j, tj in enumerate(t):
        for i, x in enumerate(xs):
            slopes = (x - ys) / tj
            ok = np.all((slopes >= lo) & (slopes <= hi), axis=1)
            skipped += int(np.sum(~ok))
            want[i, j] = np.min(tj * f.value(slopes[ok]) + phi[ok])
    assert skipped > 0
    assert np.array_equal(field.values.reshape(want.shape), want)
    assert field.provenance["skipped_fraction"] == skipped / want.size / len(ys)


@pytest.mark.parametrize("x_block", [1, 3, 5])
def test_evolutionary_hom_blocks_of_x_keep_values_and_error_order(monkeypatch, x_block):
    """Blocks of x that split the grid unevenly give the one-block field bit
    for bit, and still name the first empty (x, t) times first."""
    axes = tuple(np.linspace(-1.5, 1.0, 6) for _ in range(2))
    f = HomogenizedLagrangian(axes, np.random.default_rng(3).uniform(0.0, 2.0, size=(6, 6)), 0.0)

    def Phi(y):
        return float(np.sum(np.sin(3.0 * y)))

    x_axes = tuple(np.linspace(-0.5, 0.5, 4) for _ in range(2))
    y_axes = tuple(np.linspace(-1.0, 1.0, 9) for _ in range(2))
    grids = (x_axes, np.array([0.5, 1.0, 2.0]), y_axes)
    whole = solve_evolutionary_hom(f, Phi, *grids)
    monkeypatch.setattr(hj, "_X_BLOCK", x_block)
    split = solve_evolutionary_hom(f, Phi, *grids)
    assert np.array_equal(split.values, whole.values)
    assert split.provenance == whole.provenance
    # x = 1 has no admissible y at t = 2 and x = 6 none at t = 1, in another block
    shifted = HomogenizedLagrangian((np.array([1.0, 3.0]),), np.array([1.0, 9.0]), 0.0)
    x = np.array([1.0, 1.5, 2.0, 2.5, 3.0, 6.0])
    with pytest.raises(InputError, match=r"no admissible y for x=\[6\.0\], t=1\.0:"):
        solve_evolutionary_hom(shifted, Phi, x, np.array([1.0, 2.0]), np.array([0.0]))


def test_evolutionary_hom_empty_hull_raises(free_table):
    """The error names the first (x, t) with no admissible y, times first."""
    Phi = make_initial_datum("plane_wave", 1, p=[1.0])
    # at x = 50 every (x - y)/t lands outside the tabulated slope hull [-3, 3]
    x = np.array([0.0, 50.0])
    t = np.array([1.0, 2.0])
    y = np.linspace(-1.0, 1.0, 11)
    with pytest.raises(InputError, match=r"no admissible y for x=\[50\.0\], t=1\.0:"):
        solve_evolutionary_hom(free_table, Phi, x, t, y)
    # A hull [1, 3] away from 0 and y = 0 alone: x = 1 has none at t = 2 and
    # x = 6 none at t = 1, which comes first.
    shifted = HomogenizedLagrangian((np.array([1.0, 3.0]),), np.array([1.0, 9.0]), 0.0)
    with pytest.raises(InputError, match=r"no admissible y for x=\[6\.0\], t=1\.0:"):
        solve_evolutionary_hom(shifted, Phi, np.array([1.0, 6.0]), t, np.array([0.0]))
