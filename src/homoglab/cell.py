"""Cell problems, homogenized Lagrangian tables, and recovery machinery.

The homogenized Lagrangian is computed three ways. `cell_value_1d` is the
exact one-dimensional value from the conservation law of the cell flow.
`solve_corrector_1d` solves the one-dimensional cell problem by Newton over
one period, from the affine start alone, and certifies the basin it reached
against `cell_value_1d`; `tabulate_f_hom` uses it in d = 1, and its profile
warm-starts the d = 1 stability runs. `f_hom_asymptotic` (and so
`tabulate_f_hom` in d >= 2, and the stability target in every dimension)
works in any dimension: it sums `cell_value_1d` over the axes of a
potential with an axis factor (every registry potential but `sin2_coupled`
in d >= 2), and otherwise takes the normalized minimum over growing windows
[0, T]. A Newton value is a certified upper bound: it is the action of an
explicit admissible periodic trajectory. A window value is one only when
T * xi is a lattice vector, which the ladder arranges for every xi with
q * xi integral for some q <= 16; at other slopes the ladder can fall below
f_hom and its `monotone` diagnostic may read False.

On top of the tables, this module builds the quasiperiodic piecewise-affine
almost-corrector plans (ergodic shifts aligning the potential's period along
irrational directions) and the perturbation-avoiding recovery trajectories
(per-piece transverse tube shifts plus cusp connectors) that certify upper
bounds for the perturbed functionals.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ErgodicWindowError, InputError, InvariantError, SolverError, check_positive
from .grid import GridTable, axes_of, lower_convex_envelope, mesh, unit_vector
from .minimize import OptimizerSpec, check_node_count, minimize_bvp, minimize_lagrangian_bvp
from .potentials import (
    GeneralLagrangian, PeriodicPotential, Perturbation, _householder_frame, potential_bounds
)
from .quadrature import QuadratureSpec
from .trajectory import Trajectory, action_F, build_connector

__all__ = [
    "CorrectorProfile",
    "HomogenizedLagrangian",
    "AlmostCorrectorPlan",
    "cell_value_1d",
    "solve_corrector_1d",
    "solve_corrector_general",
    "f_hom_asymptotic",
    "tabulate_f_hom",
    "ergodic_shift_finder",
    "build_almost_corrector",
    "build_recovery_trajectory",
    "scaled_corrector_start",
]

_CELL_OPT = OptimizerSpec(max_iters=2000)
# A d = 1 Newton cell value minus the exact one must lie in this window, times
# max(1, |f_1|): below it one of the two is wrong, above it the lone start
# stopped in a basin other than the minimum's.
_EXACT_GAP_WINDOW = (-1e-12, 1e-3)
# Midpoint-convexity defects above this send a table through its lower convex envelope.
_CONVEXITY_TOL = 1e-6


@dataclass(frozen=True)
class CorrectorProfile:
    """Optimal oscillatory profile v of a cell problem on [0, T].

    `profile` holds v itself (vanishing at both window endpoints, exactly at
    the nodes); the minimizing path is t -> t*xi + v(t). `cell_value` is the
    achieved normalized action: an upper bound for the homogenized value
    when T*xi is a lattice vector, so the path extends periodically.
    """

    xi: np.ndarray
    T: float
    profile: Trajectory
    cell_value: float
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "xi", np.atleast_1d(np.asarray(self.xi, dtype=float)))
        v = self.profile.nodes
        if np.any(v[0] != 0.0) or np.any(v[-1] != 0.0):
            raise InvariantError("corrector profile must vanish at both endpoints")


def _profile_from_path(times, nodes, xi) -> Trajectory:
    v = nodes - times[:, None] * xi[None, :]
    v[0] = 0.0
    v[-1] = 0.0
    return Trajectory(times, v)


def solve_corrector_1d(
    V: PeriodicPotential,
    xi,
    opt: OptimizerSpec = _CELL_OPT,
) -> CorrectorProfile | list:
    """One-dimensional periodic cell problem at a finite slope xi != 0.

    Minimizes |xi| * integral over [0, 1/|xi|] of |w'|^2 + V(w) over paths
    with w(0) = 0, w(1/|xi|) = sign(xi); the substitution w = v + t*xi turns
    the corrector problem into this fixed boundary-value problem, on
    max(65, ceil(48/|xi|) + 1) nodes (InputError above 2^20). Newton runs
    from the affine start alone, as every pinned solve with no warm start. The
    result is sandwiched: xi^2 + v_min <= cell_value <= xi^2 + v_max, and
    never exceeds the zero-corrector (affine path) value. Its basin is
    certified against the exact value f_1 = `cell_value_1d` of V: the gap
    cell_value - f_1 must lie in [-1e-12, 1e-3] * max(1, |f_1|), else
    InvariantError. A V with two equal wells per period, which the exact
    value does not resolve, raises SolverError. meta holds `exact_value`
    and `exact_gap`.

    xi may be a sequence of slopes; then a list of profiles comes back, one
    per slope, each the one its own call gives. Every slope is checked
    first, then one `cell_value_1d` pass takes all their exact values, then
    one Newton solve per slope runs in input order. The exact pass comes
    before any Newton solve, so its SolverError comes before a Newton
    solve's error; otherwise the first failing slope raises its own error.
    """
    if V.dimension != 1:
        raise InputError("solve_corrector_1d requires a one-dimensional potential")
    stacked = np.ndim(xi) > 0
    windows = [_corrector_window(float(s)) for s in (xi if stacked else [xi])]
    exact = cell_value_1d(lambda s: V.evaluator(s[..., None]), [s for s, _, _ in windows])
    profiles = [_certified_profile(V, *window, f_1, opt) for window, f_1 in zip(windows, exact)]
    return profiles if stacked else profiles[0]


def _corrector_window(xi: float):
    """(xi, T = 1/|xi|, node count) of a d = 1 cell solve, or InputError."""
    if not math.isfinite(xi):
        raise InputError(f"xi must be finite, got {xi}")
    if xi == 0.0:
        raise InputError("xi must be nonzero; the zero-slope value is v_min")
    T = 1.0 / abs(xi)
    if not math.isfinite(T):
        raise InputError(f"the window T = 1/|xi| at xi={xi} is not finite")
    if not 48.0 * T <= 2**20 - 1:
        raise InputError(
            f"need 2 to 2^20 nodes, got {math.ceil(48 * T) + 1:.15g} "
            f"(window T = 1/|xi| at xi={xi})"
        )
    return xi, T, max(65, int(math.ceil(48 * T)) + 1)


def _certified_profile(V, xi, T, n_nodes, exact, opt) -> CorrectorProfile:
    """The Newton solve of one d = 1 window and its checks, against the exact value."""
    target = math.copysign(1.0, xi)
    traj, value = minimize_bvp(V, None, 1.0, T, 0.0, target, n_nodes, opt)
    cell_value = abs(xi) * value

    affine = Trajectory.affine([0.0], [target], T, n_nodes - 1)
    zero_profile_value = abs(xi) * action_F(affine, V, 1.0)
    if cell_value > zero_profile_value + 1e-12 * max(1.0, abs(zero_profile_value)):
        raise InvariantError(f"descent at xi={xi} returned a value above the zero-corrector bound")
    _check_sandwich(cell_value, xi, V.v_min, V.v_max)
    gap = cell_value - exact
    lo, hi = (bound * max(1.0, abs(exact)) for bound in _EXACT_GAP_WINDOW)
    if not lo <= gap <= hi:
        raise InvariantError(
            f"Newton cell value {cell_value!r} at xi={xi} is {gap:.2e} from the exact "
            f"value {exact!r}, outside {_EXACT_GAP_WINDOW} * max(1, |f_1|)"
        )

    profile = _profile_from_path(traj.times, traj.nodes.copy(), np.array([xi]))
    meta = {
        "n_nodes": n_nodes,
        "zero_profile_value": zero_profile_value,
        "exact_value": exact,
        "exact_gap": gap,
        **traj.meta,
    }
    return CorrectorProfile(np.array([xi]), T, profile, cell_value, meta)


def _check_sandwich(value, xi, lo, hi):
    kinetic = float(np.dot(xi, xi))
    slack = 1e-9 * max(1.0, abs(value))
    if value < kinetic + lo - slack or value > kinetic + hi + slack:
        raise InvariantError(
            f"cell value {value} at xi={xi} escapes the sandwich "
            f"[{kinetic + lo}, {kinetic + hi}]"
        )


# Double-exponential rule over one period: t in [-6, 6] keeps the outermost
# node e^-634 away from the minimizer and exp below overflow.
_DE_T_MAX = 6.0
# Steps 2^-3 .. 2^-10; two successive levels must agree to _CELL_TOL.
_DE_LEVELS = range(3, 11)
_CELL_TOL = 1e-13
# Energies measured from -min v at or below this count as the bottom of the range.
_E_FLOOR = 1e-300


def cell_value_1d(v, xi) -> float | list:
    """Exact homogenized value f_1(xi) of a 1-periodic potential v (vectorized).

    On an optimal crossing of one period the energy E = w'^2 - v(w) is
    constant, fixed by the period time T(E) = integral over [0, 1] of
    dw / sqrt(E + v) = 1/|xi|. Then f_1 = |xi| * integral of
    (E + 2v) / sqrt(E + v), computed as 2|xi| * integral of sqrt(E + v) - E:
    equal at the root, and stationary in E there, so a root error enters
    only to second order. f_1(0) = min v.

    Flat bottom: when T(-min v) is finite (v - min v grows slower than
    quadratically), slopes |xi| <= 1/T(-min v) have no root and
    f_1 = min v + 2|xi| * integral of sqrt(v - min v). The same formula
    serves a root below E = -min v + 1e-300, where it is exact to that size.

    The integrals use a double-exponential rule clustered at the minimizer
    of v, where the integrands peak. Its step halves until two successive
    values agree to 1e-13 relative to max(1, f_1); otherwise SolverError.
    It resolves one well per period: a second well of the same depth shows
    up as levels that disagree. A v constant at every node gives
    min v + xi^2 exactly. A xi not finite or not below 2^511 in size, where
    the energy bracket overflows, raises InputError before any level. NumPy only.

    xi may be a sequence of slopes; then a list comes back, one float per
    slope, each the float its own call gives. The slopes share one scan for
    the minimum and each level's nodes and v values, a level being built
    when a slope first reaches it; +-xi share one energy root. Each slope
    runs its own call's loop over those levels, in input order. Every slope
    is checked first; then the first slope whose own call fails raises that
    error.
    """
    stacked = np.ndim(xi) > 0
    slopes = list(xi) if stacked else [xi]
    for s in slopes:
        if not abs(float(s)) < 2.0**511:  # 4 xi^2, in the energy bracket, stays finite
            raise InputError(f"xi must be finite and below 2^511 in size, got {s}")
    w0, low = _factor_minimum(v)
    levels = []  # (weights, u or None where v - min v is 0 at every node), per _DE_LEVELS entry

    def value_at(s, speed):
        previous, gap = None, math.inf
        for k, level in enumerate(_DE_LEVELS):
            if k == len(levels):
                nodes, weights = _period_nodes(w0, level)
                u = np.maximum(v(nodes) - low, 0.0)
                levels.append((weights, u if np.any(u) else None))
            weights, u = levels[k]
            if u is None:
                return low + speed * speed
            value = low + _energy_value(u, weights, speed)
            if previous is not None:
                gap = abs(value - previous)
                if gap <= _CELL_TOL * max(1.0, abs(value)):
                    return value
            previous = value
        raise SolverError(
            f"cell_value_1d at xi={s}: the finest quadrature levels differ by {gap:.1e}"
        )

    known = {0.0: low}  # speed -> value
    values = []
    for s in slopes:
        speed = abs(float(s))
        if speed not in known:
            known[speed] = value_at(s, speed)
        values.append(known[speed])
    return values if stacked else values[0]


# The zoom offsets of _factor_minimum, in units of the window's half-width.
_ZOOM_OFFSETS = np.linspace(-1.0, 1.0, 33)


def _factor_minimum(v):
    """(w0, v(w0)): the least value of v on a 2048-point scan of [0, 1), then
    12 zooms of 33 points each around the best point, each window 16 times
    narrower than the last."""
    grid = np.arange(2048) / 2048.0
    vals = v(grid)
    k = int(np.argmin(vals))
    w0, low = float(grid[k]), float(vals[k])
    half = 1.0 / 2048.0
    for _ in range(12):
        cand = w0 + half * _ZOOM_OFFSETS
        vals = v(cand)
        k = int(np.argmin(vals))
        if vals[k] < low:
            w0, low = float(cand[k]), float(vals[k])
        half /= 16.0
    return w0, low


def _period_nodes(w0: float, level: int):
    """Nodes and weights of the double-exponential rule over one period.

    The period runs from the minimizer w0 to w0 + 1, both ends at the
    minimum, through x = 1/(1 + exp(-pi sinh t)) on the t grid of step
    2^-level. A node at offset s from either end is evaluated at w0 + s or
    w0 - s (v is 1-periodic), so no offset loses digits to w0 + 1 - s.
    """
    h = 2.0**-level
    t = h * np.arange(1, int(_DE_T_MAX / h) + 1)
    s = 1.0 / (1.0 + np.exp(np.pi * np.sinh(t)))
    weight = h * np.pi * np.cosh(t) * s * (1.0 - s)
    nodes = np.concatenate(([w0 + 0.5], w0 + s, w0 - s))
    weights = np.concatenate(([h * np.pi / 4.0], weight, weight))
    return nodes, weights


def _energy_value(u, weights, speed: float) -> float:
    """max over e >= 0 of 2*speed*A(e) - e, with A(e) = weights @ sqrt(e + u).

    e = E + min v. The maximizer solves T(e) = weights @ (e + u)^-1/2 =
    1/speed: safeguarded Newton in log e inside the bracket [1e-300, hi],
    or e = 0 when T(1e-300) is already at most 1/speed (the flat bottom).
    A Newton step that leaves the bracket, or is more than half the last
    step, becomes a bisection. Rounding near v's minimizer leaves some u at
    exactly 0, so at small speed T grows like e^-1/2 and Newton in log e
    alone would creep up by steps of 2.
    """
    target = 1.0 / speed

    def period(e):
        return float(weights @ (1.0 / np.sqrt(e + u)))

    energy = 0.0
    if period(_E_FLOOR) > target:
        hi = speed * speed  # T(e) <= 1/sqrt(e) up to the rule's rounding
        while period(hi) > target:
            hi *= 2.0
        s_lo, s_hi = math.log(_E_FLOOR), math.log(hi)
        s, last = s_hi, math.inf
        for _ in range(200):
            e = math.exp(s)
            r = 1.0 / np.sqrt(e + u)
            excess = float(weights @ r) - target
            if excess > 0.0:
                s_lo = s
            else:
                s_hi = s
            step = excess / (0.5 * float(weights @ (r * (e / (e + u)))))  # -dT/d(log e) > 0
            if abs(step) <= 1e-13 or s_hi - s_lo <= 1e-13 * abs(s):
                break
            if not (s_lo < s + step < s_hi and abs(step) <= 0.5 * last):
                step = 0.5 * (s_lo + s_hi) - s
            last = abs(step)
            s += step
        else:
            raise SolverError(f"no period-time root found at slope {speed}")
        energy = e
    return 2.0 * speed * float(weights @ np.sqrt(energy + u)) - energy


def solve_corrector_general(
    L: GeneralLagrangian,
    xi,
    T: float,
    n_nodes: int,
    opt: OptimizerSpec = _CELL_OPT,
) -> CorrectorProfile:
    """Window cell problem (1/T) * min of integral of L(w, w') on [0, T].

    Boundary conditions w(0) = 0, w(T) = T*xi. The normalized value must lie
    in |xi|^2 + [inf, sup] of V + W: the kinetic part is at least T*|xi|^2
    (Cauchy-Schwarz), and the winning start is never above the affine one.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if xi.shape[0] != L.V.dimension:
        raise InputError("xi dimension does not match the Lagrangian")
    traj, total = minimize_lagrangian_bvp(L, T, np.zeros_like(xi), T * xi, n_nodes, opt)
    value = total / T
    _check_sandwich(value, xi, *potential_bounds(L.V, L.W))
    profile = _profile_from_path(traj.times, traj.nodes.copy(), xi)
    return CorrectorProfile(xi, float(T), profile, value, {"n_nodes": n_nodes, **traj.meta})


def f_hom_asymptotic(
    V: PeriodicPotential,
    xi,
    opt: OptimizerSpec = _CELL_OPT,
):
    """Homogenized Lagrangian in any dimension: exact when V is separable.

    Returns (value, diagnostics). xi = 0 (every component 0) returns v_min
    exactly: the optimal path parks at the potential's minimum (method
    "minimum"). A nonzero xi whose norm underflows to 0 is rescaled by
    max |xi_k| to find its speed, so its windows are refused as too long
    rather than read as slope 0. A V with an
    axis factor v (V(x) = sum_i v(x_i)) returns sum_i cell_value_1d(v, xi_i)
    (method "separable"), and nothing is solved. Any other V runs the window
    ladder T_k = 2^k * T_0, k = 0..3 (16 nodes per unit time, at least 33),
    and returns the value at the largest window (method "windows"). T_0 is
    the least multiple of the lattice period tau (the least T > 0 with
    T * xi in Z^d) at or above 8/|xi|, so every window bounds f_hom from
    above; a xi that no q <= 16 makes integral has no such tau, and there
    T_0 = 8/|xi|. The
    diagnostics hold the per-window values, the spread of the last two rungs,
    whether the ladder is monotone and whether every solve converged; an
    exact value reports itself as a one-rung ladder with spread 0.

    f_hom is even, and `tabulate_f_hom` calls this at only the first of each
    +-xi pair of its grid. A separable value is even bit for bit. Time
    reversal maps the window at xi onto the one at -xi when T * xi is a
    lattice vector; at other slopes the two ladders are two estimates.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if xi.shape[0] != V.dimension:
        raise InputError("xi dimension does not match the potential")
    if not np.any(xi != 0.0):
        return V.v_min, _exact_diagnostics(V.v_min, "minimum")
    with np.errstate(over="ignore"):  # a huge xi has speed inf; cell_value_1d names it
        speed = float(np.linalg.norm(xi))
    if speed == 0.0:  # the norm of a tiny xi underflows; max |xi_k| rescales it
        scale = float(np.max(np.abs(xi)))
        speed = scale * float(np.linalg.norm(xi / scale))
    if V.factor is not None:
        value = float(sum(cell_value_1d(V.factor, xi)))
        return value, _exact_diagnostics(value, "separable")
    tau = _lattice_period(xi)
    T0 = 8.0 / speed if tau is None else tau * math.ceil(8.0 / speed / tau - 1e-9)
    T_ladder = [T0 * 2.0**k for k in range(4)]

    L = GeneralLagrangian(V)
    values = []
    converged = True
    for T in T_ladder:
        count = max(33, np.ceil(16 * T) + 1)
        check_node_count(count, 1.0, T)  # while a float: a tiny xi's window may be inf
        prof = solve_corrector_general(L, xi, T, int(count), opt)
        values.append(prof.cell_value)
        converged &= prof.meta["converged"]
    diagnostics = {
        "values": values,
        "T_ladder": T_ladder,
        "spread": abs(values[-1] - values[-2]),
        "monotone": all(b <= a + 1e-9 for a, b in zip(values, values[1:])),
        "converged": converged,
        "method": "windows",
    }
    return values[-1], diagnostics


def _lattice_period(xi: np.ndarray):
    """Least T > 0 with T * xi in Z^d, for a xi that some q <= 16 makes
    integral to 1e-12 (T = q / gcd(q * xi) for the least such q, skipping a q
    that rounds q * xi to zero); else None."""
    for q in range(1, 17):
        n = np.round(q * xi)
        if np.any(n) and np.all(np.abs(q * xi - n) <= 1e-12):
            return q / math.gcd(*(int(abs(k)) for k in n))
    return None


def _exact_diagnostics(value: float, method: str) -> dict:
    """f_hom_asymptotic's diagnostics for a value that needed no windows."""
    return {
        "values": [value],
        "T_ladder": [],
        "spread": 0.0,
        "monotone": True,
        "converged": True,
        "method": method,
    }


# ---------------------------------------------------------------------------
# Tabulated homogenized Lagrangians
# ---------------------------------------------------------------------------


class HomogenizedLagrangian(GridTable):
    """Multilinear interpolation table for a homogenized Lagrangian.

    axes: per-dimension symmetric grids containing 0; values: table of
    certified upper-bound cell values with the slope-0 entry pinned to v_min.
    Queries outside the grid hull raise ExtrapolationError. A lower convex
    envelope pass is recorded in `envelope_applied`.
    """

    def __init__(self, axes, values, f0: float, envelope_applied: bool = False, meta=None):
        super().__init__(axes, values, meta)
        self.f0 = float(f0)
        self.envelope_applied = bool(envelope_applied)

    def with_envelope(self) -> "HomogenizedLagrangian":
        """Replace values by their lower convex envelope (flagged)."""
        env = lower_convex_envelope(self.axes, self.values)
        meta = dict(self.meta)
        meta["envelope_max_drop"] = float(np.max(self.values - env))
        return HomogenizedLagrangian(self.axes, env, self.f0, True, meta)

    def to_json(self) -> str:
        return super().to_json(f0=self.f0, envelope_applied=self.envelope_applied)


def tabulate_f_hom(
    V: PeriodicPotential,
    grid,
    opt: OptimizerSpec = _CELL_OPT,
) -> HomogenizedLagrangian:
    """Tabulate the homogenized Lagrangian on a symmetric slope grid.

    f_hom is even: reversing a cell path in time, u(t) -> u(T - t) - T xi,
    maps the window problem at xi onto the one at -xi with the same action.
    So a nonzero slope whose exact negative (every component negated,
    compared with ==) comes earlier in grid order takes that slope's value
    and is not solved; a slope whose negative is in the grid only to within
    the 1e-12 max|ax| the symmetry check allows is solved. The dimension picks the
    method for the solved slopes, recorded as meta["method"]: in d = 1
    ("1d") one `solve_corrector_1d` call on them in grid order, a single
    Newton start per slope certified against the exact value, the largest
    Newton - exact gap recorded as meta["max_exact_gap"]; in d >= 2
    ("asymptotic") `f_hom_asymptotic` per slope, so a potential with an axis
    factor gets exact separable values and any other the window ladder. At
    a xi with no lattice period the reversal does not map one window onto
    the other (T xi is no lattice vector), so the ladders at +-xi are two
    estimates, and the table reports the first slope's at both.
    meta["converged"] is read from the solved slopes. A slope is 0 only when
    every component is 0; its value is pinned to v_min. The grid must
    contain 0 and be symmetric under sign flip per axis. When
    midpoint-convexity defects exceed 1e-6, the lower convex envelope is
    applied and flagged. The first solved slope whose solve fails raises its
    error unchanged (SolverError or InvariantError); in d = 1 the exact
    values of all the solved slopes come before any Newton solve, so a
    SolverError of theirs comes first.
    """
    method = "1d" if V.dimension == 1 else "asymptotic"
    axes = _slope_axes(grid, V.dimension)
    flat = mesh(axes)
    values = np.full(flat.shape[0], V.v_min, dtype=float)
    index = {tuple(point): i for i, point in enumerate(flat)}  # -0.0 and 0.0 are one key
    moving = [i for i, point in enumerate(flat) if np.any(point != 0.0)]
    mirrored = {i: index[tuple(-flat[i])] for i in moving if index.get(tuple(-flat[i]), i) < i}
    solved = [i for i in moving if i not in mirrored]
    converged = True
    gaps = []
    if method == "1d":
        profiles = solve_corrector_1d(V, [float(flat[i, 0]) for i in solved], opt)
        for i, prof in zip(solved, profiles):
            values[i] = prof.cell_value
            converged &= prof.meta["converged"]
            gaps.append(prof.meta["exact_gap"])
    else:
        for i in solved:
            values[i], diagnostics = f_hom_asymptotic(V, flat[i], opt)
            converged &= diagnostics["converged"]
    for i, partner in mirrored.items():
        values[i] = values[partner]

    table = HomogenizedLagrangian(
        axes,
        values.reshape(tuple(ax.size for ax in axes)),
        V.v_min,
        False,
        {"potential": V.name, "method": method, "converged": converged},
    )
    if gaps:
        table.meta["max_exact_gap"] = max(gaps)
    count, worst = table.convexity_violations(_CONVEXITY_TOL)
    table.meta["convexity_violations"] = count
    table.meta["convexity_worst"] = worst
    if count > 0:
        table = table.with_envelope()
        post_count, post_worst = table.convexity_violations(_CONVEXITY_TOL)
        table.meta["convexity_violations"] = post_count
        table.meta["convexity_worst"] = post_worst
    return table


def _slope_axes(grid, dimension: int):
    """Checked slope axes: >= 3 points, containing 0, symmetric under sign flip to
    1e-12 max|ax| and uniform to 1e-9 |first step|, so tiny slopes obey one rule."""
    axes = axes_of(grid, dimension, "grid", 3)
    for ax in axes:
        if not np.any(ax == 0.0):
            raise InputError("each axis must contain the slope 0")
        if np.max(np.abs(ax + ax[::-1])) > 1e-12 * np.max(np.abs(ax)):
            raise InputError("axes must be symmetric under sign flip")
        steps = np.diff(ax)
        if np.max(np.abs(steps - steps[0])) > 1e-9 * abs(steps[0]):
            raise InputError("axes must be uniform for the convexity checks")
    return axes


# ---------------------------------------------------------------------------
# Ergodic shifts and almost-corrector plans
# ---------------------------------------------------------------------------


def _lattice_distance(taus: np.ndarray, xi: np.ndarray) -> np.ndarray:
    pos = taus[:, None] * xi[None, :]
    return np.linalg.norm(pos - np.round(pos), axis=1)


def ergodic_shift_finder(
    xi, eta: float, window_start: float, window_length: float
) -> float:
    """Smallest tau in the window with dist(tau*xi, Z^d) < eta.

    The window is scanned left to right at step eta/(2*|xi|); if no scanned
    point qualifies, ErgodicWindowError reports the window so the caller can
    enlarge it (used when estimating the empirical hit spacing). xi needs a
    nonzero finite norm (`unit_vector`); eta and window_length must be
    positive and finite.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    _, speed = unit_vector(xi, "xi")
    check_positive("eta", eta)
    check_positive("window_length", window_length)
    step = eta / (2.0 * speed)
    n = int(math.floor(window_length / step)) + 1
    taus = window_start + step * np.arange(n)
    dist = _lattice_distance(taus, xi)
    hits = np.flatnonzero(dist < eta)
    if hits.size == 0:
        raise ErgodicWindowError(window_start, window_length, eta)
    return float(taus[hits[0]])


def _estimate_hit_spacing(xi: np.ndarray, eta: float) -> float:
    """Empirical bound L on the gap between ergodic hits, with safety factor 2.

    Scans growing windows until at least 10 hit clusters are seen, takes the
    largest gap between consecutive cluster onsets, and doubles it.
    """
    speed = float(np.linalg.norm(xi))
    step = eta / (2.0 * speed)
    window = 64.0 * max(1.0, 1.0 / speed)
    for _ in range(20):
        n = int(window / step) + 1
        if n > 40_000_000:
            raise SolverError("ergodic scan exceeded its size budget")
        taus = step * np.arange(n)
        dist = _lattice_distance(taus, xi)
        hits = taus[dist < eta]
        if hits.size:
            onsets = hits[np.concatenate(([True], np.diff(hits) > 1.5 * step))]
            if onsets.size >= 10:
                gaps = np.diff(onsets)
                return max(2.0, 2.0 * float(np.max(gaps)))
        window *= 2.0
    raise SolverError("could not observe enough ergodic hits to estimate spacing")


@dataclass
class AlmostCorrectorPlan:
    """Quasiperiodic piecewise-affine corrector surrogate.

    One base block lives on [0, T]: breakpoints a_j with corrector slopes
    xi_j on each piece (full path velocity xi_j + xi, never zero). The block
    repeats at shift times T_i chosen so that T_i * xi is within eta of the
    lattice, with spacing T + 1 <= T_{i+1} - T_i <= T + l_delta; between
    blocks the corrector is zero.
    """

    xi: np.ndarray
    delta: float
    eta: float
    l_delta: float
    T: float
    shifts: np.ndarray
    breakpoints: np.ndarray
    slopes: np.ndarray
    profile_values: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.xi = np.atleast_1d(np.asarray(self.xi, dtype=float))
        self.shifts = np.asarray(self.shifts, dtype=float)
        self.breakpoints = np.asarray(self.breakpoints, dtype=float)
        self.slopes = np.asarray(self.slopes, dtype=float)
        self.profile_values = np.asarray(self.profile_values, dtype=float)
        self.validate()

    @property
    def dimension(self) -> int:
        return self.xi.shape[0]

    def validate(self):
        if self.shifts.size == 0 or self.shifts[0] != 0.0:
            raise InvariantError("shift list must start at 0")
        if self.T < (self.l_delta + 1.0) / self.delta:
            raise InvariantError("block length T below (L+1)/delta")
        spacing = np.diff(self.shifts)
        if np.any(spacing < self.T + 1.0) or np.any(spacing > self.T + self.l_delta):
            raise InvariantError("shift spacing escapes [T+1, T+L]")
        if np.any(_lattice_distance(self.shifts, self.xi) >= self.eta):
            raise InvariantError("a shift strays further than eta from the lattice")
        a = self.breakpoints
        if a[0] != 0.0 or abs(a[-1] - self.T) > 1e-9 * max(1.0, self.T) or np.any(np.diff(a) <= 0):
            raise InvariantError("breakpoints must increase from 0 to T")
        full = self.slopes + self.xi[None, :]
        if np.any(np.linalg.norm(full, axis=1) == 0.0):
            raise InvariantError("a piece moves with zero full velocity")
        if np.any(self.profile_values[0] != 0.0) or np.any(self.profile_values[-1] != 0.0):
            raise InvariantError("block profile must vanish at both block ends")

    def base_profile(self, local_t: np.ndarray) -> np.ndarray:
        """Corrector values v(t) on [0, T] (zero outside), per axis interp."""
        local_t = np.asarray(local_t, dtype=float)
        out = np.zeros(local_t.shape + (self.dimension,))
        inside = (local_t >= 0.0) & (local_t <= self.T)
        for k in range(self.dimension):
            out[inside, k] = np.interp(
                local_t[inside], self.breakpoints, self.profile_values[:, k]
            )
        return out

    def profile(self, t) -> np.ndarray:
        """Global quasiperiodic corrector p(t): block copies at each shift."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        idx = np.clip(np.searchsorted(self.shifts, t, side="right") - 1, 0, None)
        return self.base_profile(t - self.shifts[idx])

    def block_trajectory(self, i: int) -> Trajectory:
        """Path t*xi + p(t) across block i, resampled at 8 nodes per unit time."""
        Ti = float(self.shifts[i])
        n = max(2, int(math.ceil(8 * self.T)))
        t = Ti + np.linspace(0.0, self.T, n + 1)
        nodes = t[:, None] * self.xi[None, :] + self.base_profile(t - Ti)
        return Trajectory(t, nodes)


def build_almost_corrector(
    V: PeriodicPotential,
    xi,
    delta: float,
    horizon: float,
    opt: OptimizerSpec = _CELL_OPT,
) -> AlmostCorrectorPlan:
    """Build the quasiperiodic almost-corrector plan for slope xi.

    eta is the largest value <= 1/4 with lip * eta <= delta/2 < delta, for V's
    Lipschitz constant lip (V.lipschitz; InputError when V declares none);
    the empirical hit spacing L sets the block length T = ceil((L+1)/delta);
    the base block profile is the window cell solution at T (8 nodes per unit
    time, at least 33), resampled to at most 32 affine pieces; shifts are
    generated up to the horizon by scanning each window [T_i + T + 1,
    T_i + T + L]. If some window has no
    hit, the spacing estimate doubles and the construction restarts. xi needs
    a nonzero finite norm; delta and horizon must be positive and finite.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    unit_vector(xi, "xi")
    check_positive("delta", delta)
    check_positive("horizon", horizon)
    if V.lipschitz is None:
        raise InputError(f"potential {V.name!r} declares no Lipschitz constant")
    eta = min(0.25, delta / 2.0 / V.lipschitz) if V.lipschitz > 0 else 0.25
    l_delta = _estimate_hit_spacing(xi, eta)

    for _ in range(3):
        T = float(math.ceil((l_delta + 1.0) / delta))
        try:
            shifts = _generate_shifts(xi, eta, T, l_delta, horizon)
        except ErgodicWindowError:
            l_delta *= 2.0
            continue
        break
    else:
        raise SolverError("could not generate a consistent shift sequence")

    L = GeneralLagrangian(V)
    n_nodes = max(33, int(math.ceil(8 * T)) + 1)
    base = solve_corrector_general(L, xi, T, n_nodes, opt)

    n_pieces = min(32, base.profile.n_intervals)
    breakpoints = np.linspace(0.0, T, n_pieces + 1)
    profile_values = base.profile(breakpoints)
    profile_values[0] = 0.0
    profile_values[-1] = 0.0
    slopes = np.diff(profile_values, axis=0) / np.diff(breakpoints)[:, None]
    slopes, profile_values = _nudge_degenerate_pieces(
        slopes, profile_values, breakpoints, xi
    )

    plan = AlmostCorrectorPlan(
        xi,
        float(delta),
        float(eta),
        float(l_delta),
        T,
        shifts,
        breakpoints,
        slopes,
        profile_values,
        meta={
            "cell_value_at_T": base.cell_value,
            "n_pieces": int(n_pieces),
            "solver_nodes": n_nodes,
        },
    )
    plan.meta["block_actions"] = [
        action_F(plan.block_trajectory(i), V, 1.0) / T
        for i in range(min(3, plan.shifts.size))
    ]
    return plan


def _generate_shifts(xi, eta, T, l_delta, horizon) -> np.ndarray:
    shifts = [0.0]
    while shifts[-1] <= horizon:
        start = shifts[-1] + T + 1.0
        tau = ergodic_shift_finder(xi, eta, start, l_delta - 1.0)
        if tau - shifts[-1] > T + l_delta:
            raise ErgodicWindowError(start, l_delta - 1.0, eta)
        shifts.append(tau)
    return np.asarray(shifts)


def _nudge_degenerate_pieces(slopes, values, breakpoints, xi):
    """Ensure every piece has xi_j + xi != 0 by minimally moving breakpoints' values."""
    unit, speed = unit_vector(xi, "xi")
    floor = 1e-9 * (1.0 + speed)
    for _ in range(3):
        full = slopes + xi[None, :]
        bad = np.flatnonzero(np.linalg.norm(full, axis=1) <= floor)
        if bad.size == 0:
            return slopes, values
        for j in bad:
            width = breakpoints[j + 1] - breakpoints[j]
            target = j + 1 if j + 1 < values.shape[0] - 1 else j
            if target == 0 or target == values.shape[0] - 1:
                continue
            values[target] += 2.0 * floor * width * unit
        slopes = np.diff(values, axis=0) / np.diff(breakpoints)[:, None]
    raise InvariantError("could not remove zero-velocity pieces from the block profile")


# ---------------------------------------------------------------------------
# Recovery trajectories
# ---------------------------------------------------------------------------

# The tube radius of the piece shifts and the cusp exponent of the connectors.
_ETA_TUBE = 0.25
_CUSP_ALPHA = 0.75


def _plan_pieces(plan: AlmostCorrectorPlan, t_end: float):
    """Affine pieces of t*xi + p(t) covering [0, t_end]: (t_a, t_b, slope_j)."""
    pieces = []
    xi = plan.xi
    shifts = plan.shifts
    for i, Ti in enumerate(shifts):
        if Ti >= t_end:
            break
        for j in range(plan.slopes.shape[0]):
            t_a = Ti + plan.breakpoints[j]
            t_b = Ti + plan.breakpoints[j + 1]
            if t_a >= t_end:
                break
            pieces.append((t_a, min(t_b, t_end), plan.slopes[j]))
        gap_a = Ti + plan.T
        gap_b = shifts[i + 1] if i + 1 < shifts.size else t_end
        if gap_a < t_end and gap_b > gap_a:
            pieces.append((gap_a, min(gap_b, t_end), np.zeros_like(xi)))
    return [(a, b, s) for (a, b, s) in pieces if b - a > 1e-12]


def _tube_offsets(d: int) -> np.ndarray:
    """Transverse tube offsets (k, d - 1): the 9-per-axis grid on [-_ETA_TUBE,
    _ETA_TUBE] cut to the disc, ordered |z| then lex (the grid is dyadic, so
    |z|^2 is exact and ties compare equal). In d = 1 the only offset is empty."""
    if d == 1:
        return np.zeros((1, 0))
    grid = mesh([np.linspace(-_ETA_TUBE, _ETA_TUBE, 9)] * (d - 1))
    grid = grid[np.sum(grid**2, axis=1) <= _ETA_TUBE**2]
    return grid[np.lexsort([*grid.T[::-1], np.sum(grid**2, axis=1)])]


def _piece_w_integral(x_a, x_b, duration, z_cands, W: Perturbation, m: int):
    """W line integrals of the segment shifted by each candidate z."""
    n_sub = max(2, int(math.ceil(4.0 * duration)))
    lam = (np.arange(n_sub)[:, None] + (np.arange(m) + 0.5)[None, :] / m) / n_sub
    base = x_a[None, None, :] * (1 - lam)[:, :, None] + x_b[None, None, :] * lam[:, :, None]
    pts = base[None, :, :, :] + z_cands[:, None, None, :]
    vals = W.evaluator(pts)
    return np.sum(vals, axis=(1, 2)) * (duration / (n_sub * m))


def build_recovery_trajectory(plan: AlmostCorrectorPlan, W: Perturbation, eps: float) -> Trajectory:
    """Admissible competitor u on [0, 1] with u(0) = 0 and u(1) = xi exactly.

    The microscopic path follows the plan's affine pieces; each piece may be
    shifted by a transverse z (|z| <= _ETA_TUBE, the `_tube_offsets` table,
    built once per path and turned into each piece's frame; argmin of the W
    line integral with lowest-|z|-then-lex tie-break; the first piece stays
    unshifted to pin the start). Cusp connectors of exponent _CUSP_ALPHA
    bridge the junction jumps; a short straight closing run lands exactly on
    xi/eps. The whole time axis is rescaled onto [0, 1/eps] and then mapped to
    macroscopic coordinates, so the result certifies an upper bound through
    its action. A connector whose graded time steps vanish in those times (a
    jump near 1e-8 between nearly parallel pieces) is left out: its piece
    starts where the path is. eps must be positive and finite.
    """
    if W.dimension != plan.dimension:
        raise InputError("perturbation and plan dimensions disagree")
    if W.sign_class != "nonnegative":
        raise InputError("recovery construction requires a nonnegative perturbation")
    check_positive("eps", eps)
    m = QuadratureSpec().samples_per_interval
    xi = plan.xi
    offsets = _tube_offsets(plan.dimension)
    t_end = 1.0 / eps
    t_run = min(1.0, 0.25 * t_end)
    t_core = t_end - t_run

    legs = []  # (shifted start, shifted end, duration) of each piece
    z_used = []
    w_integrals = []
    for k, (t_a, t_b, slope) in enumerate(_plan_pieces(plan, t_core)):
        x_a = t_a * xi + plan.profile(np.array([t_a]))[0]
        x_b = t_b * xi + plan.profile(np.array([t_b]))[0]
        if k == 0:
            z_cands = np.zeros((1, plan.dimension))
        else:
            direction = slope + xi
            z_cands = offsets @ _householder_frame(direction / np.linalg.norm(direction))[:, 1:].T
        integrals = _piece_w_integral(x_a, x_b, t_b - t_a, z_cands, W, m)
        pick = int(np.argmin(integrals))
        z = z_cands[pick]
        z_used.append(z.tolist())
        w_integrals.append(float(integrals[pick]))
        legs.append((x_a + z, x_b + z, t_b - t_a))

    skip = set()  # the pieces whose connector is left out
    while True:
        times, nodes, cursor, connectors = _join_legs(legs, t_run, t_end * xi, W, skip)
        macro_times = times * (t_end / cursor) * eps
        macro_times[0] = 0.0
        macro_times[-1] = 1.0
        flat = np.flatnonzero(np.diff(macro_times) <= 0) + 1
        vanished = {k for k, lo, hi, _ in connectors if np.any((flat >= lo) & (flat <= hi))}
        if not vanished:
            break
        skip |= vanished
    macro_nodes = nodes * eps
    macro_nodes[0] = 0.0
    macro_nodes[-1] = xi
    return Trajectory(
        macro_times,
        macro_nodes,
        meta={
            "eps": eps,
            "z_shifts": z_used,
            "piece_w_integrals": w_integrals,
            "connector_count": len(connectors),
            "connectors": [record for *_, record in connectors],
            "raw_micro_duration": float(cursor),
        },
    )


def _join_legs(legs, t_run, target, W, skip):
    """(times, nodes, duration, connectors) of the raw path along `legs`, with a
    cusp connector of exponent _CUSP_ALPHA (piece, first and last time index,
    {r, kinetic}) across each jump, except before a piece in `skip`, then a
    straight run to target."""
    d = target.shape[0]
    times_chunks = [np.array([0.0])]
    node_chunks = [np.zeros((1, d))]
    cursor, size = 0.0, 1
    pos = np.zeros(d)
    connectors = []
    for k, (entry, end, duration) in enumerate(legs):
        if float(np.linalg.norm(entry - pos)) > 1e-12:
            if k in skip:
                entry = pos
            else:
                conn = build_connector(pos, entry, _CUSP_ALPHA, W)
                times_chunks.append(cursor + (conn.times[1:] - conn.times[0]))
                node_chunks.append(conn.nodes[1:])
                cursor += float(conn.times[-1] - conn.times[0])
                pos = conn.nodes[-1]
                record = {"r": conn.meta["r"], "kinetic": conn.meta["kinetic_integral"]}
                connectors.append((k, size, size + conn.times.size - 2, record))
                size += conn.times.size - 1
        n_sub = max(2, int(math.ceil(2.0 * duration)))
        frac = np.linspace(0.0, 1.0, n_sub + 1)[1:]
        node_chunks.append(entry[None, :] * (1 - frac)[:, None] + end[None, :] * frac[:, None])
        times_chunks.append(cursor + duration * frac)
        size += n_sub
        cursor += duration
        pos = end

    n_sub = max(2, int(math.ceil(4.0 * t_run)))
    frac = np.linspace(0.0, 1.0, n_sub + 1)[1:]
    times_chunks.append(cursor + t_run * frac)
    node_chunks.append(pos[None, :] * (1 - frac)[:, None] + target[None, :] * frac[:, None])
    cursor += t_run
    return np.concatenate(times_chunks), np.concatenate(node_chunks, axis=0), cursor, connectors


def scaled_corrector_start(profile: CorrectorProfile, eps: float, n_nodes: int) -> Trajectory:
    """Affine macro path from 0 to profile.xi on [0, 1], decorated with the
    eps-scaled periodic corrector: u(t) = t * xi + eps * v((t/eps) mod T).

    Warm start of the d = 1 stability rungs. Its ends are pinned to exactly 0
    and profile.xi.
    """
    times = np.linspace(0.0, 1.0, int(n_nodes))
    nodes = times[:, None] * profile.xi[None, :]
    local = np.mod(times / eps, profile.T)
    for k in range(profile.profile.dimension):
        nodes[:, k] += eps * np.interp(local, profile.profile.times, profile.profile.nodes[:, k])
    nodes[0] = 0.0
    nodes[-1] = profile.xi
    return Trajectory(times, nodes, meta={"eps": eps, "kind": "scaled_corrector"})
