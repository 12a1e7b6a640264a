"""Cell problems, homogenized Lagrangian tables, and recovery machinery.

The homogenized Lagrangian is computed two ways: the one-dimensional periodic
cell formula (minimize over one period, exact scaling by |xi|), and the
asymptotic window formula in any dimension (normalized minimum over growing
windows [0, T]). Both return certified upper bounds: every value is the
action of an explicit admissible trajectory.

On top of the tables, this module builds the quasiperiodic piecewise-affine
almost-corrector plans (ergodic shifts aligning the potential's period along
irrational directions) and the perturbation-avoiding recovery trajectories
(per-piece transverse tube shifts plus cusp connectors) that certify upper
bounds for the perturbed functionals.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ErgodicWindowError, InputError, InvariantError, SolverError
from .grid import GridTable, axes_of, lower_convex_envelope, mesh
from .minimize import OptimizerSpec, minimize_bvp, minimize_lagrangian_bvp
from .potentials import GeneralLagrangian, PeriodicPotential, Perturbation, _householder_frame
from .quadrature import QuadratureSpec
from .trajectory import Trajectory, action_F, build_connector

__all__ = [
    "CorrectorProfile",
    "HomogenizedLagrangian",
    "AlmostCorrectorPlan",
    "solve_corrector_1d",
    "solve_corrector_general",
    "f_hom_asymptotic",
    "tabulate_f_hom",
    "ergodic_shift_finder",
    "build_almost_corrector",
    "build_recovery_trajectory",
    "scaled_corrector_start",
]

_CELL_OPT = OptimizerSpec(max_iters=2000, restarts=3)
# Midpoint-convexity defects above this send a table through its lower convex envelope.
_CONVEXITY_TOL = 1e-6


@dataclass(frozen=True)
class CorrectorProfile:
    """Optimal oscillatory profile v of a cell problem on [0, T].

    `profile` holds v itself (vanishing at both window endpoints, exactly at
    the nodes); the minimizing path is t -> t*xi + v(t). `cell_value` is the
    achieved normalized action, an upper bound for the homogenized value.
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

    def path(self) -> Trajectory:
        """The full minimizing path t*xi + v(t) as a trajectory."""
        t = self.profile.times
        return Trajectory(t, t[:, None] * self.xi[None, :] + self.profile.nodes)


def _profile_from_path(times, nodes, xi) -> Trajectory:
    v = nodes - times[:, None] * xi[None, :]
    v[0] = 0.0
    v[-1] = 0.0
    return Trajectory(times, v)


def solve_corrector_1d(
    V: PeriodicPotential,
    xi: float,
    opt: OptimizerSpec = _CELL_OPT,
    quad: QuadratureSpec = QuadratureSpec(),
) -> CorrectorProfile:
    """One-dimensional periodic cell problem at slope xi != 0.

    Minimizes |xi| * integral over [0, 1/|xi|] of |w'|^2 + V(w) over paths
    with w(0) = 0, w(1/|xi|) = sign(xi); the substitution w = v + t*xi turns
    the corrector problem into this fixed boundary-value problem. The result
    is sandwiched: xi^2 + v_min <= cell_value <= xi^2 + v_max, and never
    exceeds the zero-corrector (affine path) value.
    """
    if V.dimension != 1:
        raise InputError("solve_corrector_1d requires a one-dimensional potential")
    xi = float(xi)
    if xi == 0.0:
        raise InputError("xi must be nonzero; the zero-slope value is v_min")
    T = 1.0 / abs(xi)
    n_nodes = max(65, int(math.ceil(48 * T)) + 1)
    target = math.copysign(1.0, xi)
    traj, value = minimize_bvp(V, None, 1.0, 0.0, T, 0.0, target, n_nodes, opt, quad)
    cell_value = abs(xi) * value

    affine = Trajectory.affine([0.0], [target], 0.0, T, n_nodes - 1)
    zero_profile_value = abs(xi) * action_F(affine, V, 1.0, quad)
    if cell_value > zero_profile_value + 1e-12 * max(1.0, abs(zero_profile_value)):
        raise InvariantError("descent returned a value above the zero-corrector bound")
    _check_sandwich(cell_value, xi * xi, V.v_min, V.v_max)

    profile = _profile_from_path(traj.times, traj.nodes.copy(), np.array([xi]))
    meta = {"n_nodes": n_nodes, "zero_profile_value": zero_profile_value, **traj.meta}
    return CorrectorProfile(np.array([xi]), T, profile, cell_value, meta)


def _check_sandwich(value, kinetic, lo, hi, slack: float = 1e-9):
    scale = max(1.0, abs(value))
    if value < kinetic + lo - slack * scale or value > kinetic + hi + slack * scale:
        raise InvariantError(
            f"cell value {value} escapes the sandwich [{kinetic + lo}, {kinetic + hi}]"
        )


def solve_corrector_general(
    L: GeneralLagrangian,
    xi,
    T: float,
    n_nodes: int,
    opt: OptimizerSpec = _CELL_OPT,
    quad: QuadratureSpec = QuadratureSpec(),
) -> CorrectorProfile:
    """Window cell problem (1/T) * min of integral of L(w, w') on [0, T].

    Boundary conditions w(0) = 0, w(T) = T*xi; the normalized value is checked
    against the declared growth bounds c1*|xi|^r <= value <= c2*(1+|xi|^r).
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if xi.shape[0] != L.dimension:
        raise InputError("xi dimension does not match the Lagrangian")
    if not T > 0:
        raise InputError("window length T must be positive")
    traj, total = minimize_lagrangian_bvp(L, 0.0, T, np.zeros_like(xi), T * xi, n_nodes, opt, quad)
    value = total / T
    speed = float(np.linalg.norm(xi))
    r = L.growth_exponent
    scale = max(1.0, abs(value))
    if value < L.c_lower * speed**r - 1e-9 * scale:
        raise InvariantError("cell value below the declared lower growth bound")
    if value > L.c_upper * (1.0 + speed**r) + 1e-9 * scale:
        raise InvariantError("cell value above the declared upper growth bound")
    profile = _profile_from_path(traj.times, traj.nodes.copy(), xi)
    return CorrectorProfile(xi, float(T), profile, value, {"n_nodes": n_nodes, **traj.meta})


def f_hom_asymptotic(
    V: PeriodicPotential,
    xi,
    opt: OptimizerSpec = _CELL_OPT,
    quad: QuadratureSpec = QuadratureSpec(),
):
    """Homogenized Lagrangian via growing windows; works in any dimension.

    Returns (value, diagnostics): the value at the largest window of the
    ladder {8, 16, 32, 64}/|xi| (16 nodes per unit time, at least 33) and
    per-window values with the spread of the last two rungs. xi = 0 returns
    v_min exactly: the optimal path parks at the potential's minimum, so no
    solve is needed.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if xi.shape[0] != V.dimension:
        raise InputError("xi dimension does not match the potential")
    speed = float(np.linalg.norm(xi))
    if speed == 0.0:
        return V.v_min, {"values": [V.v_min], "T_ladder": [], "spread": 0.0}
    T_ladder = [T / speed for T in (8.0, 16.0, 32.0, 64.0)]

    L = GeneralLagrangian.from_potential(V)
    values = []
    converged = True
    for T in T_ladder:
        prof = solve_corrector_general(L, xi, T, max(33, int(math.ceil(16 * T)) + 1), opt, quad)
        values.append(prof.cell_value)
        converged &= prof.meta["converged"]
        _check_sandwich(prof.cell_value, speed * speed, V.v_min, V.v_max)
    diagnostics = {
        "values": values,
        "T_ladder": T_ladder,
        "spread": abs(values[-1] - values[-2]),
        "monotone": all(b <= a + 1e-9 for a, b in zip(values, values[1:])),
        "converged": converged,
    }
    return values[-1], diagnostics


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

    @classmethod
    def from_json(cls, text: str) -> "HomogenizedLagrangian":
        payload = json.loads(text)
        return cls(
            payload["axes"],
            payload["values"],
            payload["f0"],
            payload["envelope_applied"],
            payload.get("meta"),
        )


def tabulate_f_hom(
    V: PeriodicPotential,
    grid,
    method: str = "1d",
    opt: OptimizerSpec = _CELL_OPT,
    quad: QuadratureSpec = QuadratureSpec(),
) -> HomogenizedLagrangian:
    """Tabulate the homogenized Lagrangian on a symmetric slope grid.

    The grid must contain 0 and be symmetric under sign flip per axis. The
    slope-0 value is pinned to v_min. When midpoint-convexity defects exceed
    1e-6, the lower convex envelope is applied and flagged. Failures at
    individual grid points are collected into a single SolverError listing
    the points.
    """
    if method not in ("1d", "asymptotic"):
        raise InputError("method must be '1d' or 'asymptotic'")
    if method == "1d" and V.dimension != 1:
        raise InputError("method '1d' requires a one-dimensional potential")
    axes = _slope_axes(grid, V.dimension)
    flat = mesh(axes)
    values = np.empty(flat.shape[0])
    failures = []
    converged = True
    for i, point in enumerate(flat):
        speed = float(np.linalg.norm(point))
        try:
            if speed == 0.0:
                values[i] = V.v_min
            elif method == "1d":
                prof = solve_corrector_1d(V, float(point[0]), opt, quad)
                values[i] = prof.cell_value
                converged &= prof.meta["converged"]
            else:
                values[i], diagnostics = f_hom_asymptotic(V, point, opt, quad)
                converged &= diagnostics["converged"]
        except (SolverError, InvariantError) as exc:
            failures.append((point.tolist(), str(exc)))
    if failures:
        raise SolverError(f"tabulation failed at {len(failures)} grid points: {failures}")

    table = HomogenizedLagrangian(
        axes,
        values.reshape(tuple(ax.size for ax in axes)),
        V.v_min,
        False,
        {"potential": V.name, "method": method, "converged": converged},
    )
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
    """Checked slope axes: >= 3 points, symmetric under sign flip, containing 0, uniform."""
    axes = axes_of(grid, dimension, "grid", 3)
    for ax in axes:
        if not np.any(ax == 0.0):
            raise InputError("each axis must contain the slope 0")
        if np.max(np.abs(ax + ax[::-1])) > 1e-12:
            raise InputError("axes must be symmetric under sign flip")
        steps = np.diff(ax)
        if np.max(np.abs(steps - steps[0])) > 1e-9 * max(1.0, abs(steps[0])):
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
    enlarge it (used when estimating the empirical hit spacing).
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    speed = float(np.linalg.norm(xi))
    if speed == 0.0:
        raise InputError("xi must be nonzero")
    if not eta > 0:
        raise InputError("eta must be positive")
    if not window_length > 0:
        raise InputError("window_length must be positive")
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


def _eta_from_modulus(V: PeriodicPotential, delta: float, eta_max: float = 0.25) -> float:
    """Largest eta <= eta_max with omega(eta) <= delta/2, by bisection."""
    target = delta / 2.0
    if V.modulus(eta_max) <= target:
        return eta_max
    lo, hi = 0.0, eta_max
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if V.modulus(mid) <= target:
            lo = mid
        else:
            hi = mid
    if lo == 0.0:
        raise SolverError("continuity modulus admits no positive eta for this delta")
    return lo


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
    quad: QuadratureSpec = QuadratureSpec(),
) -> AlmostCorrectorPlan:
    """Build the quasiperiodic almost-corrector plan for slope xi.

    eta comes from the continuity modulus (omega(eta) <= delta/2 < delta);
    the empirical hit spacing L sets the block length T = ceil((L+1)/delta);
    the base block profile is the window cell solution at T (8 nodes per unit
    time, at least 33), resampled to at most 32 affine pieces; shifts are
    generated up to the horizon by scanning each window [T_i + T + 1,
    T_i + T + L]. If some window has no
    hit, the spacing estimate doubles and the construction restarts.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    speed = float(np.linalg.norm(xi))
    if speed == 0.0:
        raise InputError("xi must be nonzero")
    if not delta > 0:
        raise InputError("delta must be positive")
    eta = _eta_from_modulus(V, delta)
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

    L = GeneralLagrangian.from_potential(V)
    n_nodes = max(33, int(math.ceil(8 * T)) + 1)
    base = solve_corrector_general(L, xi, T, n_nodes, opt, quad)

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
        action_F(plan.block_trajectory(i), V, 1.0, quad) / T
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
    speed = float(np.linalg.norm(xi))
    floor = 1e-9 * (1.0 + speed)
    unit = xi / speed
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
    if shifts.size and shifts[-1] + plan.T < t_end:
        last_end = pieces[-1][1]
        if last_end < t_end:
            pieces.append((last_end, t_end, np.zeros_like(xi)))
    return [(a, b, s) for (a, b, s) in pieces if b - a > 1e-12]


def _tube_shift_candidates(direction: np.ndarray, eta_tube: float):
    """Transverse shifts on the 9^(d-1) disc grid, ordered |z| then lex."""
    d = direction.shape[0]
    if d == 1:
        return np.zeros((1, 1))
    basis = _householder_frame(direction / np.linalg.norm(direction))[:, 1:]
    coeffs_1d = np.linspace(-eta_tube, eta_tube, 9)
    coeffs = mesh([coeffs_1d] * (d - 1))
    keep = np.linalg.norm(coeffs, axis=1) <= eta_tube + 1e-12
    coeffs = np.unique(coeffs[keep], axis=0)
    order = sorted(
        range(coeffs.shape[0]),
        key=lambda i: (round(float(np.sum(coeffs[i] ** 2)), 12), tuple(coeffs[i])),
    )
    return coeffs[order] @ basis.T


def _piece_w_integral(x_a, x_b, duration, z_cands, W: Perturbation, m: int):
    """W line integrals of the segment shifted by each candidate z."""
    n_sub = max(2, int(math.ceil(4.0 * duration)))
    lam = (np.arange(n_sub)[:, None] + (np.arange(m) + 0.5)[None, :] / m) / n_sub
    base = x_a[None, None, :] * (1 - lam)[:, :, None] + x_b[None, None, :] * lam[:, :, None]
    pts = base[None, :, :, :] + z_cands[:, None, None, :]
    vals = W.evaluator(pts)
    return np.sum(vals, axis=(1, 2)) * (duration / (n_sub * m))


def build_recovery_trajectory(
    plan: AlmostCorrectorPlan,
    W: Perturbation,
    eps: float,
    eta_tube: float,
    alpha: float,
    quad: QuadratureSpec = QuadratureSpec(),
) -> Trajectory:
    """Admissible competitor u on [0, 1] with u(0) = 0 and u(1) = xi exactly.

    The microscopic path follows the plan's affine pieces; each piece may be
    shifted by a transverse z (|z| <= eta_tube, 9-per-axis disc grid, argmin
    of the W line integral with lowest-|z|-then-lex tie-break; the first piece
    stays unshifted to pin the start). Cusp connectors bridge the junction
    jumps; a short straight closing run lands exactly on xi/eps. The whole
    time axis is rescaled onto [0, 1/eps] and then mapped to macroscopic
    coordinates, so the result certifies an upper bound through its action.
    """
    if W.dimension != plan.dimension:
        raise InputError("perturbation and plan dimensions disagree")
    if W.sign_class != "nonnegative":
        raise InputError("recovery construction requires a nonnegative perturbation")
    if not eps > 0:
        raise InputError("eps must be positive")
    if eta_tube < 0:
        raise InputError("eta_tube must be nonnegative")
    m = quad.samples_per_interval
    xi = plan.xi
    t_end = 1.0 / eps
    t_run = min(1.0, 0.25 * t_end)
    t_core = t_end - t_run

    pieces = _plan_pieces(plan, t_core)
    times_chunks = [np.array([0.0])]
    node_chunks = [np.zeros((1, plan.dimension))]
    cursor = 0.0
    pos = np.zeros(plan.dimension)
    z_used = []
    w_integrals = []
    connector_count = 0
    connector_meta = []

    for k, (t_a, t_b, slope) in enumerate(pieces):
        x_a = t_a * xi + plan.profile(np.array([t_a]))[0]
        x_b = t_b * xi + plan.profile(np.array([t_b]))[0]
        full = slope + xi
        if k == 0 or eta_tube == 0.0:
            z_cands = np.zeros((1, plan.dimension))
        else:
            z_cands = _tube_shift_candidates(full, eta_tube)
        integrals = _piece_w_integral(x_a, x_b, t_b - t_a, z_cands, W, m)
        pick = int(np.argmin(integrals))
        z = z_cands[pick]
        z_used.append(z.tolist())
        w_integrals.append(float(integrals[pick]))

        entry = x_a + z
        gap = float(np.linalg.norm(entry - pos))
        if gap > 1e-12:
            conn = build_connector(pos, entry, alpha, W)
            duration = float(conn.times[-1] - conn.times[0])
            times_chunks.append(cursor + (conn.times[1:] - conn.times[0]))
            node_chunks.append(conn.nodes[1:])
            cursor += duration
            pos = conn.nodes[-1]
            connector_count += 1
            connector_meta.append(
                {"r": conn.meta["r"], "kinetic": conn.meta["kinetic_integral"]}
            )
        n_sub = max(2, int(math.ceil(2.0 * (t_b - t_a))))
        frac = np.linspace(0.0, 1.0, n_sub + 1)[1:]
        seg_nodes = entry[None, :] * (1 - frac)[:, None] + (x_b + z)[None, :] * frac[:, None]
        times_chunks.append(cursor + (t_b - t_a) * frac)
        node_chunks.append(seg_nodes)
        cursor += t_b - t_a
        pos = x_b + z

    target = t_end * xi
    n_sub = max(2, int(math.ceil(4.0 * t_run)))
    frac = np.linspace(0.0, 1.0, n_sub + 1)[1:]
    times_chunks.append(cursor + t_run * frac)
    node_chunks.append(pos[None, :] * (1 - frac)[:, None] + target[None, :] * frac[:, None])
    cursor += t_run

    times = np.concatenate(times_chunks) * (t_end / cursor)
    nodes = np.concatenate(node_chunks, axis=0)
    macro_times = times * eps
    macro_nodes = nodes * eps
    macro_times[0] = 0.0
    macro_times[-1] = 1.0
    macro_nodes[0] = 0.0
    macro_nodes[-1] = xi
    return Trajectory(
        macro_times,
        macro_nodes,
        meta={
            "eps": eps,
            "eta_tube": eta_tube,
            "alpha": alpha,
            "z_shifts": z_used,
            "piece_w_integrals": w_integrals,
            "connector_count": connector_count,
            "connectors": connector_meta,
            "raw_micro_duration": float(cursor),
        },
    )


def scaled_corrector_start(
    profile: CorrectorProfile, eps: float, t0: float, t1: float, a, b, n_nodes: int
) -> Trajectory:
    """Affine macro path decorated with the eps-scaled periodic corrector.

    Warm start for perturbed minimizations: u(t) = affine(t) +
    eps * v(((t - t0)/eps) mod T). Endpoints are pinned exactly.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    times = np.linspace(float(t0), float(t1), int(n_nodes))
    lam = (times - times[0]) / (times[-1] - times[0])
    nodes = a[None, :] * (1 - lam)[:, None] + b[None, :] * lam[:, None]
    nodes = nodes + scaled_oscillation(profile, eps, times)
    nodes[0] = a
    nodes[-1] = b
    return Trajectory(times, nodes, meta={"eps": eps, "kind": "scaled_corrector"})


def scaled_oscillation(profile: CorrectorProfile, eps: float, times) -> np.ndarray:
    """eps * v(((t - t0)/eps) mod T) at the times: the corrector decoration (n, d)."""
    local = np.mod((times - times[0]) / eps, profile.T)
    osc = np.stack(
        [
            np.interp(local, profile.profile.times, profile.profile.nodes[:, k])
            for k in range(profile.profile.dimension)
        ],
        axis=-1,
    )
    return eps * osc
