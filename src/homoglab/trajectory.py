"""Piecewise-linear trajectories and the action functionals evaluated on them.

A Trajectory interpolates linearly between nodes at strictly increasing times.
Kinetic terms sum |increment|^2 / width exactly; potential terms use composite
midpoint sampling inside every interval, so a trajectory's action is a
deterministic function of (nodes, times, QuadratureSpec) that optimizers can
reproduce to machine precision.

The sample layout and the exact discount weights come from quadrature.py, as
do the sphere and ball rules of the polar bound behind the cusp connectors.

Uniform node layouts are the norm (`Trajectory.affine`, optimizer grids).
Graded layouts appear only in cusp connectors, whose profile (distance)^alpha
has unbounded slope at the endpoints for alpha < 1: geometric clustering of
nodes near the cusps makes the discrete kinetic integral approach its analytic
value from below (linear interpolation never increases kinetic energy).
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InputError, InvariantError
from .potentials import PeriodicPotential, Perturbation, _householder_frame, eval_potential
from .quadrature import (
    QuadratureSpec,
    ball_rule,
    exp_interval_weights,
    interval_samples,
    midpoints,
    sphere_rule,
    sub_interval_edges,
)

__all__ = [
    "Trajectory",
    "action_F",
    "action_G",
    "discounted_action",
    "homogenized_action",
    "zero_set_measure",
    "build_connector",
    "connector_kinetic_bound",
    "polar_bound_check",
]


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    nodes: np.ndarray
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim == 1:
            nodes = nodes[:, None]
        if times.ndim != 1 or times.size < 2:
            raise InputError("need at least two time nodes")
        if nodes.shape[0] != times.size:
            raise InputError("times and nodes disagree in length")
        if not np.all(np.diff(times) > 0):
            raise InputError("times must be strictly increasing")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(nodes))):
            raise InputError("times and nodes must be finite")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "nodes", nodes)

    # -- constructors -------------------------------------------------------

    @classmethod
    def affine(cls, a, b, t0: float, t1: float, n_intervals: int = 1) -> "Trajectory":
        a = np.atleast_1d(np.asarray(a, dtype=float))
        b = np.atleast_1d(np.asarray(b, dtype=float))
        lam = np.linspace(0.0, 1.0, n_intervals + 1)[:, None]
        nodes = a[None, :] * (1 - lam) + b[None, :] * lam
        return cls(np.linspace(t0, t1, n_intervals + 1), nodes)

    # -- basic geometry ------------------------------------------------------

    @property
    def t0(self) -> float:
        return float(self.times[0])

    @property
    def t1(self) -> float:
        return float(self.times[-1])

    @property
    def dimension(self) -> int:
        return self.nodes.shape[1]

    @property
    def n_intervals(self) -> int:
        return self.times.size - 1

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.times)

    @property
    def slopes(self) -> np.ndarray:
        return np.diff(self.nodes, axis=0) / self.widths[:, None]

    def __call__(self, t):
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        if np.any(ts < self.times[0] - 1e-12) or np.any(ts > self.times[-1] + 1e-12):
            raise InputError("evaluation time outside the trajectory window")
        idx = np.clip(np.searchsorted(self.times, ts, side="right") - 1, 0, self.n_intervals - 1)
        lam = (ts - self.times[idx]) / self.widths[idx]
        lam = np.clip(lam, 0.0, 1.0)
        vals = self.nodes[idx] * (1 - lam[:, None]) + self.nodes[idx + 1] * lam[:, None]
        if np.isscalar(t) or np.asarray(t).ndim == 0:
            return vals[0]
        return vals

    def resample(self, times) -> "Trajectory":
        times = np.asarray(times, dtype=float)
        return Trajectory(times, self(times), dict(self.meta))

    def kinetic_integral(self) -> float:
        diffs = np.diff(self.nodes, axis=0)
        return float(np.sum(np.sum(diffs * diffs, axis=1) / self.widths))


# ---------------------------------------------------------------------------
# Action functionals
# ---------------------------------------------------------------------------


def potential_term(times, nodes, fn, eps: float, m: int) -> float:
    """Composite midpoint integral of fn(u(t)/eps) dt along the path."""
    pts = interval_samples(nodes, m)
    vals = fn(pts / eps)
    widths = np.diff(times)
    return float(np.sum(np.sum(vals, axis=1) * (widths / m)))


def _check_dims(u: Trajectory, V, W):
    for obj in (V, W):
        if obj is not None and obj.dimension != u.dimension:
            raise InputError("trajectory and potential dimensions disagree")


def action_F(
    u: Trajectory, V: PeriodicPotential, eps: float, quad: QuadratureSpec = QuadratureSpec()
) -> float:
    """Unperturbed action: integral of |u'|^2 + V(u/eps) over the window."""
    if eps <= 0:
        raise InputError("eps must be positive")
    _check_dims(u, V, None)
    return u.kinetic_integral() + potential_term(
        u.times, u.nodes, V.evaluator, eps, quad.samples_per_interval
    )


def action_G(
    u: Trajectory,
    V: PeriodicPotential,
    W: Optional[Perturbation],
    eps: float,
    quad: QuadratureSpec = QuadratureSpec(),
) -> float:
    """Perturbed action: action_F plus the integral of W(u/eps).

    A zero_atom on W contributes atom * |{t : u(t) = 0}| exactly, via the
    piecewise-linear zero set (u(t)/eps = 0 iff u(t) = 0, so the atom term
    does not depend on eps).
    """
    value = action_F(u, V, eps, quad)
    if W is None:
        return value
    _check_dims(u, None, W)
    value += potential_term(u.times, u.nodes, W.evaluator, eps, quad.samples_per_interval)
    if W.zero_atom != 0.0:
        value += W.zero_atom * zero_set_measure(u)
    return value


def discounted_action(
    u: Trajectory,
    V: PeriodicPotential,
    W: Optional[Perturbation],
    eps: float,
    lam: float,
    quad: QuadratureSpec = QuadratureSpec(),
) -> float:
    """Discounted action on [0, infinity) truncated at t1 with a constant tail.

    The path is extended by u(t) = u(t1) for t > t1, contributing the exact
    tail (V+W)(u(t1)/eps) * exp(-lam*t1)/lam. Discount weights are exact
    interval integrals of exp(-lam*t), so constants integrate to value/lam
    exactly and the comparison bounds hold without quadrature slack.
    """
    if eps <= 0:
        raise InputError("eps must be positive")
    if abs(u.t0) > 1e-12:
        raise InputError("discounted actions start at t0 = 0")
    _check_dims(u, V, W)
    m = quad.samples_per_interval

    weights = exp_interval_weights(sub_interval_edges(u.times, m), lam)
    pts = interval_samples(u.nodes, m)
    vals = eval_potential(V, W, pts / eps)
    value = float(np.sum(vals * weights))

    slopes = u.slopes
    kin_w = exp_interval_weights(u.times, lam)
    value += float(np.sum(np.sum(slopes * slopes, axis=1) * kin_w))

    tail_weight = float(np.exp(-lam * u.t1) / lam)
    end = u.nodes[-1][None, :]
    value += float(eval_potential(V, W, end / eps)[0]) * tail_weight

    if W is not None and W.zero_atom != 0.0:
        value += W.zero_atom * _discounted_zero_measure(u, lam)
        if np.all(u.nodes[-1] == 0.0):
            value += W.zero_atom * tail_weight
    return value


def homogenized_action(u: Trajectory, f_table, lam: Optional[float] = None) -> float:
    """Action of the effective Lagrangian: sum of f(slope) * interval weight.

    Piecewise-linear trajectories make this exact given the tabulated f: each
    interval contributes f(slope) times its width (or times the exact
    exponential weight when a discount rate is given, plus the constant-tail
    term f(0) * exp(-lam*t1)/lam). Slopes outside the table hull raise
    ExtrapolationError rather than clamping.
    """
    slopes = u.slopes
    vals = f_table.value(slopes)
    if lam is None:
        return float(np.sum(vals * u.widths))
    if abs(u.t0) > 1e-12:
        raise InputError("discounted actions start at t0 = 0")
    kin_w = exp_interval_weights(u.times, lam)
    value = float(np.sum(vals * kin_w))
    value += f_table.f0 * float(np.exp(-lam * u.t1) / lam)
    return value


# ---------------------------------------------------------------------------
# Zero set of a piecewise-linear path (exact)
# ---------------------------------------------------------------------------


def _zero_intervals(u: Trajectory):
    """Subintervals where u(t) = 0, solved exactly per linear piece."""
    out = []
    times, nodes = u.times, u.nodes
    for k in range(u.n_intervals):
        h = times[k + 1] - times[k]
        x = nodes[k]
        v = (nodes[k + 1] - nodes[k]) / h
        a = float(v @ v)
        b = 2.0 * float(x @ v)
        c = float(x @ x)
        if a == 0.0:
            if c <= 0.0:
                out.append((times[k], times[k + 1]))
            continue
        disc = b * b - 4 * a * c
        if disc < 0.0:
            continue
        root = np.sqrt(disc)
        lo = (-b - root) / (2 * a)
        hi = (-b + root) / (2 * a)
        lo, hi = max(lo, 0.0), min(hi, h)
        if hi > lo:
            out.append((times[k] + lo, times[k] + hi))
    return out


def zero_set_measure(u: Trajectory) -> float:
    """Lebesgue measure of {t : u(t) = 0}, exact for linear pieces."""
    return float(sum(hi - lo for lo, hi in _zero_intervals(u)))


def _discounted_zero_measure(u: Trajectory, lam: float) -> float:
    """Discounted time u spends at 0: the exact exp(-lam*t) weights of its zero intervals."""
    edges = np.array(_zero_intervals(u), dtype=float).reshape(-1, 2)
    return float(np.sum(exp_interval_weights(edges, lam)))


# ---------------------------------------------------------------------------
# Cusp connectors
# ---------------------------------------------------------------------------


def _cap_directions(dimension: int, count: int) -> np.ndarray:
    """Directions theta with theta_1 < -1/2 (local coordinates), midpoint grids."""
    if dimension == 2:
        phi = midpoints(2 * np.pi / 3, 4 * np.pi / 3, count)
        return np.stack([np.cos(phi), np.sin(phi)], axis=1)
    if dimension == 3:
        n_psi = max(2, int(np.ceil(np.sqrt(count / 2))))
        n_az = max(2, int(np.ceil(count / n_psi)))
        psi, az = midpoints(0.0, np.pi / 3, n_psi), midpoints(0.0, 2 * np.pi, n_az)
        ps, a = np.meshgrid(psi, az, indexing="ij")
        thetas = np.stack([-np.cos(ps), np.sin(ps) * np.cos(a), np.sin(ps) * np.sin(a)], axis=-1)
        return thetas.reshape(-1, 3)
    raise InputError("connectors support dimension 2 or 3")


def connector_kinetic_bound(alpha: float, r: float) -> float:
    """Analytic kinetic budget 2*alpha^2/(2*alpha - 1) * r^{(2*alpha-1)/alpha}."""
    return 2 * alpha**2 / (2 * alpha - 1) * r ** ((2 * alpha - 1) / alpha)


def _graded_side(length: float, n_cells: int = 36, ratio: float = 0.75) -> np.ndarray:
    """Distances from a cusp: 0, then geometric growth up to `length`."""
    steps = length * ratio ** np.arange(n_cells - 1, -1, -1)
    out = np.concatenate(([0.0], steps))
    out[-1] = length
    return out


def build_connector(x0, y0, alpha: float, W: Perturbation) -> Trajectory:
    """Short curve joining x0 to y0 through a low-W corridor.

    The curve leaves both endpoints along cusps |s|^alpha in a direction theta
    chosen from the cap {theta_1 < -1/2} (local frame aligned with x0 - y0) by
    discrete minimization of the W line integral over 32 cap directions; the
    two cusp arcs meet on the mid-hyperplane. Its kinetic integral is bounded
    by connector_kinetic_bound(alpha, |x0-y0|) for every theta in the cap, with
    the piecewise-linear interpolant always at or below the analytic value.
    Requires 1/2 < alpha < p/d for the declared integrability exponent p.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    d = x0.shape[0]
    if y0.shape[0] != d or W.dimension != d:
        raise InputError("endpoint and perturbation dimensions disagree")
    if not alpha > 0.5:
        raise InputError("need alpha > 1/2")
    p = W.integrability_exponent
    if p is None:
        raise InputError("perturbation declares no integrability exponent")
    if not alpha < p / d:
        raise InputError(f"need alpha < p/d = {p / d}")
    r = float(np.linalg.norm(x0 - y0))
    if r == 0.0:
        raise InputError("endpoints coincide")

    frame = _householder_frame((x0 - y0) / r)
    mid = 0.5 * (x0 + y0)
    half = r ** (1.0 / alpha)
    side = _graded_side(half)

    t_left = -half + side
    t_right = half - side[::-1]
    times = np.concatenate((t_left, [0.0], t_right[1:]))
    times = np.unique(times)

    thetas = _cap_directions(d, 32)
    m = QuadratureSpec().samples_per_interval
    best = None
    for idx, theta in enumerate(thetas):
        t_theta = -1.0 / (2.0 * theta[0])
        theta_hat = theta.copy()
        theta_hat[0] = -theta[0]
        nodes_loc = np.empty((times.size, d))
        left = times <= 0.0
        prof_l = np.abs(times[left] + half) ** alpha
        nodes_loc[left] = (r / 2.0) * np.eye(d)[0] + prof_l[:, None] * (t_theta * theta)[None, :]
        right = ~left
        prof_r = np.abs(half - times[right]) ** alpha
        nodes_loc[right] = (
            -(r / 2.0) * np.eye(d)[0] + prof_r[:, None] * (t_theta * theta_hat)[None, :]
        )
        nodes = mid[None, :] + nodes_loc @ frame.T
        nodes[0] = x0
        nodes[-1] = y0
        w_val = potential_term(times, nodes, W.evaluator, 1.0, m)
        if best is None or w_val < best[0]:
            best = (w_val, idx, nodes, theta)

    w_val, idx, nodes, theta = best
    traj = Trajectory(
        times,
        nodes,
        meta={
            "alpha": alpha,
            "r": r,
            "theta_local": theta.tolist(),
            "theta_index": idx,
            "w_integral": w_val,
            "kinetic_integral": 0.0,
            "kinetic_bound": connector_kinetic_bound(alpha, r),
        },
    )
    traj.meta["kinetic_integral"] = traj.kinetic_integral()
    if traj.meta["kinetic_integral"] > traj.meta["kinetic_bound"] * (1 + 1e-12):
        raise InvariantError("connector kinetic integral exceeded its analytic budget")
    return traj


# ---------------------------------------------------------------------------
# Polar integral bound
# ---------------------------------------------------------------------------


SPHERE_MEASURE = {2: 2 * np.pi, 3: 4 * np.pi}
# Relative slack of the polar bound for the quadrature error of both sides.
POLAR_BOUND_TOL = 1e-3


def polar_bound_check(W: Perturbation, alpha: float, r: float):
    """Certify the polar-coordinate bound linking cusp line integrals to L^p mass.

    lhs = integral over the unit sphere of integral_0^{r^{1/alpha}}
    W(t^alpha * theta) dt; rhs = alpha^{-1/p} * ((p-1)/(p-alpha*d) *
    |S^{d-1}|)^{1-1/p} * r^beta * (integral_{B_r} |W|^p)^{1/p} with beta =
    (p - alpha*d)/(alpha*p). The constant is the one produced by the Hoelder
    split with the change of variables rho = t^alpha (whose Jacobian
    contributes the alpha^{-1/p}). Both sides use quadrature.sphere_rule with
    256 (d = 2) or 64 x 128 (d = 3) cells, lhs on 512 midpoints in t and rhs
    on ball_rule's 512 radial cells.
    Requires 1 < alpha*d < p. Raises InvariantError if lhs exceeds
    rhs * (1 + POLAR_BOUND_TOL).
    """
    d = W.dimension
    p = W.integrability_exponent
    if p is None:
        raise InputError("perturbation declares no integrability exponent")
    if not (1.0 < alpha * d < p):
        raise InputError(f"need 1 < alpha*d < p, got alpha*d={alpha * d}, p={p}")
    if r <= 0:
        raise InputError("r must be positive")

    n_sphere = 256 if d == 2 else 64
    sphere_pts, sphere_wts = sphere_rule(d, n_sphere)
    n_t = 512
    half = r ** (1.0 / alpha)
    radial = midpoints(0.0, half, n_t) ** alpha
    vals = W.evaluator(radial[:, None, None] * sphere_pts[None, :, :])
    lhs = float(np.sum(vals * sphere_wts[None, :]) * (half / n_t))

    ball_pts, ball_wts = ball_rule(d, 512, n_sphere)
    lp_mass = float(np.sum(np.abs(W.evaluator(r * ball_pts)) ** p * ball_wts)) * r**d

    beta = (p - alpha * d) / (alpha * p)
    constant = alpha ** (-1.0 / p) * ((p - 1) / (p - alpha * d) * SPHERE_MEASURE[d]) ** (
        1.0 - 1.0 / p
    )
    rhs = constant * r**beta * lp_mass ** (1.0 / p)
    if lhs > rhs * (1.0 + POLAR_BOUND_TOL):
        raise InvariantError(
            f"polar bound violated: lhs={lhs:.6g} > rhs={rhs:.6g} beyond tolerance"
        )
    return lhs, rhs
