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

from .errors import InputError, InvariantError, check_positive
from .grid import mesh
from .potentials import (
    PeriodicPotential, Perturbation, _householder_frame, check_no_atom, eval_potential
)
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
    def affine(cls, a, b, t: float, n_intervals: int = 1) -> "Trajectory":
        """The straight path on [0, t] from a to b, on n_intervals equal intervals."""
        a = np.atleast_1d(np.asarray(a, dtype=float))
        b = np.atleast_1d(np.asarray(b, dtype=float))
        lam = np.linspace(0.0, 1.0, n_intervals + 1)[:, None]
        nodes = a[None, :] * (1 - lam) + b[None, :] * lam
        return cls(np.linspace(0.0, t, n_intervals + 1), nodes)

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
    """Unperturbed action: integral of |u'|^2 + V(u/eps) over the window, for
    eps positive and finite."""
    check_positive("eps", eps)
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

    A W with a zero atom raises InputError: pointwise samples never see it,
    and only the lattice DP oracles charge it.
    """
    value = action_F(u, V, eps, quad)
    if W is None:
        return value
    _check_dims(u, None, W)
    check_no_atom(W)
    return value + potential_term(u.times, u.nodes, W.evaluator, eps, quad.samples_per_interval)


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
    exactly and the comparison bounds hold without quadrature slack. A W with
    a zero atom raises InputError, as in action_G; eps and lam must be
    positive and finite.
    """
    check_positive("eps", eps)
    check_positive("lam", lam)
    if abs(u.t0) > 1e-12:
        raise InputError("discounted actions start at t0 = 0")
    _check_dims(u, V, W)
    check_no_atom(W)
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
    return value


# ---------------------------------------------------------------------------
# Cusp connectors
# ---------------------------------------------------------------------------


def _cap_directions(dimension: int) -> np.ndarray:
    """32 directions theta with theta_1 < -1/2 (local coordinates), midpoint grids."""
    count = 32
    if dimension == 2:
        phi = midpoints(2 * np.pi / 3, 4 * np.pi / 3, count)
        return np.stack([np.cos(phi), np.sin(phi)], axis=1)
    if dimension == 3:
        n_psi = max(2, int(np.ceil(np.sqrt(count / 2))))
        n_az = max(2, int(np.ceil(count / n_psi)))
        psi, az = midpoints(0.0, np.pi / 3, n_psi), midpoints(0.0, 2 * np.pi, n_az)
        ps, a = mesh([psi, az]).T.copy()  # contiguous, as meshgrid gave
        return np.stack([-np.cos(ps), np.sin(ps) * np.cos(a), np.sin(ps) * np.sin(a)], axis=-1)
    raise InputError("connectors support dimension 2 or 3")


def connector_kinetic_bound(alpha: float, r: float) -> float:
    """Analytic kinetic budget 2*alpha^2/(2*alpha - 1) * r^{(2*alpha-1)/alpha}."""
    return 2 * alpha**2 / (2 * alpha - 1) * r ** ((2 * alpha - 1) / alpha)


def _graded_side(length: float) -> np.ndarray:
    """Distances from a cusp: 0, then 36 distances growing by 1/0.75 up to `length`."""
    steps = length * 0.75 ** np.arange(35, -1, -1)
    out = np.concatenate(([0.0], steps))
    out[-1] = length
    return out


def build_connector(x0, y0, alpha: float, W: Perturbation) -> Trajectory:
    """Short curve joining x0 to y0 through a low-W corridor.

    The curve leaves both endpoints along cusps |s|^alpha in a direction theta
    chosen from the cap {theta_1 < -1/2} (local frame aligned with x0 - y0) by
    discrete minimization of the W line integral over 32 cap directions, scored
    as one stack with one W call (the first least wins); the
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
    times = np.unique(np.concatenate((-half + side, [0.0], (half - side[::-1])[1:])))

    # Every cap direction theta (one path each), and its mirror theta_hat.
    thetas = _cap_directions(d)
    hats = np.column_stack((-thetas[:, 0], thetas[:, 1:]))
    t_theta = (-1.0 / (2.0 * thetas[:, 0]))[:, None, None]
    left = (times <= 0.0)[:, None]
    prof = np.where(left, np.abs(times + half)[:, None], np.abs(half - times)[:, None]) ** alpha
    nodes_loc = np.where(
        left,
        (r / 2.0) * np.eye(d)[0] + prof * (t_theta * thetas[:, None, :]),
        -(r / 2.0) * np.eye(d)[0] + prof * (t_theta * hats[:, None, :]),
    )
    paths = mid + nodes_loc @ frame.T
    paths[:, 0] = x0
    paths[:, -1] = y0
    m = QuadratureSpec().samples_per_interval
    vals = W.evaluator(interval_samples(paths, m))  # potential_term of each path, at eps = 1
    w_vals = np.sum(np.sum(vals, axis=-1) * (np.diff(times) / m), axis=-1)
    idx = int(np.argmin(w_vals))
    traj = Trajectory(
        times,
        paths[idx],
        meta={
            "alpha": alpha,
            "r": r,
            "theta_local": thetas[idx].tolist(),
            "theta_index": idx,
            "w_integral": float(w_vals[idx]),
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
    Requires 1 < alpha*d < p and r positive and finite. Raises InvariantError
    if lhs exceeds rhs * (1 + POLAR_BOUND_TOL).
    """
    d = W.dimension
    p = W.integrability_exponent
    if p is None:
        raise InputError("perturbation declares no integrability exponent")
    if not (1.0 < alpha * d < p):
        raise InputError(f"need 1 < alpha*d < p, got alpha*d={alpha * d}, p={p}")
    check_positive("r", r)

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
