"""Periodic potentials, perturbations, and the integral diagnostics on them.

The running Lagrangian is L(x, xi) = |xi|^2 + V(x) + W(x) with V periodic of
period 1 in every coordinate and W a decaying (or compactly supported, or
merely sign-constrained) perturbation. The Hamiltonian obtained by convex
duality in the velocity slot is H(x, p) = |p|^2/4 - V(x) - W(x).

Whether a perturbation is harmless for homogenization is probed through
integral averages:

* line_average: (1/R) * integral of W over [-R, R] (d = 1),
* cylinder_average: (1/R) * integral of W over B_R intersected with the tube
  of radius r around the line R*xi (d >= 2),
* lp_unif_estimate: sup over centers y of integral of W^p over B_1(y).

Evaluators are vectorized over points: they take arrays of shape (..., d) and
return shape (...). For d = 1 a bare (...) array is also accepted.
"""

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, InputError, InvariantError, SolverError
from .grid import as_points, mesh
from .quadrature import QuadratureSpec, midpoint_offsets, midpoints

REGISTRY_VERSION = "1"

SIGN_CLASSES = ("nonnegative", "nonpositive", "signed")


class _Differentiable:
    """Derivatives of `evaluator`: declared closed forms, else central differences."""

    def grad(self, x):
        pts = as_points(x, self.dimension)
        if self.gradient is not None:
            return self.gradient(pts)
        return _fd_gradient(self.evaluator, pts)

    def hess(self, x):
        """Hessian matrices, shape (..., d, d), at points of shape (..., d)."""
        pts = as_points(x, self.dimension)
        if self.hessian is not None:
            return self.hessian(pts)
        return _fd_hessian(self.grad, pts)


@dataclass(frozen=True)
class PeriodicPotential(_Differentiable):
    """Potential V with period 1 in every coordinate, v_min <= V <= v_max."""

    dimension: int
    evaluator: Callable
    v_min: float
    v_max: float
    continuity_modulus: Optional[Callable] = None
    gradient: Optional[Callable] = None
    name: str = ""
    hessian: Optional[Callable] = None

    def __post_init__(self):
        if self.dimension < 1:
            raise InputError("dimension must be >= 1")
        if not self.v_min <= self.v_max:
            raise InputError("need v_min <= v_max")

    def __call__(self, x):
        pts = as_points(x, self.dimension)
        return self.evaluator(pts)

    def modulus(self, delta: float) -> float:
        if self.continuity_modulus is None:
            raise InputError(f"potential {self.name!r} declares no continuity modulus")
        return float(self.continuity_modulus(delta))

    def check_periodicity(self):
        """Sample V(x + e_i) - V(x) at 100 seeded random points; raise beyond 1e-12."""
        x = np.random.default_rng(0).uniform(-3.0, 3.0, size=(100, self.dimension))
        base = self.evaluator(x)
        for axis in range(self.dimension):
            shifted = x.copy()
            shifted[:, axis] += 1.0
            gap = float(np.max(np.abs(self.evaluator(shifted) - base)))
            if gap > 1e-12:
                raise InvariantError(
                    f"potential {self.name!r} is not 1-periodic along axis {axis}: max gap {gap:.3e}"
                )


@dataclass(frozen=True)
class Perturbation(_Differentiable):
    """Perturbation W with a declared sign class and size metadata.

    sup_bound bounds |W|; support_radius is the radius of a ball around the
    origin containing the support (inf for global support);
    integrability_exponent is the p declared for uniform-L^p diagnostics and
    connector constructions. zero_atom adds an atom of that value on the set
    {x = 0}: it is invisible to pointwise quadrature and is accounted exactly
    through the time the trajectory spends at 0.
    """

    dimension: int
    evaluator: Callable
    sign_class: str
    sup_bound: float = np.inf
    integrability_exponent: Optional[float] = None
    support_radius: float = np.inf
    gradient: Optional[Callable] = None
    zero_atom: float = 0.0
    name: str = ""
    hessian: Optional[Callable] = None

    def __post_init__(self):
        if self.sign_class not in SIGN_CLASSES:
            raise InputError(f"sign_class must be one of {SIGN_CLASSES}")
        if self.sup_bound < 0:
            raise InputError("sup_bound bounds |W| and must be >= 0")

    def __call__(self, x):
        pts = as_points(x, self.dimension)
        return self.evaluator(pts)

    def upper_bound(self) -> float:
        """Pointwise upper bound for W including the atom."""
        ambient = 0.0 if self.sign_class == "nonpositive" else self.sup_bound
        return max(ambient, ambient + max(self.zero_atom, 0.0))

    def lower_bound(self) -> float:
        """Pointwise lower bound for W including the atom."""
        ambient = 0.0 if self.sign_class == "nonnegative" else -self.sup_bound
        return min(ambient, ambient + min(self.zero_atom, 0.0))


@dataclass(frozen=True)
class GeneralLagrangian:
    """Lagrangian L(x, xi), 1-periodic in x, with r-growth in the velocity.

    The declared growth bounds c1*|xi|^r <= L(x, xi) <= c2*(1 + |xi|^r)
    are what the asymptotic cell formula needs; they are the caller's promise
    and are re-checked against every solved cell value. Lagrangians built by
    `from_potential` carry their V and W, which is what the minimizers use.
    """

    dimension: int
    evaluator: Callable
    growth_exponent: float
    c_lower: float
    c_upper: float
    V: Optional[PeriodicPotential] = None
    W: Optional[Perturbation] = None
    name: str = ""

    def __post_init__(self):
        if not self.growth_exponent > 1:
            raise InputError("growth exponent must exceed 1")
        if not (0 < self.c_lower <= self.c_upper):
            raise InputError("need 0 < c_lower <= c_upper")

    def __call__(self, x, xi):
        pts = as_points(x, self.dimension)
        vel = as_points(xi, self.dimension)
        return self.evaluator(pts, vel)

    @classmethod
    def from_potential(cls, V: PeriodicPotential, W: Optional[Perturbation] = None):
        """Wrap |xi|^2 + V(x) (+ W(x)) with its natural quadratic growth data."""
        if W is not None and W.dimension != V.dimension:
            raise InputError("V and W dimensions disagree")

        def evaluator(x, xi):
            return np.sum(xi * xi, axis=-1) + eval_potential(V, W, x)

        low = V.v_min + (W.lower_bound() if W is not None else 0.0)
        high = V.v_max + (W.upper_bound() if W is not None else 0.0)
        if low < 0:
            raise InputError(
                "signed potentials break the lower growth bound; "
                "use the DP oracles for those problems"
            )
        c1 = 1.0
        c2 = max(1.0, 1.0 + max(high, 0.0))
        name = f"quadratic[{V.name}" + (f"+{W.name}]" if W is not None else "]")
        return cls(V.dimension, evaluator, 2.0, c1, c2, V, W, name)


def _fd_gradient(evaluator, pts: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient for evaluators without closed forms."""
    grad = np.empty_like(pts)
    for axis in range(pts.shape[-1]):
        plus = pts.copy()
        minus = pts.copy()
        plus[..., axis] += h
        minus[..., axis] -= h
        grad[..., axis] = (evaluator(plus) - evaluator(minus)) / (2 * h)
    return grad


def _fd_hessian(gradient, pts: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Symmetrized central difference of a gradient, for objects without a closed form."""
    hess = np.empty(pts.shape + (pts.shape[-1],))
    for axis in range(pts.shape[-1]):
        plus = pts.copy()
        minus = pts.copy()
        plus[..., axis] += h
        minus[..., axis] -= h
        hess[..., :, axis] = (gradient(plus) - gradient(minus)) / (2 * h)
    return 0.5 * (hess + np.swapaxes(hess, -1, -2))


def eval_potential(V: Optional[PeriodicPotential], W: Optional[Perturbation], y):
    """(V + W)(y) at points y of shape (..., d), by the raw evaluators; an absent term is zero."""
    if V is None or W is None:
        term = W if V is None else V
        return np.zeros(y.shape[:-1]) if term is None else term.evaluator(y)
    return V.evaluator(y) + W.evaluator(y)


def eval_lagrangian(V: PeriodicPotential, W: Optional[Perturbation], x, xi):
    """L(x, xi) = |xi|^2 + V(x) + W(x), broadcasting over both slots."""
    if W is not None and W.dimension != V.dimension:
        raise InputError("V and W dimensions disagree")
    vel = as_points(xi, V.dimension)
    return np.sum(vel * vel, axis=-1) + eval_potential(V, W, as_points(x, V.dimension))


def eval_hamiltonian(V: PeriodicPotential, W: Optional[Perturbation], x, p):
    """H(x, p) = |p|^2/4 - V(x) - W(x), the convex dual of eval_lagrangian."""
    if W is not None and W.dimension != V.dimension:
        raise InputError("V and W dimensions disagree")
    mom = as_points(p, V.dimension)
    return 0.25 * np.sum(mom * mom, axis=-1) - eval_potential(V, W, as_points(x, V.dimension))


def line_average(W: Perturbation, R: float, quad: QuadratureSpec) -> float:
    """(1/R) * integral of W over [-R, R]; the d = 1 decay diagnostic."""
    if W.dimension != 1:
        raise InputError("line_average requires a one-dimensional perturbation")
    if not R > 0:
        raise InputError("R must be positive")
    n = max(64, int(np.ceil(2 * R * quad.samples_per_interval)))
    pts = midpoints(-R, R, n)
    return float(np.sum(W.evaluator(pts[:, None])) * (2 * R / n) / R)


def _householder_frame(direction: np.ndarray) -> np.ndarray:
    """Orthogonal matrix whose first column is the unit vector `direction`.

    It is the Householder reflection mapping e_1 to `direction`, so its other
    columns span the hyperplane orthogonal to it.
    """
    d = direction.shape[0]
    e1 = np.zeros(d)
    e1[0] = 1.0
    v = e1 - direction
    norm = np.linalg.norm(v)
    if norm < 1e-14:
        return np.eye(d)
    v = v / norm
    return np.eye(d) - 2.0 * np.outer(v, v)


def cylinder_average(W: Perturbation, xi, r: float, R: float, quad: QuadratureSpec) -> float:
    """(1/R) * integral of W over B_R intersected with the radius-r tube along xi.

    Product midpoint quadrature: transverse cells over the (d-1)-disc of
    radius r, longitudinal cells along the chord of B_R at each transverse
    offset. For W == c the d = 2 value is exact up to the O((r/R)^2) chord
    correction, approaching 2*c*omega_{d-1}*r^{d-1} as R grows.
    """
    if W.dimension < 2:
        raise InputError("cylinder_average requires dimension >= 2")
    if not (0 < r < R):
        raise InputError("need 0 < r < R")
    direction = np.asarray(xi, dtype=float)
    norm = np.linalg.norm(direction)
    if norm == 0:
        raise InputError("xi must be a nonzero direction")
    axis = direction / norm
    basis = _householder_frame(axis)[:, 1:]

    d = W.dimension
    n_axis = max(64, int(np.ceil(2 * R * quad.samples_per_interval)))
    n_cross = max(8, 4 * quad.samples_per_interval)

    offsets = mesh([midpoints(-r, r, n_cross)] * (d - 1))
    offsets = offsets[np.sum(offsets * offsets, axis=-1) < r * r]
    cell = (2 * r / n_cross) ** (d - 1)

    total = 0.0
    rel = midpoint_offsets(n_axis) * 2.0 - 1.0  # midpoints of [-1, 1]
    for z in offsets:
        half_chord = np.sqrt(max(R * R - float(z @ z), 0.0))
        if half_chord == 0.0:
            continue
        t = rel * half_chord
        pts = t[:, None] * axis[None, :] + (basis @ z)[None, :]
        vals = W.evaluator(pts)
        total += float(np.sum(vals)) * (2 * half_chord / n_axis) * cell
    return total / R


def lp_unif_estimate(W: Perturbation, p: float, centers, quad: QuadratureSpec) -> float:
    """max over the given centers y of integral of W^p over B_1(y).

    A bounded sample proxy for the uniform-L^p norm; the centers are the
    caller's scan. Supports d <= 3. A NaN integral raises SolverError.
    """
    if not p > 0:
        raise InputError("p must be positive")
    d = W.dimension
    pts_centers = as_points(np.asarray(centers, dtype=float), d)
    if pts_centers.ndim == 1:
        pts_centers = pts_centers[None, :]
    pts_centers = pts_centers.reshape(-1, d)

    spi = quad.samples_per_interval
    if d == 1:
        n = max(128, 64 * spi)
        rel = midpoints(-1.0, 1.0, n)

        def integral(y):
            vals = W.evaluator((y[0] + rel)[:, None])
            return float(np.sum(np.abs(vals) ** p) * (2.0 / n))

    elif d == 2:
        n_rho = max(64, 16 * spi)
        n_th = max(128, 32 * spi)
        rho = midpoints(0.0, 1.0, n_rho)
        th = midpoints(0.0, 2 * np.pi, n_th)
        ct, st = np.cos(th), np.sin(th)
        ring = np.stack([np.outer(rho, ct), np.outer(rho, st)], axis=-1)  # (n_rho, n_th, 2)
        weight = rho[:, None] * (1.0 / n_rho) * (2 * np.pi / n_th)

        def integral(y):
            vals = W.evaluator(ring + y[None, None, :])
            return float(np.sum(np.abs(vals) ** p * weight))

    elif d == 3:
        n_rho = max(48, 12 * spi)
        n_th = max(64, 16 * spi)
        n_ph = max(32, 8 * spi)
        rho = midpoints(0.0, 1.0, n_rho)
        th = midpoints(0.0, 2 * np.pi, n_th)
        ph = midpoints(0.0, np.pi, n_ph)
        P, T, F = np.meshgrid(rho, th, ph, indexing="ij")
        pts = np.stack(
            [P * np.sin(F) * np.cos(T), P * np.sin(F) * np.sin(T), P * np.cos(F)], axis=-1
        )
        weight = P * P * np.sin(F) * (1.0 / n_rho) * (2 * np.pi / n_th) * (np.pi / n_ph)

        def integral(y):
            vals = W.evaluator(pts + y[None, None, None, :])
            return float(np.sum(np.abs(vals) ** p * weight))

    else:
        raise InputError("lp_unif_estimate supports dimension <= 3")
    best = -np.inf
    for y in pts_centers:
        value = integral(y)
        if np.isnan(value):
            raise SolverError(f"lp_unif_estimate: the integral of |W|^{p} over B_1({y.tolist()}) is NaN")
        best = max(best, value)
    return best


# ---------------------------------------------------------------------------
# The radial-parabola perturbation: W = 0 on thin parabolic tongues around the
# dyadic directions, W = 1 elsewhere. Tube averages along dyadic directions
# decay, while along generic directions they stay bounded away from zero.
# ---------------------------------------------------------------------------


# Levels whose windows `_tongue_windows` lists (2^16 windows at most). Points
# at radius >= 2^17 are also tested at every higher level their radius reaches.
_TABLE_TOP = 16
# Padding of each listed window (rad): far above the rounding of its ends,
# far below the narrowest listed window, 4^-16.
_WINDOW_SLACK = 1e-12
# Points per block of `parabola_free_region`; bounds its temporaries.
_BLOCK = 4096
# Rows 2*pi/2^k, 2^k, 4^-k and c_k = 4^-k 2^(k/2) of the tongue test, for
# every level k a finite radius can reach.
_LEVEL_CONSTANTS = np.array(
    [[2 * np.pi / 2.0**k, 2.0**k, 4.0 ** (-k), 4.0 ** (-k) * 2.0 ** (k / 2.0)] for k in range(1024)]
).T


@lru_cache(maxsize=None)
def _tongue_windows(top: int):
    """(ends, cover): the angular windows of the tongue levels 2..top.

    The level-k windows are [2*pi*h/2^k -/+ (4^{-k} + slack)], h odd, moved
    into arctan2's range (-pi, pi]. `ends` holds all their ends in increasing
    order, and cover[i] is the bitmask (bit k for level k) of the windows that
    hold [ends[i-1], ends[i]). Windows of one level are disjoint, but those of
    different levels overlap. Both arrays are read-only.
    """
    ends, steps = [], []
    for k in range(2, top + 1):
        centers = (2 * np.pi / 2.0**k) * np.arange(1.0, 2.0**k, 2.0)
        centers[centers > np.pi] -= 2 * np.pi
        half = 4.0 ** (-k) + _WINDOW_SLACK
        ends += [centers - half, centers + half]
        steps += [np.full(centers.size, 1 << k), np.full(centers.size, -(1 << k))]
    ends, steps = np.concatenate(ends), np.concatenate(steps)
    order = np.argsort(ends, kind="stable")
    ends = ends[order]
    cover = np.concatenate([[0], np.cumsum(steps[order])]).astype(np.int32)
    ends.flags.writeable = cover.flags.writeable = False
    return ends, cover


def parabola_free_region(x: np.ndarray) -> np.ndarray:
    """Boolean mask of points inside some level-k tongue (where W vanishes).

    Level k >= 2 places tongues around the angles 2*pi*h/2^k (h odd). A point
    at radius rho belongs to the level-k tongue when rho >= 2^k and its
    angular offset is below min(4^{-k}, c_k/sqrt(rho - 2^k + 1)) with
    c_k = 4^{-k} 2^{k/2}, so each tongue stays inside its 4^{-k} angular
    window while widening like sqrt(rho) in transverse size.

    Each point is tested only at the levels whose angular window holds it.
    One cached sorted table lists the windows of every level with 2^k <=
    max|x_0| + max|x_1| (a bound on every radius), each padded by a slack far
    above the rounding of its ends, and one `searchsorted` per point reads
    off the levels that can hold it. Those (point, level) pairs then get the
    exact per-level test, op for op, so the mask is the one of testing every
    point at every level 2^k <= max rho: a point in a level-k tongue lies
    within 4^{-k} of its center, the 2*pi - offset branch never applies for
    k >= 2 (the offset to the nearest odd multiple is at most pi/2), and a
    level above every radius marks nothing. Non-finite points raise
    InputError.
    """
    pts = np.asarray(x, dtype=float)
    flat = pts.reshape(-1, pts.shape[-1])
    x0, x1 = flat[:, 0], flat[:, 1]
    free = np.zeros(x0.shape, dtype=bool)
    far = [float(np.max(np.abs(c))) if c.size else 0.0 for c in (x0, x1)]
    if not np.isfinite(far).all():
        bad = flat[np.argmin(np.isfinite(x0) & np.isfinite(x1))]
        raise InputError(f"parabola_free_region needs finite points; got {bad.tolist()}")
    reach = (far[0] + far[1]) * (1.0 + 2.0**-40)  # margin for the rounding of hypot
    top = 1
    while top < 1023 and 2.0 ** (top + 1) <= reach:
        top += 1
    if top >= 2:
        for lo in range(0, x0.size, _BLOCK):
            block = slice(lo, lo + _BLOCK)
            free[block] = _free_block(x0[block], x1[block], top)
    return free.reshape(pts.shape[:-1])


def _free_block(x0, x1, top: int) -> np.ndarray:
    """parabola_free_region for the points (x0, x1), all of radius < 2^(top+1)."""
    angle = np.arctan2(x1, x0)
    ends, cover = _tongue_windows(min(top, _TABLE_TOP))
    bits = cover.take(np.searchsorted(ends, angle, side="right"))
    hit = np.flatnonzero(bits)
    bits = bits.take(hit)
    points, levels = [], []
    while True:  # one pass per window holding a point, lowest level first
        low = bits & -bits
        points.append(hit)
        levels.append(np.frexp(low)[1] - 1)  # low == 2^level
        bits ^= low
        more = np.flatnonzero(bits)
        if not more.size:
            break
        hit, bits = hit.take(more), bits.take(more)
    pt = np.concatenate(points)
    free = np.zeros(x0.shape, dtype=bool)
    free[pt[_in_tongue(angle.take(pt), x0.take(pt), x1.take(pt), np.concatenate(levels))]] = True
    for k in range(_TABLE_TOP + 1, top + 1):  # too many windows to list
        free |= _in_tongue(angle, x0, x1, np.full(x0.size, k))
    return free


def _in_tongue(angle, x0, x1, level) -> np.ndarray:
    """The per-level test: is each point (x0, x1), of arctan2 angle `angle`,
    inside the tongue of its `level`?"""
    base, step, cap, c_k = _LEVEL_CONSTANTS.take(level, axis=1)
    theta = angle + np.where(angle < 0, 2 * np.pi, 0.0)  # np.mod(angle, 2*pi), bit for bit
    rho = np.hypot(x0, x1)
    h_near = 2.0 * np.round((theta / base - 1.0) / 2.0) + 1.0
    gap = np.abs(theta - base * h_near)
    gap = np.minimum(gap, 2 * np.pi - gap)
    inside_radius = rho >= step
    width = np.minimum(cap, c_k / np.sqrt(np.maximum(rho - step, 0.0) + 1.0))
    return inside_radius & (gap <= width)


def build_parabola_perturbation() -> Perturbation:
    """Indicator perturbation with dyadic parabolic tongues removed (d = 2)."""

    def evaluator(x):
        pts = np.asarray(x, dtype=float)
        return np.where(parabola_free_region(pts), 0.0, 1.0)

    return Perturbation(
        dimension=2,
        evaluator=evaluator,
        sign_class="nonnegative",
        sup_bound=1.0,
        integrability_exponent=2.0,
        support_radius=np.inf,
        name="parabola_example",
    )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


def _zero_hessian(x):
    return np.zeros(x.shape + (x.shape[-1],))


def _build_zero_potential(dimension: int) -> PeriodicPotential:
    return replace(_build_constant_potential(dimension, 0.0), name="zero")


def _build_constant_potential(dimension: int, value: float = 1.0) -> PeriodicPotential:
    value = float(value)
    return PeriodicPotential(
        dimension,
        lambda x, _v=value: np.full(x.shape[:-1], _v),
        v_min=value,
        v_max=value,
        continuity_modulus=lambda delta: 0.0,
        gradient=lambda x: np.zeros_like(x),
        name="constant",
        hessian=_zero_hessian,
    )


def _build_sin2_potential(dimension: int) -> PeriodicPotential:
    """V(x) = sum_i sin^2(pi x_i); minima on the integer lattice."""

    def evaluator(x):
        return np.sum(np.sin(np.pi * x) ** 2, axis=-1)

    def gradient(x):
        return np.pi * np.sin(2 * np.pi * x)

    def hessian(x):
        return (2 * np.pi**2 * np.cos(2 * np.pi * x))[..., None] * np.eye(dimension)

    lip = np.pi * np.sqrt(dimension)
    return PeriodicPotential(
        dimension,
        evaluator,
        v_min=0.0,
        v_max=float(dimension),
        continuity_modulus=lambda delta, _l=lip: _l * delta,
        gradient=gradient,
        name="sin2",
        hessian=hessian,
    )


def _build_cos_sum_potential(dimension: int) -> PeriodicPotential:
    """V(x) = 1/2 + (1/(2d)) * sum_i cos(2 pi x_i), normalized into [0, 1]."""

    d = dimension

    def evaluator(x):
        return 0.5 + np.sum(np.cos(2 * np.pi * x), axis=-1) / (2 * d)

    def gradient(x):
        return -np.pi / d * np.sin(2 * np.pi * x)

    def hessian(x):
        return (-2 * np.pi**2 / d * np.cos(2 * np.pi * x))[..., None] * np.eye(d)

    lip = np.pi / np.sqrt(d)
    return PeriodicPotential(
        dimension,
        evaluator,
        v_min=0.0,
        v_max=1.0,
        continuity_modulus=lambda delta, _l=lip: _l * delta,
        gradient=gradient,
        name="cos_sum",
        hessian=hessian,
    )


def _build_zero_perturbation(dimension: int) -> Perturbation:
    return Perturbation(
        dimension,
        lambda x: np.zeros(x.shape[:-1]),
        sign_class="nonnegative",
        sup_bound=0.0,
        integrability_exponent=2.0,
        support_radius=0.0,
        gradient=lambda x: np.zeros_like(x),
        name="zero",
        hessian=_zero_hessian,
    )


def _build_constant_perturbation(dimension: int, value: float = 0.5) -> Perturbation:
    value = float(value)
    sign = "nonnegative" if value >= 0 else "nonpositive"
    return Perturbation(
        dimension,
        lambda x, _v=value: np.full(x.shape[:-1], _v),
        sign_class=sign,
        sup_bound=abs(value),
        integrability_exponent=None,
        support_radius=np.inf,
        gradient=lambda x: np.zeros_like(x),
        name="constant",
        hessian=_zero_hessian,
    )


def _build_runge_perturbation(dimension: int, amplitude: float = 1.0) -> Perturbation:
    """W(y) = a/(1 + |y|^2): positive, smooth, with vanishing line average."""
    amplitude = float(amplitude)
    if amplitude <= 0:
        raise ConfigError("runge_decay amplitude must be positive")

    def evaluator(x):
        return amplitude / (1.0 + np.sum(x * x, axis=-1))

    def gradient(x):
        denom = (1.0 + np.sum(x * x, axis=-1)) ** 2
        return -2.0 * amplitude * x / denom[..., None]

    def hessian(x):
        base = 1.0 + np.sum(x * x, axis=-1)[..., None, None]
        outer = x[..., :, None] * x[..., None, :]
        return amplitude * (8.0 * outer / base**3 - 2.0 * np.eye(x.shape[-1]) / base**2)

    return Perturbation(
        dimension,
        evaluator,
        sign_class="nonnegative",
        sup_bound=amplitude,
        integrability_exponent=2.0,
        support_radius=np.inf,
        gradient=gradient,
        name="runge_decay",
        hessian=hessian,
    )


def _build_indicator_ball_perturbation(
    dimension: int, amplitude: float = 1.0, radius: float = 0.5, center=None
) -> Perturbation:
    amplitude = float(amplitude)
    radius = float(radius)
    if radius <= 0:
        raise ConfigError("indicator_ball radius must be positive")
    if center is None:
        center = np.zeros(dimension)
    center = np.asarray(center, dtype=float).reshape(dimension)

    def evaluator(x, _c=center, _r=radius, _a=amplitude):
        dist2 = np.sum((x - _c) ** 2, axis=-1)
        return np.where(dist2 <= _r * _r, _a, 0.0)

    sign = "nonnegative" if amplitude >= 0 else "nonpositive"
    return Perturbation(
        dimension,
        evaluator,
        sign_class=sign,
        sup_bound=abs(amplitude),
        integrability_exponent=2.0,
        support_radius=radius + float(np.linalg.norm(center)),
        name="indicator_ball",
    )


def _build_neg_spike_perturbation(
    dimension: int, depth: float = 1.0, width: float = 0.0
) -> Perturbation:
    """W = -depth * max(0, 1 - |y|/width); width = 0 collapses to an atom at 0."""
    depth = float(depth)
    width = float(width)
    if depth <= 0:
        raise ConfigError("neg_spike depth must be positive")
    if width < 0:
        raise ConfigError("neg_spike width must be >= 0")
    if width == 0.0:
        # The continuous part vanishes identically; the whole perturbation
        # lives in the atom, so sup_bound (a bound on the pointwise part)
        # is 0 and lower_bound() = zero_atom without double counting.
        return Perturbation(
            dimension,
            lambda x: np.zeros(x.shape[:-1]),
            sign_class="nonpositive",
            sup_bound=0.0,
            integrability_exponent=2.0,
            support_radius=0.0,
            zero_atom=-depth,
            name="neg_spike",
        )

    def evaluator(x, _w=width, _c=depth):
        dist = np.sqrt(np.sum(x * x, axis=-1))
        return -_c * np.maximum(0.0, 1.0 - dist / _w)

    return Perturbation(
        dimension,
        evaluator,
        sign_class="nonpositive",
        sup_bound=depth,
        integrability_exponent=2.0,
        support_radius=width,
        name="neg_spike",
    )


POTENTIAL_BUILDERS = {
    "zero": _build_zero_potential,
    "constant": _build_constant_potential,
    "sin2": _build_sin2_potential,
    "cos_sum": _build_cos_sum_potential,
}

PERTURBATION_BUILDERS = {
    "zero": _build_zero_perturbation,
    "constant": _build_constant_perturbation,
    "runge_decay": _build_runge_perturbation,
    "indicator_ball": _build_indicator_ball_perturbation,
    "neg_spike": _build_neg_spike_perturbation,
    "parabola_example": lambda dimension: _checked_parabola(dimension),
}


def _checked_parabola(dimension: int) -> Perturbation:
    if dimension != 2:
        raise ConfigError("parabola_example is defined in dimension 2")
    return build_parabola_perturbation()


def make_potential(name: str, dimension: int, **params) -> PeriodicPotential:
    """Build a registry potential; unknown names are configuration errors."""
    try:
        builder = POTENTIAL_BUILDERS[name]
    except KeyError:
        raise ConfigError(
            f"unknown potential {name!r}; known: {sorted(POTENTIAL_BUILDERS)}"
        ) from None
    try:
        potential = builder(dimension, **params)
    except TypeError as exc:
        raise ConfigError(f"bad parameters for potential {name!r}: {exc}") from None
    potential.check_periodicity()
    return potential


def make_perturbation(name: str, dimension: int, **params) -> Perturbation:
    """Build a registry perturbation; unknown names are configuration errors."""
    try:
        builder = PERTURBATION_BUILDERS[name]
    except KeyError:
        raise ConfigError(
            f"unknown perturbation {name!r}; known: {sorted(PERTURBATION_BUILDERS)}"
        ) from None
    try:
        return builder(dimension, **params)
    except TypeError as exc:
        raise ConfigError(f"bad parameters for perturbation {name!r}: {exc}") from None
