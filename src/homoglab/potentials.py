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
* lp_unif_estimate: sup over centers y of integral of |W|^p over B_1(y), with
  p = LP_EXPONENT and one ball rule from quadrature.py in every dimension.

Evaluators are vectorized over points: they take arrays of shape (..., d) and
return shape (...). For d = 1 a bare (...) array is also accepted.
"""

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, InputError, InvariantError, SolverError, check_positive
from .grid import as_points, mesh, unit_vector
from .quadrature import ball_rule, gauss_legendre, midpoints

REGISTRY_VERSION = "1"

SIGN_CLASSES = ("nonnegative", "nonpositive", "signed")

# The exponent p of the uniform-L^p estimate, and the (radial cells, sphere
# resolution) of its ball rule in each dimension.
LP_EXPONENT = 2.0
_LP_BALL = {1: (128, 1), 2: (64, 128), 3: (48, 32)}


@dataclass(frozen=True)
class PeriodicPotential:
    """Potential V with period 1 in every coordinate, v_min <= V <= v_max.

    `factor`, when set, is a vectorized 1-periodic function v of one variable
    with V(x) = sum_i v(x_i). Such a V is separable, so its homogenized value
    is the sum of exact one-dimensional cell values (`cell.cell_value_1d`),
    which `f_hom_asymptotic` returns; every registry V has one, and the f_hom
    paths refuse a d >= 2 V without one by name. `gradient` and `hessian` are the
    closed forms of V's derivatives, shape (..., d) and (..., d, d) at points
    (..., d); the Newton minimizers need both. `lipschitz` is a Lipschitz
    constant of V, which the almost-corrector construction needs.
    """

    dimension: int
    evaluator: Callable
    v_min: float
    v_max: float
    lipschitz: Optional[float] = None
    gradient: Optional[Callable] = None
    name: str = ""
    hessian: Optional[Callable] = None
    factor: Optional[Callable] = None

    def __post_init__(self):
        if self.dimension < 1:
            raise InputError("dimension must be >= 1")
        if not self.v_min <= self.v_max:
            raise InputError("need v_min <= v_max")

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
class Perturbation:
    """Perturbation W with a declared sign class and size metadata.

    sup_bound bounds |W|; support_radius is the radius of a ball around the
    origin containing the support (inf for global support);
    integrability_exponent is the p declared for uniform-L^p diagnostics and
    connector constructions. zero_atom adds an atom of that value on the set
    {x = 0}: pointwise samples never see it, so the path actions refuse it
    and only the lattice DP oracles charge it, on steps that stay at 0.
    `gradient` and `hessian` are closed forms as on PeriodicPotential; a W
    without them, or with an atom, is for the DP oracles only.
    `tube_average`, when set, is the closed form tube_average(xi, r, radii)
    of cylinder_average: xi a unit vector and radii a sequence of floats R
    with 0 < r < R, one float per R back in a list. cylinder_average returns
    it in place of its sampled rule; a W without it is sampled.
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
    tube_average: Optional[Callable] = None

    def __post_init__(self):
        if self.sign_class not in SIGN_CLASSES:
            raise InputError(f"sign_class must be one of {SIGN_CLASSES}")
        if self.sup_bound < 0:
            raise InputError("sup_bound bounds |W| and must be >= 0")

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
    """The Lagrangian L(x, xi) = |xi|^2 + V(x) + W(x) of a potential and an optional W.

    Its window cell values lie in the sandwich |xi|^2 + [inf, sup] of V + W
    (`potential_bounds`), which the cell solver re-checks on every value. A
    V + W that can be negative is rejected: those problems belong to the DP
    oracles.
    """

    V: PeriodicPotential
    W: Optional[Perturbation] = None

    def __post_init__(self):
        if self.W is not None and self.W.dimension != self.V.dimension:
            raise InputError("V and W dimensions disagree")
        if potential_bounds(self.V, self.W)[0] < 0:
            raise InputError(
                "signed potentials break the lower growth bound; "
                "use the DP oracles for those problems"
            )

    def evaluator(self, x, xi):
        """L(x, xi) = |xi|^2 + V(x) + W(x), broadcasting over both slots."""
        vel, pts = as_points(xi, self.V.dimension), as_points(x, self.V.dimension)
        return np.sum(vel * vel, axis=-1) + eval_potential(self.V, self.W, pts)


def check_no_atom(W: Optional[Perturbation]):
    """Raise InputError when W has a zero atom: pointwise samples never see it,
    so a path action cannot charge it and only the lattice DP oracles do."""
    if W is not None and W.zero_atom != 0.0:
        raise InputError("a path cannot charge a zero atom; use dp_oracle_1d, dp_oracle_halfline")


def potential_bounds(V: PeriodicPotential, W: Optional[Perturbation]) -> tuple:
    """(inf, sup) bounds of V + W, W's atom included; an absent W is zero."""
    if W is None:
        return V.v_min, V.v_max
    return V.v_min + W.lower_bound(), V.v_max + W.upper_bound()


def eval_potential(V: Optional[PeriodicPotential], W: Optional[Perturbation], y):
    """(V + W)(y) at points y of shape (..., d), by the raw evaluators; an absent term is zero."""
    if V is None or W is None:
        term = W if V is None else V
        return np.zeros(y.shape[:-1]) if term is None else term.evaluator(y)
    return V.evaluator(y) + W.evaluator(y)


def _chord_cells(R: float) -> int:
    """Midpoints on a chord of length 2R: 4 per unit length, at least 64, at
    most 2^24 (R <= 2^21; a chord's 1D array of positions then holds 128 MiB,
    and each of cylinder_average's (d, n) chord arrays 128*d MiB)."""
    n = max(64.0, np.ceil(8 * R))
    if not n <= 2**24:
        raise InputError(f"R = {R} needs {n:.0f} chord midpoints, over the limit 2^24 (R <= 2^21)")
    return int(n)


def line_average(W: Perturbation, R: float) -> float:
    """(1/R) * integral of W over [-R, R] for R positive and finite; the d = 1
    decay diagnostic, on _chord_cells(R) midpoints."""
    if W.dimension != 1:
        raise InputError("line_average requires a one-dimensional perturbation")
    check_positive("R", R)
    n = _chord_cells(R)
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


def cylinder_average(W: Perturbation, xi, r: float, R) -> float | list:
    """(1/R) * integral of W over B_R intersected with the radius-r tube along xi.

    A W with a closed form `tube_average` gets it, at the unit vector of xi;
    every other W is sampled. The sampled rule is a product midpoint
    quadrature: transverse cells over the (d-1)-disc of radius r (16 per
    axis), longitudinal cells along the chord of B_R at each transverse
    offset (_chord_cells(R) per chord). For W == c the d = 2 value is exact
    up to the O((r/R)^2) chord correction, approaching
    2*c*omega_{d-1}*r^{d-1} as R grows.

    W gets one chord per call: the transpose of a column-major (d, n) array
    of points t * axis_j + (basis @ z)_j, each coordinate one contiguous row.

    R may be a sequence of radii; then a list comes back, one float per
    radius in input order, each the float its own call gives. The closed
    form takes the whole ladder at once (see `_parabola_tube_average`); the
    sampled rule runs each radius in turn. Every radius is checked first, in
    input order, and the first R with not 0 < r < R raises InputError naming
    r and that R; so does an xi whose norm is 0 or not finite (`unit_vector`).
    """
    stacked = np.ndim(R) > 0
    radii = [float(radius) for radius in (R if stacked else [R])]
    if W.dimension < 2:
        raise InputError("cylinder_average requires dimension >= 2")
    for radius in radii:
        if not 0 < r < radius:
            raise InputError(f"cylinder_average needs 0 < r < R, got r = {r!r}, R = {radius!r}")
    axis, _ = unit_vector(xi, "xi")
    if W.tube_average is not None:
        values = W.tube_average(axis, r, radii)
    else:
        cells = [_chord_cells(radius) for radius in radii]
        values = [_sampled_tube_average(W, axis, r, radius, n) for radius, n in zip(radii, cells)]
    return values if stacked else values[0]


def _sampled_tube_average(W: Perturbation, axis, r: float, R: float, n_axis: int) -> float:
    """cylinder_average's sampled rule along the unit vector axis, with
    n_axis = _chord_cells(R) midpoints on each chord."""
    basis = _householder_frame(axis)[:, 1:]
    d = W.dimension
    n_cross = 16

    offsets = mesh([midpoints(-r, r, n_cross)] * (d - 1))
    offsets = offsets[np.sum(offsets * offsets, axis=-1) < r * r]
    cell = (2 * r / n_cross) ** (d - 1)

    total = 0.0
    rel = midpoints(-1.0, 1.0, n_axis)
    for z in offsets:
        half_chord = math.sqrt(max(R * R - float(z @ z), 0.0))
        chord = np.multiply.outer(axis, rel * half_chord) + (basis @ z)[:, None]
        total += float(W.evaluator(chord.T).sum()) * (2 * half_chord / n_axis) * cell
    return total / R


def lp_unif_estimate(W: Perturbation, centers) -> float:
    """max over the given centers y of integral of |W|^LP_EXPONENT over B_1(y).

    A bounded sample proxy for the uniform-L^p norm; the centers are the
    caller's scan. Each integral is quadrature.ball_rule(d, *_LP_BALL[d]), so
    d <= 3. A NaN integral raises SolverError.
    """
    d = W.dimension
    if d not in _LP_BALL:
        raise InputError("lp_unif_estimate supports dimension <= 3")
    pts_centers = as_points(np.asarray(centers, dtype=float), d).reshape(-1, d)
    pts, wts = ball_rule(d, *_LP_BALL[d])
    best = -np.inf
    for y in pts_centers:
        value = float(np.sum(np.abs(W.evaluator(pts + y)) ** LP_EXPONENT * wts))
        if np.isnan(value):
            raise SolverError(
                f"lp_unif_estimate: the integral of |W|^{LP_EXPONENT} over B_1({y.tolist()}) is NaN"
            )
        best = max(best, value)
    return best


# ---------------------------------------------------------------------------
# The radial-parabola perturbation: W = 0 on thin parabolic tongues around the
# dyadic directions, W = 1 elsewhere. Tube averages along dyadic directions
# decay, while along generic directions they stay bounded away from zero.
# ---------------------------------------------------------------------------


# The largest radius the float64 tongue test is trusted at. Past about 2^44
# the angle's ulp nears the level spacing 2*pi/2^k, and random directions start
# to read as inside a tongue (0.3% at 2^44, 14% at 2^50; none at 2^40).
_MAX_LEVEL = 40
_MAX_RADIUS = 2.0**_MAX_LEVEL
# Rows 2*pi/2^k, 2^k, 4^-k and c_k = 4^-k 2^(k/2) of the tongue test, for
# every level k a radius up to _MAX_RADIUS can reach.
_LEVEL_CONSTANTS = np.array(
    [
        [2 * np.pi / 2.0**k, 2.0**k, 4.0 ** (-k), 4.0 ** (-k) * 2.0 ** (k / 2.0)]
        for k in range(_MAX_LEVEL + 1)
    ]
).T


def parabola_free_region(x: np.ndarray) -> np.ndarray:
    """Boolean mask of points inside some level-k tongue (where W vanishes).

    Level k >= 2 places tongues around the angles 2*pi*h/2^k (h odd). A point
    at radius rho belongs to the level-k tongue when rho >= 2^k and its
    angular offset is below min(4^{-k}, c_k/sqrt(rho - 2^k + 1)) with
    c_k = 4^{-k} 2^{k/2}, so each tongue stays inside its 4^{-k} angular
    window while widening like sqrt(rho) in transverse size.

    Every point gets `_in_tongue` at every level k with 2^k <= max rho; the
    angle is computed only when max rho >= 4, as no level opens below it.
    Non-finite points, and points of radius above 2^40 (where the float64
    angle test stops being exact), raise InputError.
    """
    pts = np.asarray(x, dtype=float)
    flat = pts.reshape(-1, pts.shape[-1])
    x0, x1 = flat[:, 0], flat[:, 1]
    finite = np.isfinite(x0) & np.isfinite(x1)
    if not finite.all():
        bad = flat[np.argmin(finite)]
        raise InputError(f"parabola_free_region needs finite points; got {bad.tolist()}")
    rho = np.hypot(x0, x1)
    free = np.zeros(rho.shape, dtype=bool)
    rho_max = float(rho.max()) if rho.size else 0.0
    if rho_max > _MAX_RADIUS:
        bad = flat[np.argmax(rho)]
        raise InputError(
            f"parabola_free_region is exact only up to radius 2^40; got {bad.tolist()}"
        )
    if rho_max >= 4.0:
        angle = np.arctan2(x1, x0)
        theta = angle + np.where(angle < 0, 2 * np.pi, 0.0)  # np.mod(angle, 2*pi), bit for bit
        k = 2
        while 2.0**k <= rho_max:
            free |= _in_tongue(theta, rho, k)
            k += 1
    return free.reshape(pts.shape[:-1])


def _in_tongue(theta, rho, k: int) -> np.ndarray:
    """The level-k test: is each point, of radius rho and of angle theta (its
    arctan2 angle, plus 2*pi where negative), inside a level-k tongue?

    The gap to the nearest odd center is at most 2*pi/2^k <= pi/2 for k >= 2,
    so the way round through 2*pi is never shorter and is not taken."""
    base, step, cap, c_k = _LEVEL_CONSTANTS[:, k]
    gap = _nearest_center(theta, base)[1]
    return (rho >= step) & (gap <= _width(rho, step, cap, c_k))


def _nearest_center(theta, base):
    """(h, gap): the odd h whose center base * h is nearest the angle theta,
    and theta's distance |theta - base * h| to it."""
    h = 2.0 * np.round((theta / base - 1.0) / 2.0) + 1.0
    return h, np.abs(theta - base * h)


def _width(rho, step, cap, c_k):
    """The half-width min(4^-k, c_k / sqrt(rho - 2^k + 1)) of a level-k tongue
    at radius rho (its cap when rho < 2^k), from the level's constants."""
    return np.minimum(cap, c_k / np.sqrt(np.maximum(rho - step, 0.0) + 1.0))


# The largest R of `_parabola_tube_average`: the rule is checked against its
# doubled rule (1e-12 relative) up to here, and larger tubes are refused.
_TUBE_MAX_RADIUS = 2.0**24
# Gauss-Legendre nodes per radial panel.
_TUBE_NODES = 12
# A crossing of two edges is bracketed by a sign change on _CROSSING_GRID
# equal cells of its panel, then bisected into _CROSSING_GRID parts per round:
# _CROSSING_ROUNDS rounds in all place it within 32^-6 = 2^-30 of the panel.
_CROSSING_GRID = 32
_CROSSING_ROUNDS = 6


def _parabola_tube_average(xi, r: float, radii) -> list:
    """The exact cylinder_average of parabola_example along the unit vector
    xi, one float per radius R of the sequence radii, in input order.

    W is 1 off the tongues, and no tongue reaches below radius 4, so the part
    of the tube inside B_rho0, rho0 = min(4, R) > r, counts whole: its area
    is 2 (r sqrt(rho0^2 - r^2) + rho0^2 arcsin(r / rho0)). Past rho0 the tube
    meets the circle of radius rho in two arcs of half-width alpha =
    arcsin(r / rho) about the angles phi and phi + pi of xi. A turn by pi
    maps the tongue set onto itself (h + 2^(k-1) is odd with h), so both arcs
    leave the same measure 2 alpha - c(rho) uncovered, where c is the measure
    of the union of the active tongues inside the arc (`_covered`). The
    average is

        (area(B_rho0 ∩ tube) + 2 integral_rho0^R rho (2 alpha - c(rho)) drho) / R,

    by _TUBE_NODES-point Gauss-Legendre on each panel of `_tube_panels`, on
    which the integrand is smooth. Integrating the uncovered measure, not the
    tube's area less the covered part, keeps the digits of a decaying tube.
    xi and -xi span the same tube; phi is taken from the one with x >= 0, so
    both give the same float.

    The tongue rows and panels are built once, at the largest radius. A
    radius R reads the rows of its own levels, 2^k < R, which are
    `_arc_tongues(phi, r, R)`. A power of two R (or the largest radius) is
    an edge of those panels, and the ones up to it are its own; any other R
    builds its own panels. Each R then runs its own `_covered` and sum, so
    its value is the float of a call with R alone.

    r >= 4, where the tube's core would meet tongues, and any R above
    _TUBE_MAX_RADIUS raise InputError before any work.
    """
    if not r < 4.0:
        raise InputError(f"the parabola's exact tube average needs r < 4, got r = {r!r}")
    for R in radii:
        if not R <= _TUBE_MAX_RADIUS:
            raise InputError(
                f"the parabola's exact tube average is verified up to R = 2^24, got R = {R!r}"
            )
    top = max(radii, default=0.0)
    if top > 4.0:
        x, y = (-xi[0], -xi[1]) if xi[0] < 0 else (xi[0], xi[1])  # -xi is the same tube
        tongues = _arc_tongues(math.atan2(y, x), r, top)
        shared = _tube_panels(tongues, r, 4.0, top)
        nodes, weights = gauss_legendre(_TUBE_NODES)
    values = []
    for R in radii:
        rho0 = min(4.0, R)
        total = 2.0 * (r * math.sqrt(rho0 * rho0 - r * r) + rho0 * rho0 * math.asin(r / rho0))
        if R > rho0:
            own = tongues[:, tongues[1] < R]
            if R == top or math.frexp(R)[0] == 0.5:  # a power of two is an edge past 4
                edges = shared[shared <= R]
            else:
                edges = _tube_panels(own, r, rho0, R)
            half = 0.5 * np.diff(edges)[:, None]
            rho = (edges[:-1, None] + half * (1.0 + nodes)).ravel()
            alpha = np.arcsin(r / rho)
            uncovered = (2.0 * alpha - _covered(rho, alpha, own)) * rho
            total += 2.0 * float(np.sum(half * weights * uncovered.reshape(half.size, -1)))
        values.append(total / R)
    return values


def _arc_tongues(phi: float, r: float, R: float) -> np.ndarray:
    """Rows offset, 2^k, 4^-k, c_k of the tongues that can meet the tube's arc
    about the angle phi below radius R, each offset taken from phi.

    At each level k with 2^k < R they are the odd center nearest phi and its
    two neighbours, kept when their 4^-k window reaches the arc's widest
    half-width, arcsin(r / 2^k), the one at the level's first radius. Every
    other center lies 6 pi / 2^k or more from phi, beyond the arc for r < 4.
    """
    level = _LEVEL_CONSTANTS[:, 2:][:, _LEVEL_CONSTANTS[1, 2:] < R]
    h = _nearest_center(phi, level[0])[0] + np.array([[-2.0], [0.0], [2.0]])
    offset = level[0] * h - phi
    near = np.abs(offset) <= np.arcsin(r / level[1]) + level[2]
    return np.vstack([offset[near], np.broadcast_to(level[1:, None], (3,) + h.shape)[:, near]])


def _tube_panels(tongues, r: float, rho0: float, R: float) -> np.ndarray:
    """The edges rho0 < ... < R of the radial panels of `_parabola_tube_average`.

    They are every power of two, where a level's tongues start; 2^(k+1) - 1
    for each of the tongues' levels, where its width leaves its cap; radii
    that double their distance to r up to 2 rho0, toward the branch point of
    arcsin(r / rho) at r; and every radius where two edges cross inside the
    arc (`_crossings`): an arc end -/+ alpha against a tongue edge offset -/+
    width, or two tongue edges. Between them the order of every edge is
    fixed, so c(rho) is one sum of edges. Every edge is monotone in rho, so
    only pairs whose ranges on a panel meet each other and the arc, both
    active there, are searched.
    """
    graded = r + (rho0 - r) * 2.0 ** np.arange(1, 60)
    fixed = np.concatenate(
        [[rho0, R], _LEVEL_CONSTANTS[1], 2.0 * tongues[1] - 1.0, graded[graded < 2 * rho0]]
    )
    fixed = np.unique(fixed[(fixed >= rho0) & (fixed <= R)])
    # columns offset, sign, 2^k, 4^-k, c_k of each edge; 2^k = 0 marks the arc's ends
    ends = [[0.0, 0.0], [-1.0, 1.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
    sides = np.insert(np.repeat(tongues, 2, axis=1), 1, np.tile([-1.0, 1.0], tongues.shape[1]), 0)
    table = np.hstack([ends, sides])
    at = _edges_at(table[:, :, None], fixed, r)
    least, most = np.minimum(at[:, :-1], at[:, 1:]), np.maximum(at[:, :-1], at[:, 1:])
    i, j = np.triu_indices(table.shape[1], 1)
    lo, hi = fixed[:-1], fixed[1:]
    bottom, top = np.maximum(least[i], least[j]), np.minimum(most[i], most[j])
    meet = (bottom <= top) & (bottom <= at[1, :-1]) & (top >= at[0, :-1])
    pair, panel = np.nonzero(meet & (np.maximum(table[2, i], table[2, j])[:, None] <= lo))
    found = _crossings(table, i[pair], j[pair], lo[panel], hi[panel], r)
    return np.unique(np.concatenate([fixed, found]))


def _edges_at(columns, rho, r: float):
    """The angles offset + sign * half-width of edges, given by their table
    columns (offset, sign, 2^k, 4^-k, c_k), at the radii rho; an arc end's
    half-width is alpha = arcsin(r / rho), a tongue's `_width`."""
    offset, sign, step, cap, c_k = columns
    half = np.where(step > 0, _width(rho, step, cap, c_k), np.arcsin(r / rho))
    return offset + sign * half


def _crossings(table, i, j, lo, hi, r: float) -> np.ndarray:
    """The radii where edges i and j of `table` cross inside the brackets
    [lo, hi]: each sign change of their difference on a grid of
    _CROSSING_GRID cells of a bracket is a new bracket, _CROSSING_ROUNDS
    times, and the last brackets' midpoints are returned."""
    grid = np.linspace(0.0, 1.0, _CROSSING_GRID + 1)
    pair = np.stack([i, j])[:, :, None]
    for _ in range(_CROSSING_ROUNDS):
        rho = lo[:, None] + (hi - lo)[:, None] * grid
        first, second = _edges_at(table[:, pair], rho, r)
        below = first <= second
        b, g = np.nonzero(below[:, 1:] != below[:, :-1])
        pair, lo, hi = pair[:, b], rho[b, g], rho[b, g + 1]
    return 0.5 * (lo + hi)


def _covered(rho, alpha, tongues) -> np.ndarray:
    """c(rho): the measure of the union of the `tongues` (rows offset, 2^k,
    4^-k, c_k) active at each radius rho inside the arc [-alpha, alpha].

    Each tongue is clipped to the arc, an inactive one to nothing. Taken in
    the order of their lower ends, each adds what it reaches past the highest
    end before it (or -alpha): one sort and a running max.
    """
    offset, step, cap, c_k = tongues[:, :, None]
    width = _width(rho, step, cap, c_k)
    lo = np.maximum(offset - width, -alpha)
    hi = np.where(rho >= step, np.minimum(offset + width, alpha), -alpha)
    order = np.argsort(lo, axis=0)
    lo, hi = np.take_along_axis(lo, order, 0), np.take_along_axis(hi, order, 0)
    reached = np.maximum.accumulate(np.vstack([-alpha, hi]), axis=0)[:-1]
    return np.sum(np.maximum(hi - np.maximum(lo, reached), 0.0), axis=0)


def build_parabola_perturbation() -> Perturbation:
    """Indicator perturbation with dyadic parabolic tongues removed (d = 2),
    with its exact tube average (`_parabola_tube_average`)."""

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
        tube_average=_parabola_tube_average,
    )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


def _zero_hessian(x):
    return np.zeros(x.shape + (x.shape[-1],))


def _separable(dimension, name, v, dv, d2v, v_bounds, v_lip) -> PeriodicPotential:
    """V(x) = sum_i v(x_i), every part of it built from the 1-periodic factor v.

    dv and d2v are v's first and second derivatives, v_bounds = (min v, max v)
    and v_lip is v's Lipschitz constant. The gradient is dv on each axis, the
    Hessian diag(d2v) on an identity built once (at d = 1 d2v itself, as
    y * 1.0 is y), the bounds d * v_bounds and the Lipschitz constant
    v_lip * sqrt(d).
    """
    eye = np.eye(dimension)

    def hessian(x):
        h = d2v(x)[..., None]
        return h if dimension == 1 else h * eye

    return PeriodicPotential(
        dimension,
        lambda x: v(x).sum(axis=-1),
        v_min=dimension * v_bounds[0],
        v_max=dimension * v_bounds[1],
        lipschitz=v_lip * np.sqrt(dimension),
        gradient=dv,
        name=name,
        hessian=hessian,
        factor=v,
    )


def _build_zero_potential(dimension: int) -> PeriodicPotential:
    return replace(_build_constant_potential(dimension, 0.0), name="zero")


def _build_constant_potential(dimension: int, value: float = 1.0) -> PeriodicPotential:
    share = float(value) / dimension
    return _separable(
        dimension, "constant", lambda s: np.full(np.shape(s), share), np.zeros_like,
        np.zeros_like, (share, share), 0.0,
    )


def _sin2_factor(s):
    return np.sin(np.pi * s) ** 2


def _build_sin2_potential(dimension: int) -> PeriodicPotential:
    """V(x) = sum_i sin^2(pi x_i); minima on the integer lattice."""
    return _separable(
        dimension, "sin2", _sin2_factor, lambda s: np.pi * np.sin(2 * np.pi * s),
        lambda s: 2 * np.pi**2 * np.cos(2 * np.pi * s), (0.0, 1.0), np.pi,
    )


def _build_cos_sum_potential(d: int) -> PeriodicPotential:
    """V(x) = 1/2 + (1/(2d)) * sum_i cos(2 pi x_i) = sum_i cos^2(pi x_i) / d, in [0, 1]."""
    return _separable(
        d, "cos_sum", lambda s: np.cos(np.pi * s) ** 2 / d,
        lambda s: -np.pi / d * np.sin(2 * np.pi * s),
        lambda s: -2 * np.pi**2 / d * np.cos(2 * np.pi * s), (0.0, 1.0 / d), np.pi / d,
    )


def _build_zero_perturbation(dimension: int) -> Perturbation:
    return replace(
        _build_constant_perturbation(dimension, 0.0),
        name="zero", integrability_exponent=2.0, support_radius=0.0,
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

    eye = np.eye(dimension)

    def evaluator(x):
        return amplitude / (1.0 + np.sum(x * x, axis=-1))

    def gradient(x):
        denom = (1.0 + np.sum(x * x, axis=-1)) ** 2
        return -2.0 * amplitude * x / denom[..., None]

    def hessian(x):
        base = 1.0 + np.sum(x * x, axis=-1)[..., None, None]
        outer = x[..., :, None] * x[..., None, :]
        return amplitude * (8.0 * outer / base**3 - 2.0 * eye / base**2)

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


def build_from_registry(kind: str, builders: dict, name: str, dimension: int, /, **params):
    """builders[name](dimension, **params); an unknown name or a TypeError of
    the builder is a ConfigError that names the kind of object and the name."""
    try:
        builder = builders[name]
    except KeyError:
        raise ConfigError(f"unknown {kind} {name!r}; known: {sorted(builders)}") from None
    try:
        return builder(dimension, **params)
    except TypeError as exc:
        raise ConfigError(f"bad parameters for {kind} {name!r}: {exc}") from None


def make_potential(name: str, dimension: int, **params) -> PeriodicPotential:
    """Build a registry potential; unknown names are configuration errors."""
    potential = build_from_registry("potential", POTENTIAL_BUILDERS, name, dimension, **params)
    potential.check_periodicity()
    return potential


def make_perturbation(name: str, dimension: int, **params) -> Perturbation:
    """Build a registry perturbation; unknown names are configuration errors."""
    return build_from_registry("perturbation", PERTURBATION_BUILDERS, name, dimension, **params)
