"""Hamilton-Jacobi value functions via variational (Lax-type) formulas.

Evolutionary problems: U(x, t) = min over y of [cost of the best path from y
at time 0 to x at time t] + initial_datum(y), with the path cost either the
homogenized t * f((x-y)/t) or the oscillatory boundary-value minimum.
Steady problems: discounted half-line minima, with the comparison bounds
inf(V+W) <= lam * U <= sup(V+W) asserted at every grid point.

All fields carry provenance (eps or "hom", discount rate, solver settings)
and serialize deterministically to CSV and JSON.
"""

import csv
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .cell import CorrectorProfile, HomogenizedLagrangian, scaled_corrector_start
from .errors import InputError, InvariantError, SolverError
from .minimize import OptimizerSpec, minimize_bvp, minimize_bvp_batch, minimize_halfline
from .potentials import PeriodicPotential, Perturbation
from .quadrature import QuadratureSpec

__all__ = [
    "ValueField",
    "solve_evolutionary_hom",
    "solve_evolutionary_eps",
    "s_eps",
    "solve_steady_eps",
    "solve_steady_hom",
    "field_distance",
]

_HJ_OPT = OptimizerSpec(max_iters=800, restarts=2)


@dataclass(frozen=True)
class ValueField:
    """Values of a HJ solution on a space grid (and time grid, if evolutionary).

    values has shape x_shape + (len(t_grid),) for evolutionary fields and
    x_shape for steady ones (t_grid None). All values must be finite.
    """

    x_axes: tuple
    t_grid: Optional[np.ndarray]
    values: np.ndarray
    provenance: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        axes = tuple(np.asarray(ax, dtype=float) for ax in self.x_axes)
        object.__setattr__(self, "x_axes", axes)
        if self.t_grid is not None:
            object.__setattr__(self, "t_grid", np.asarray(self.t_grid, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        expected = tuple(ax.size for ax in axes)
        if self.t_grid is not None:
            expected = expected + (self.t_grid.size,)
        if self.values.shape != expected:
            raise InputError(f"value shape {self.values.shape} != grid shape {expected}")
        if not np.all(np.isfinite(self.values)):
            raise InvariantError("value field contains non-finite entries")

    @property
    def dimension(self) -> int:
        return len(self.x_axes)

    def x_mesh(self) -> np.ndarray:
        return np.stack(np.meshgrid(*self.x_axes, indexing="ij"), axis=-1).reshape(
            -1, self.dimension
        )

    def to_csv(self, path):
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow([f"x_{i + 1}" for i in range(self.dimension)] + ["t", "value"])
            mesh = self.x_mesh()
            if self.t_grid is None:
                for point, val in zip(mesh, self.values.reshape(-1)):
                    writer.writerow([repr(float(c)) for c in point] + ["steady", repr(float(val))])
            else:
                flat = self.values.reshape(-1, self.t_grid.size)
                for point, row in zip(mesh, flat):
                    for t, val in zip(self.t_grid, row):
                        writer.writerow(
                            [repr(float(c)) for c in point]
                            + [repr(float(t)), repr(float(val))]
                        )

    def to_json(self) -> str:
        payload = {
            "x_axes": [[float(v) for v in ax] for ax in self.x_axes],
            "t_grid": None if self.t_grid is None else [float(t) for t in self.t_grid],
            "values": self.values.tolist(),
            "provenance": self.provenance,
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ValueField":
        payload = json.loads(text)
        t_grid = payload["t_grid"]
        return cls(
            tuple(np.asarray(ax) for ax in payload["x_axes"]),
            None if t_grid is None else np.asarray(t_grid),
            np.asarray(payload["values"]),
            payload.get("provenance", {}),
        )


def field_distance(a: ValueField, b: ValueField):
    """(sup, mean) absolute distance between two fields on identical grids."""
    if a.values.shape != b.values.shape:
        raise InputError("fields live on different grids")
    diff = np.abs(a.values - b.values)
    return float(np.max(diff)), float(np.mean(diff))


def _normalize_axes(grid, dimension: int, label: str):
    if isinstance(grid, (tuple, list)) and grid and np.ndim(grid[0]) == 1:
        axes = tuple(np.asarray(ax, dtype=float) for ax in grid)
    else:
        axes = (np.asarray(grid, dtype=float),)
    if len(axes) != dimension:
        raise InputError(f"{label} dimensionality mismatch")
    for ax in axes:
        if ax.ndim != 1 or ax.size < 1 or np.any(np.diff(ax) <= 0):
            raise InputError(f"{label} axes must be strictly increasing")
    return axes


def _mesh_of(axes) -> np.ndarray:
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


# ---------------------------------------------------------------------------
# Evolutionary problems
# ---------------------------------------------------------------------------


def solve_evolutionary_hom(
    f: HomogenizedLagrangian,
    Phi: Callable,
    x_grid,
    t_grid,
    y_grid,
) -> ValueField:
    """U(x, t) = min over y of t * f((x - y) / t) + Phi(y), exact discrete min.

    Candidate y whose slope (x - y)/t falls outside the tabulated hull are
    skipped; the skipped fraction is reported in provenance, and an empty
    admissible set at any (x, t) is an error naming the point.
    """
    x_axes = _normalize_axes(x_grid, f.dimension, "x_grid")
    y_axes = _normalize_axes(y_grid, f.dimension, "y_grid")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or np.any(t_grid <= 0) or np.any(np.diff(t_grid) <= 0):
        raise InputError("t_grid must be positive and increasing")
    x_mesh = _mesh_of(x_axes)
    y_mesh = _mesh_of(y_axes)
    phi_vals = np.asarray([float(Phi(y)) for y in y_mesh])
    hull = f.hull()
    lo = np.array([h[0] for h in hull])
    hi = np.array([h[1] for h in hull])

    values = np.empty((x_mesh.shape[0], t_grid.size))
    skipped_total = 0
    candidates_total = 0
    for j, t in enumerate(t_grid):
        for i, x in enumerate(x_mesh):
            slopes = (x[None, :] - y_mesh) / t
            ok = np.all((slopes >= lo[None, :]) & (slopes <= hi[None, :]), axis=1)
            candidates_total += slopes.shape[0]
            skipped_total += int(np.sum(~ok))
            if not np.any(ok):
                raise SolverError(
                    f"no admissible y for x={x.tolist()}, t={t}: "
                    "enlarge y_grid or the tabulated slope hull"
                )
            scores = t * f.value(slopes[ok]) + phi_vals[ok]
            values[i, j] = float(np.min(scores))

    shape = tuple(ax.size for ax in x_axes) + (t_grid.size,)
    return ValueField(
        x_axes,
        t_grid,
        values.reshape(shape),
        provenance={
            "kind": "evolutionary",
            "source": "hom",
            "y_count": int(y_mesh.shape[0]),
            "skipped_fraction": skipped_total / max(1, candidates_total),
            "f_envelope_applied": f.envelope_applied,
        },
    )


def _knot_path(times: np.ndarray, knot_t, knot_x) -> np.ndarray:
    """Piecewise-linear nodes through (knot_t, knot_x) sampled at times."""
    knot_t = np.asarray(knot_t, dtype=float)
    knot_x = np.asarray(knot_x, dtype=float)
    return np.stack(
        [np.interp(times, knot_t, knot_x[:, k]) for k in range(knot_x.shape[1])],
        axis=1,
    )


def _structured_starts(times, y, x, eps, m_bound):
    """Park-dash and dash-park competitors for the endpoint pair (y, x).

    The optimal oscillatory path often parks at a low-potential spot and
    crosses the expensive region in one short dash whose duration balances
    kinetic cost |x-y|^2/tau against the crossing cost M*tau.
    """
    from .trajectory import Trajectory

    t0, t1 = float(times[0]), float(times[-1])
    span = t1 - t0
    d = float(np.linalg.norm(x - y))
    tau = min(0.5 * span, max(d / math.sqrt(max(m_bound, 1.0)), 4.0 * eps, 0.05 * span))
    park_dash = _knot_path(times, [t0, t1 - tau, t1], np.stack([y, y, x]))
    dash_park = _knot_path(times, [t0, t0 + tau, t1], np.stack([y, x, x]))
    return (Trajectory(times, park_dash), Trajectory(times, dash_park))


def _admissible_y(x, y_mesh, t, m_bound, phi_range):
    """Candidate mask from the a priori bound |x-y|^2 <= t*range(Phi) + t^2*M.

    Any y beating the stay-at-x competitor must satisfy it because the kinetic
    term alone costs |x-y|^2/t; a 1.5 safety factor absorbs discretization.
    """
    radius = 1.5 * math.sqrt(max(t * phi_range + t * t * m_bound, 1e-12))
    dist = np.linalg.norm(y_mesh - x[None, :], axis=1)
    ok = dist <= radius
    if not np.any(ok):
        ok[int(np.argmin(dist))] = True
    return ok


def solve_evolutionary_eps(
    V: PeriodicPotential,
    W: Optional[Perturbation],
    eps: float,
    Phi: Callable,
    x_grid,
    t_grid,
    y_grid,
    opt: OptimizerSpec = _HJ_OPT,
    quad: QuadratureSpec = QuadratureSpec(),
    n_nodes: Optional[int] = None,
    corrector: Optional[CorrectorProfile] = None,
    prescreen_keep: int = 16,
) -> ValueField:
    """Oscillatory value function U_eps(x, t) = min over y of S_eps(y,x,t) + Phi(y).

    Candidate y obey the a priori bound of _admissible_y. Each candidate is
    scored by the action of its warm start (affine, plus the eps-scaled
    corrector decoration when a profile is supplied) plus Phi(y); only the
    prescreen_keep best scores go through full descent, in one vectorized
    batch per (x, t). A kept candidate's start is already an admissible
    competitor, so the prescreen never invalidates the certified upper bound;
    it only determines where descent effort is spent.
    """
    from .trajectory import Trajectory, action_G

    if prescreen_keep < 1:
        raise InputError("prescreen_keep must be >= 1")
    x_axes = _normalize_axes(x_grid, V.dimension, "x_grid")
    y_axes = _normalize_axes(y_grid, V.dimension, "y_grid")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or np.any(t_grid <= 0) or np.any(np.diff(t_grid) <= 0):
        raise InputError("t_grid must be positive and increasing")
    x_mesh = _mesh_of(x_axes)
    y_mesh = _mesh_of(y_axes)
    phi_vals = np.asarray([float(Phi(y)) for y in y_mesh])

    m_bound = V.v_max + (max(W.upper_bound(), 0.0) if W is not None else 0.0)
    phi_range = float(np.max(phi_vals) - np.min(phi_vals))

    values = np.empty((x_mesh.shape[0], t_grid.size))
    for j, t in enumerate(t_grid):
        nodes_count = n_nodes if n_nodes is not None else max(33, int(8 * t / eps) + 9)
        for i, x in enumerate(x_mesh):
            ok = _admissible_y(x, y_mesh, t, m_bound, phi_range)
            ys = y_mesh[ok]
            phis = phi_vals[ok]
            times = np.linspace(0.0, t, nodes_count)
            starts = []
            scores = np.empty(ys.shape[0])
            for k, y in enumerate(ys):
                cand = [Trajectory.affine(y, x, 0.0, t, nodes_count - 1)]
                cand.extend(_structured_starts(times, y, x, eps, m_bound))
                if corrector is not None:
                    cand.append(
                        scaled_corrector_start(corrector, eps, 0.0, t, y, x, nodes_count)
                    )
                starts.append(tuple(cand))
                scores[k] = (
                    min(action_G(u, V, W, eps, quad) for u in cand) + phis[k]
                )
            keep = np.argsort(scores, kind="stable")[: min(prescreen_keep, ys.shape[0])]
            warm = [starts[k] for k in keep]
            vals, _, _ = minimize_bvp_batch(
                V, W, eps, 0.0, t, ys[keep], x, nodes_count, opt, quad, warm
            )
            values[i, j] = float(np.min(vals + phis[keep]))

    shape = tuple(ax.size for ax in x_axes) + (t_grid.size,)
    return ValueField(
        x_axes,
        t_grid,
        values.reshape(shape),
        provenance={
            "kind": "evolutionary",
            "source": {"eps": eps},
            "n_nodes_rule": "8*t/eps+9" if n_nodes is None else n_nodes,
            "corrector_decorated": corrector is not None,
            "y_count": int(y_mesh.shape[0]),
            "prescreen_keep": prescreen_keep,
        },
    )


def s_eps(
    V: PeriodicPotential,
    W: Optional[Perturbation],
    eps: float,
    y,
    x,
    t: float,
    opt: OptimizerSpec = _HJ_OPT,
    quad: QuadratureSpec = QuadratureSpec(),
    n_nodes: Optional[int] = None,
    warm_starts=(),
) -> float:
    """Minimal action from y at time 0 to x at time t (certified upper bound)."""
    if not t > 0:
        raise InputError("t must be positive")
    nodes_count = n_nodes if n_nodes is not None else max(33, int(8 * t / eps) + 9)
    _, value = minimize_bvp(V, W, eps, 0.0, t, y, x, nodes_count, opt, quad, warm_starts)
    return value


# ---------------------------------------------------------------------------
# Steady problems
# ---------------------------------------------------------------------------


def solve_steady_eps(
    V: PeriodicPotential,
    W: Optional[Perturbation],
    eps: float,
    lam: float,
    x_grid,
    opt: OptimizerSpec = _HJ_OPT,
    quad: QuadratureSpec = QuadratureSpec(),
    T_max: Optional[float] = None,
    n_nodes: Optional[int] = None,
) -> ValueField:
    """Discounted value U_eps(x) per grid point, with comparison bounds asserted.

    The bounds inf(V+W) <= lam * U <= sup(V+W) are checked against the
    conservative enclosures v_min + inf W and v_max + sup W; a violation
    (which the exact discount weights make impossible for a correct solver
    beyond roundoff) is flagged as a solver failure.
    """
    if not lam > 0:
        raise InputError("lam must be positive")
    x_axes = _normalize_axes(x_grid, V.dimension, "x_grid")
    x_mesh = _mesh_of(x_axes)
    horizon = T_max if T_max is not None else 6.0 / lam
    nodes_count = n_nodes if n_nodes is not None else max(65, int(4 * horizon / eps) + 9)

    lower = V.v_min + (W.lower_bound() if W is not None else 0.0)
    upper = V.v_max + (W.upper_bound() if W is not None else 0.0)

    values = np.empty(x_mesh.shape[0])
    for i, x in enumerate(x_mesh):
        _, val = minimize_halfline(V, W, eps, lam, x, horizon, nodes_count, opt, quad)
        values[i] = val
        scale = max(1.0, abs(val) * lam)
        if lam * val < lower - 1e-9 * scale or lam * val > upper + 1e-9 * scale:
            raise SolverError(
                f"comparison bounds violated at x={x.tolist()}: "
                f"lam*U={lam * val} outside [{lower}, {upper}]"
            )

    return ValueField(
        x_axes,
        None,
        values.reshape(tuple(ax.size for ax in x_axes)),
        provenance={
            "kind": "steady",
            "source": {"eps": eps},
            "lambda": lam,
            "T_max": horizon,
            "n_nodes": nodes_count,
            "comparison_bounds": [lower, upper],
        },
    )


def solve_steady_hom(
    f: HomogenizedLagrangian,
    lam: float,
    x_grid,
    opt: OptimizerSpec = _HJ_OPT,
) -> ValueField:
    """Homogenized steady value: U == f(0)/lam, checked exactly on the table.

    A path's discounted homogenized action averages table values with weights
    exp(-lam*t), and the multilinear table never dips below its smallest node,
    so min(f.values) >= f0 makes the constant path optimal (else
    InvariantError). `opt` is accepted for call compatibility; no solver runs.
    """
    if not lam > 0:
        raise InputError("lam must be positive")
    x_axes = _normalize_axes(x_grid, f.dimension, "x_grid")
    closed_form = f.f0 / lam
    table_min = float(np.min(f.values))
    if not table_min >= f.f0:
        raise InvariantError(
            f"the table dips to {table_min} below f(0) = {f.f0}; "
            "it is not minimized at slope 0"
        )

    shape = tuple(ax.size for ax in x_axes)
    return ValueField(
        x_axes,
        None,
        np.full(shape, closed_form),
        provenance={
            "kind": "steady",
            "source": "hom",
            "lambda": lam,
            "closed_form": True,
            "table_min": table_min,
        },
    )
