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

from .cell import CorrectorProfile, HomogenizedLagrangian, scaled_oscillation
from .errors import InputError, InvariantError, SolverError
from .grid import axes_of, mesh
from .minimize import OptimizerSpec, _Action, minimize_bvp, minimize_bvp_batch, minimize_halfline
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
    x_shape for steady ones (t_grid None). The x axes and t_grid must be
    strictly increasing, and all values must be finite.
    """

    x_axes: tuple
    t_grid: Optional[np.ndarray]
    values: np.ndarray
    provenance: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        axes = axes_of(tuple(self.x_axes), len(self.x_axes), "x axes")
        object.__setattr__(self, "x_axes", axes)
        if self.t_grid is not None:
            object.__setattr__(self, "t_grid", axes_of(self.t_grid, 1, "t_grid")[0])
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
        return mesh(self.x_axes)

    def to_csv(self, path):
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow([f"x_{i + 1}" for i in range(self.dimension)] + ["t", "value"])
            points = self.x_mesh()
            if self.t_grid is None:
                for point, val in zip(points, self.values.reshape(-1)):
                    writer.writerow([repr(float(c)) for c in point] + ["steady", repr(float(val))])
            else:
                flat = self.values.reshape(-1, self.t_grid.size)
                for point, row in zip(points, flat):
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
    """(sup, mean) absolute distance between two fields on identical grids.

    Raises InputError unless both fields have equal x axes and equal time
    grids (both None for steady fields).
    """
    same_x = len(a.x_axes) == len(b.x_axes) and all(map(np.array_equal, a.x_axes, b.x_axes))
    same_t = (
        np.array_equal(a.t_grid, b.t_grid)
        if a.t_grid is not None and b.t_grid is not None
        else a.t_grid is b.t_grid
    )
    if not (same_x and same_t):
        raise InputError("fields live on different grids")
    diff = np.abs(a.values - b.values)
    return float(np.max(diff)), float(np.mean(diff))


# ---------------------------------------------------------------------------
# Evolutionary problems
# ---------------------------------------------------------------------------


def _evolutionary_grids(x_grid, t_grid, y_grid, Phi, source):
    """Checked (x axes, t grid, x mesh, y mesh, Phi on the y mesh) in source's dimension."""
    x_axes = axes_of(x_grid, source.dimension, "x_grid")
    y_mesh = mesh(axes_of(y_grid, source.dimension, "y_grid"))
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or np.any(t_grid <= 0) or np.any(np.diff(t_grid) <= 0):
        raise InputError("t_grid must be positive and increasing")
    return x_axes, t_grid, mesh(x_axes), y_mesh, np.asarray([float(Phi(y)) for y in y_mesh])


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
    x_axes, t_grid, x_mesh, y_mesh, phi_vals = _evolutionary_grids(x_grid, t_grid, y_grid, Phi, f)
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


def _dash_paths(times, ys, x, start, stop) -> np.ndarray:
    """Paths (K, n, d) resting at ys (K, d) until start, then moving uniformly to x
    by stop and resting there; each row is np.interp through its knots, rounding included."""
    t, y = times[None, :, None], ys[:, None, :]
    s, e = np.reshape(start, (-1, 1, 1)), np.reshape(stop, (-1, 1, 1))
    return np.where(t <= s, y, np.where(t >= e, x, (x - y) / (e - s) * (t - s) + y))


def _candidate_paths(times, ys, x, dist, eps, m_bound, oscillation):
    """Paths (K, n, d) from ys (K, d) to x: affine, park-dash, dash-park and, given
    the eps-scaled corrector oscillation (n, d), the decorated affine path.

    The optimal oscillatory path often parks at a low-potential spot and
    crosses the expensive region in one short dash whose duration balances
    kinetic cost |x-y|^2/tau against the crossing cost M*tau; dist holds |x-y|.
    """
    t0, t1 = float(times[0]), float(times[-1])
    span = t1 - t0
    dash = np.maximum(dist / math.sqrt(max(m_bound, 1.0)), 4.0 * eps)
    tau = np.minimum(0.5 * span, np.maximum(dash, 0.05 * span))
    lam = ((times - t0) / (t1 - t0))[None, :, None]
    affine = ys[:, None, :] * (1 - lam) + x * lam
    kinds = [affine, _dash_paths(times, ys, x, t1 - tau, t1), _dash_paths(times, ys, x, t0, t0 + tau)]
    if oscillation is not None:
        kinds.append(affine + oscillation)
        kinds[-1][:, 0], kinds[-1][:, -1] = ys, x
    return kinds


def _admissible_y(x, y_mesh, t, m_bound, phi_range):
    """Candidate mask from the a priori bound |x-y|^2 <= t*range(Phi) + t^2*M, and |x-y|.

    Any y beating the stay-at-x competitor must satisfy it because the kinetic
    term alone costs |x-y|^2/t; a 1.5 safety factor absorbs discretization.
    """
    radius = 1.5 * math.sqrt(max(t * phi_range + t * t * m_bound, 1e-12))
    dist = np.linalg.norm(y_mesh - x[None, :], axis=1)
    ok = dist <= radius
    if not np.any(ok):
        ok[int(np.argmin(dist))] = True
    return ok, dist


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

    Candidate y obey the a priori bound of _admissible_y. Each is scored by
    the lowest action of its _candidate_paths plus Phi(y); only the
    prescreen_keep best go through descent, whose starts include those paths.
    Each time slice is one stacked minimize_bvp_batch solve: grid point x is
    one problem, its kept y the candidate start points, Phi(y) their cost.
    The prescreen only decides where descent effort is spent: every kept
    start is an admissible competitor, so the certified upper bound stands.
    """
    if prescreen_keep < 1:
        raise InputError("prescreen_keep must be >= 1")
    x_axes, t_grid, x_mesh, y_mesh, phi_vals = _evolutionary_grids(x_grid, t_grid, y_grid, Phi, V)

    m_bound = V.v_max + (max(W.upper_bound(), 0.0) if W is not None else 0.0)
    phi_range = float(np.max(phi_vals) - np.min(phi_vals))

    values = np.empty((x_mesh.shape[0], t_grid.size))
    for j, t in enumerate(t_grid):
        nodes_count = n_nodes if n_nodes is not None else max(33, int(8 * t / eps) + 9)
        times = np.linspace(0.0, t, nodes_count)
        action = _Action.eps_action(V, W, eps, times, quad.samples_per_interval)
        osc = None if corrector is None else scaled_oscillation(corrector, eps, times)
        starts, costs, warm = [], [], []
        for x in x_mesh:
            ok, dist = _admissible_y(x, y_mesh, t, m_bound, phi_range)
            ys, phis = y_mesh[ok], phi_vals[ok]
            kinds = _candidate_paths(times, ys, x, dist[ok], eps, m_bound, osc)
            scores = np.min([action.value(u) for u in kinds], axis=0) + phis
            keep = np.argsort(scores, kind="stable")[:prescreen_keep]
            starts.append(ys[keep])
            costs.append(phis[keep])
            # The affine path is already the solver's first start.
            warm.append(np.stack([u[keep] for u in kinds[1:]], axis=1))
        # An x with fewer kept y repeats them: identical starts change no minimum.
        width = max(c.size for c in costs)
        a_batch, a_cost, warm = (
            np.stack([np.resize(u, (width,) + u.shape[1:]) for u in group])
            for group in (starts, costs, warm)
        )
        vals, nodes, _ = minimize_bvp_batch(
            V, W, eps, 0.0, t, a_batch, x_mesh, nodes_count, opt, quad, warm, a_cost
        )
        winner = np.argmax(np.all(a_batch == nodes[:, None, 0], axis=2), axis=1)
        values[:, j] = vals + a_cost[np.arange(x_mesh.shape[0]), winner]

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
    x_axes = axes_of(x_grid, V.dimension, "x_grid")
    x_mesh = mesh(x_axes)
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
    x_axes = axes_of(x_grid, f.dimension, "x_grid")
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
