"""Hamilton-Jacobi value functions via variational (Lax-type) formulas.

Evolutionary problems: U(x, t) = min over y of [cost of the best path from y
at time 0 to x at time t] + initial_datum(y), with the path cost either the
homogenized t * f((x-y)/t) or the oscillatory boundary-value minimum.
Steady problems: discounted half-line minima, with the comparison bounds
inf(V+W) <= lam * U <= sup(V+W) asserted at every grid point.

The oscillatory (eps) fields are one-dimensional. Each runs one backward
lattice DP sweep per eps (the discrete Lax-Oleinik formula; Falcone and
Ferretti, Semi-Lagrangian Approximation Schemes for Linear and
Hamilton-Jacobi Equations, SIAM 2013), backtracks one argmin path per grid
point from the values the sweep kept and polishes it, next to the nearby
competitors the lattice cannot rank, with the damped-Newton minimizer.

All fields carry provenance (eps or "hom", discount rate, solver settings)
and serialize deterministically to CSV.
"""

import csv
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .cell import HomogenizedLagrangian
from .errors import InputError, InvariantError, SolverError, check_positive
from .grid import axes_of, mesh
from .minimize import (
    OptimizerSpec,
    _lattice_seeds,
    _seed_nodes,
    check_newton_terms,
    eps_node_count,
    minimize_bvp,
    minimize_bvp_batch,
    minimize_halfline,
)
from .potentials import PeriodicPotential, Perturbation, potential_bounds

__all__ = [
    "ValueField",
    "solve_evolutionary_hom",
    "solve_evolutionary_eps",
    "s_eps",
    "solve_steady_eps",
    "solve_steady_hom",
    "field_distance",
]

_HJ_OPT = OptimizerSpec(max_iters=800)
# The evolutionary polish tries the lattice's argmin y and its y_grid
# neighbours: the lattice's quantized kinetic cost can rank adjacent y wrongly.
_Y_NEIGHBOURS = np.array([0, -1, 1])
# x grid points per block of a homogenized time slice: its (x, y) slope
# temporaries hold _X_BLOCK * len(y_grid) * d floats, whatever the x grid.
_X_BLOCK = 64


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
    for t in t_grid.reshape(-1):
        check_positive("t", t)
    if t_grid.ndim != 1 or np.any(np.diff(t_grid) <= 0):
        raise InputError("t_grid must be strictly increasing")
    return x_axes, t_grid, mesh(x_axes), y_mesh, np.asarray([float(Phi(y)) for y in y_mesh])


def solve_evolutionary_hom(
    f: HomogenizedLagrangian,
    Phi: Callable,
    x_grid,
    t_grid,
    y_grid,
) -> ValueField:
    """U(x, t) = min over y of t * f((x - y) / t) + Phi(y), exact discrete min.

    Each time slice is taken in blocks of _X_BLOCK grid points x. A block
    forms its slopes (x - y)/t at once and reads the admissible ones, inside
    the tabulated hull, in one table query, so memory grows with the y grid
    but not with the x grid or the times. The others are skipped; the skipped
    fraction is reported in provenance, and an empty admissible set is an
    InputError naming the first such (x, t), times before grid points.
    """
    x_axes, t_grid, x_mesh, y_mesh, phi_vals = _evolutionary_grids(x_grid, t_grid, y_grid, Phi, f)
    lo, hi = np.array(f.hull()).T
    values = np.empty((x_mesh.shape[0], t_grid.size))
    skipped = 0
    for j, t in enumerate(t_grid):
        for start in range(0, x_mesh.shape[0], _X_BLOCK):
            block = slice(start, start + _X_BLOCK)
            with np.errstate(over="ignore"):  # a huge y gives an inf slope, outside every hull
                slopes = (x_mesh[block, None] - y_mesh[None]) / t
            ok = np.all((slopes >= lo) & (slopes <= hi), axis=-1)  # (x, y)
            empty = np.flatnonzero(~ok.any(axis=1))
            if empty.size:  # the grids, t and the hull decide it; no solver runs
                raise InputError(
                    f"no admissible y for x={x_mesh[start + empty[0]].tolist()}, t={t}: "
                    "enlarge y_grid or the tabulated slope hull"
                )
            scores = np.full(ok.shape, np.inf)
            scores[ok] = t * f.value(slopes[ok]) + phi_vals[np.nonzero(ok)[1]]
            values[block, j] = scores.min(axis=1)
            skipped += int(np.sum(~ok))

    shape = tuple(ax.size for ax in x_axes) + (t_grid.size,)
    return ValueField(
        x_axes,
        t_grid,
        values.reshape(shape),
        provenance={
            "kind": "evolutionary",
            "source": "hom",
            "y_count": int(y_mesh.shape[0]),
            "skipped_fraction": skipped / max(1, values.size * y_mesh.shape[0]),
            "f_envelope_applied": f.envelope_applied,
        },
    )


def solve_evolutionary_eps(
    V: PeriodicPotential,
    W: Optional[Perturbation],
    eps: float,
    Phi: Callable,
    x_grid,
    t_grid,
    y_grid,
    opt: OptimizerSpec = _HJ_OPT,
) -> ValueField:
    """Oscillatory value function U_eps(x, t) = min over y of y_grid of S_eps(y,x,t) + Phi(y).

    One backward lattice sweep from Phi, finite only at the y of y_grid
    (minimize._lattice_seeds), gives the lattice field at every time of
    t_grid, each on a lattice step, and an argmin y and path for every x,
    backtracked from the values the sweep kept after each step. Each time
    slice is then one stacked minimize_bvp_batch polish: grid point x is
    three problems, pinned
    to its lattice argmin y and to that y's neighbours in y_grid, each with
    the lattice path tilted onto its y as the warm start next to the affine
    one, and takes the least; a polish at time t has 8*t/eps + 9 nodes (at
    least 33), each window and count checked (eps_node_count) before the
    lattice is built. Every value is the action of a concrete path from a y plus
    Phi(y), so the certified upper bound stands. The provenance records the
    lattice, its sup distance to the polished field (dp_sup_distance) and
    whether every polish converged (all_converged).
    Needs d = 1; check_newton_terms(V, W) runs first.
    """
    check_newton_terms(V, W)
    x_axes, t_grid, x_mesh, y_mesh, phi_vals = _evolutionary_grids(x_grid, t_grid, y_grid, Phi, V)
    y = y_mesh[:, 0]
    counts = [eps_node_count(8, eps, 33, t) for t in t_grid]
    lattice, states, seeds = _lattice_seeds(
        V, W, eps, x_mesh[:, 0], t_grid[-1], t_grid, y, phi_vals
    )
    values = np.empty((x_mesh.shape[0], t_grid.size))
    dp_distance, records = 0.0, []
    for j, (t, nodes_count, (dp_values, path)) in enumerate(zip(t_grid, counts, seeds)):
        ys = np.argmin(np.abs(y[None, :] - states[path[-1], None]), axis=1)
        ys = np.clip(ys + _Y_NEIGHBOURS[:, None], 0, y.size - 1)
        # The lattice path, tilted linearly onto each neighbour y.
        tilt = (y[ys] - y[ys[0]])[:, :, None] * np.linspace(1.0, 0.0, nodes_count)
        warm = _seed_nodes(states, path[::-1], np.linspace(0.0, t, nodes_count))
        warm = (warm[None, :, :, 0] + tilt).reshape(-1, 1, nodes_count, 1)
        vals, _, _ = minimize_bvp_batch(
            V, W, eps, t, y_mesh[ys.reshape(-1)], np.tile(x_mesh, (ys.shape[0], 1)),
            nodes_count, opt, warm_starts_per_problem=warm, records=records,
        )
        values[:, j] = np.min(vals.reshape(ys.shape) + phi_vals[ys], axis=0)
        dp_distance = max(dp_distance, float(np.max(np.abs(values[:, j] - dp_values))))

    shape = tuple(ax.size for ax in x_axes) + (t_grid.size,)
    return ValueField(
        x_axes,
        t_grid,
        values.reshape(shape),
        provenance={
            "kind": "evolutionary",
            "source": {"eps": eps},
            "n_nodes_rule": "8*t/eps+9",
            "y_count": int(y_mesh.shape[0]),
            "dp_lattice": lattice,
            "dp_sup_distance": dp_distance,
            "all_converged": all(r["converged"] for r in records),
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
) -> float:
    """Minimal action from y at time 0 to x at time t (certified upper bound),
    on 8*t/eps + 9 nodes (at least 33); t and eps must be positive and finite."""
    _, value = minimize_bvp(V, W, eps, t, y, x, eps_node_count(8, eps, 33, t), opt)
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
) -> ValueField:
    """Discounted value U_eps(x) per grid point, with comparison bounds asserted.

    One backward discounted lattice sweep gives the lattice value at every
    grid point x and at x -/+ eps, one period of V(x / eps) away, and an
    argmin path from each, backtracked from the values the sweep kept after
    each step (minimize._lattice_seeds). minimize_halfline polishes x's
    path, the other two re-pinned to x (they park in the neighbouring wells,
    which the lattice cannot rank against x's when they lie closer than its
    error) and the constant path. The provenance records the lattice, its sup distance to
    the polished field (dp_sup_distance) and whether every polish converged
    (all_converged), the horizon T_max = 6 / lam and the path's n_nodes =
    max(65, 4 T_max / eps + 9), lam, eps and count checked before the lattice.
    Needs d = 1; check_newton_terms(V, W) runs first.

    The bounds inf(V+W) <= lam * U <= sup(V+W) are checked against the
    conservative enclosures v_min + inf W and v_max + sup W; a violation
    (which the exact discount weights make impossible for a correct solver
    beyond roundoff) is flagged as a solver failure.
    """
    check_newton_terms(V, W)
    check_positive("lam", lam)
    x_axes = axes_of(x_grid, V.dimension, "x_grid")
    x_mesh = mesh(x_axes)
    horizon = 6.0 / lam
    nodes_count = eps_node_count(4, eps, 65, horizon)

    lower, upper = potential_bounds(V, W)

    starts = x_mesh[:, 0] + eps * np.array([0.0, -1.0, 1.0])[:, None]
    lattice, states, [(dp_values, paths)] = _lattice_seeds(
        V, W, eps, starts.reshape(-1), horizon, [horizon], lam=lam
    )
    seeds = _seed_nodes(states, paths, np.linspace(0.0, horizon, nodes_count))
    seeds = seeds.reshape(starts.shape + (nodes_count, 1))
    values = np.empty(x_mesh.shape[0])
    converged = []
    for i, x in enumerate(x_mesh):
        traj, val = minimize_halfline(
            V, W, eps, lam, x, horizon, nodes_count, opt, warm_starts=list(seeds[:, i])
        )
        values[i] = val
        converged.append(traj.meta["converged"])
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
            "dp_lattice": lattice,
            "dp_sup_distance": float(np.max(np.abs(values - dp_values[: values.size]))),
            "all_converged": all(converged),
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
    InvariantError). lam must be positive and finite. `opt` is accepted for
    call compatibility; no solver runs.
    """
    check_positive("lam", lam)
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
