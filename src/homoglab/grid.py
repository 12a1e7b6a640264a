"""Rectilinear grids: the axes check, the point mesh, and tables on the grid;
and the unit vector of a direction, with its refusal.

Slope tables, momentum tables and value fields all live on products of
strictly increasing 1-D axes. This module owns how such axes are read and
checked, how they are flattened into points (`ij` order: the last axis varies
fastest, as in itertools.product), and the multilinear table that the
homogenized Lagrangian and its Legendre conjugate share, which checks its hull
and then looks its points up in NumPy. It imports nothing from the package but
its errors, so every other module may use it.
"""

import itertools
import json
import math

import numpy as np

from .errors import ExtrapolationError, InputError

__all__ = [
    "as_points",
    "axes_of",
    "mesh",
    "unit_vector",
    "GridTable",
    "midpoint_convexity_report",
    "lower_convex_envelope",
]


def as_points(x, dimension: int) -> np.ndarray:
    """Normalize sample points to shape (..., dimension)."""
    arr = np.asarray(x, dtype=float)
    if dimension == 1 and (arr.ndim == 0 or arr.shape[-1] != 1):
        arr = arr[..., np.newaxis]
    if arr.ndim == 0 or arr.shape[-1] != dimension:
        raise InputError(f"expected points with last axis {dimension}, got shape {arr.shape}")
    return arr


def axes_of(grid, dimension: int, label: str = "grid", min_points: int = 1) -> tuple:
    """Checked float axes of a grid: a sequence of 1-D arrays, or one bare array (d = 1).

    Raises InputError unless there are `dimension` axes, each strictly
    increasing with at least `min_points` points.
    """
    if isinstance(grid, (tuple, list)) and grid and np.ndim(grid[0]) == 1:
        axes = tuple(np.asarray(ax, dtype=float) for ax in grid)
    else:
        axes = (np.asarray(grid, dtype=float),)
    if len(axes) != dimension:
        raise InputError(f"{label} has {len(axes)} axes, expected {dimension}")
    for ax in axes:
        if ax.ndim != 1 or ax.size < min_points or not np.all(np.diff(ax) > 0):
            raise InputError(
                f"each {label} axis must be strictly increasing with >= {min_points} points"
            )
    return axes


def mesh(axes) -> np.ndarray:
    """The grid's points, shape (n_1 * ... * n_d, d), in `ij` order; dtype kept."""
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


def unit_vector(vec, label: str):
    """(vec / |vec|, |vec|); InputError, naming label and vec, when the norm is 0
    (an underflowing one too) or not finite (an overflow leaks no warning)."""
    arr = np.asarray(vec, dtype=float)
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(arr))
    if not 0.0 < norm < math.inf:
        raise InputError(
            f"{label} must be a nonzero vector with a finite norm, got {label}={arr.tolist()}"
        )
    return arr / norm, norm


class GridTable:
    """Multilinear interpolation table on the product of strictly increasing axes.

    axes: one axis (>= 2 points) per dimension of values. Queries outside the
    grid hull (or NaN) raise ExtrapolationError rather than extrapolate.
    """

    def __init__(self, axes, values, meta=None):
        values = np.asarray(values, dtype=float)
        axes = axes_of(axes, values.ndim, "table", 2)
        if values.shape != tuple(ax.size for ax in axes):
            raise InputError("table shape does not match the axes")
        self.axes = axes
        self.values = values
        self.meta = dict(meta or {})

    @property
    def dimension(self) -> int:
        return len(self.axes)

    def hull(self):
        return [(float(ax[0]), float(ax[-1])) for ax in self.axes]

    def value(self, x):
        """Table at points (..., d), or bare (...) in d = 1; an array of shape (...).

        A single point, given as a scalar or a (d,) vector, gives a 0-d array.
        The first point outside the hull, or with a NaN, raises
        ExtrapolationError before any is evaluated. Axis k reads cell i, the
        count of inner knots ax[1:-1] at or below p_k (ax[-1] is in the last
        cell), at offset y_k = (p_k - ax[i]) / (ax[i+1] - ax[i]). The value
        adds, from 0 and last axis fastest, each corner's value times the
        product of its weights (1 - y_k at the left knot, y_k at the right):
        the generic rule of scipy's linear RegularGridInterpolator.
        """
        pts = as_points(x, self.dimension)
        flat = pts.reshape(-1, self.dimension)
        lo, hi = np.array(self.hull()).T
        outside = ~np.all((flat >= lo) & (flat <= hi), axis=1)
        if outside.any():
            raise ExtrapolationError(flat[outside][0].tolist(), self.hull())
        cells = []
        for ax, p in zip(self.axes, flat.T):
            i = np.searchsorted(ax[1:-1], p, side="right")
            y = (p - ax[i]) / np.diff(ax)[i]
            cells.append(((i, 1 - y), (i + 1, y)))
        out = 0.0
        for corner in itertools.product(*cells):
            index, weights = zip(*corner)
            out = out + self.values[index] * math.prod(weights)
        return out.reshape(pts.shape[:-1])

    def convexity_violations(self, tol: float = 1e-9):
        """(count, worst) of midpoint-convexity defects over grid triples."""
        return midpoint_convexity_report(self.axes, self.values, tol)

    def to_json(self, **extra) -> str:
        """Axes, values and meta, plus the subclass's `extra` keys, as sorted-key JSON."""
        payload = {
            "axes": [[float(v) for v in ax] for ax in self.axes],
            "values": self.values.tolist(),
            "meta": self.meta,
            **extra,
        }
        return json.dumps(payload, sort_keys=True)


def midpoint_convexity_report(axes, values, tol: float = 1e-9):
    """(count, worst) of midpoint-convexity defects over a gridded table.

    Checks f(mid) <= (f(a)+f(b))/2 + tol for all grid pairs whose index
    midpoint is again a grid point; exact for uniform axes.
    """
    values = np.asarray(values, dtype=float)
    nodes = mesh([np.arange(np.asarray(ax).size) for ax in axes])
    flat = values.reshape(-1)
    pair_sum = nodes[:, None, :] + nodes[None, :, :]
    even = np.all(pair_sum % 2 == 0, axis=-1)
    i_idx, j_idx = np.nonzero(even)
    keep = i_idx < j_idx
    i_idx, j_idx = i_idx[keep], j_idx[keep]
    mid_multi = (nodes[i_idx] + nodes[j_idx]) // 2
    mid_flat = np.ravel_multi_index(mid_multi.T, values.shape)
    defect = flat[mid_flat] - 0.5 * (flat[i_idx] + flat[j_idx])
    worst = float(np.max(defect)) if defect.size else 0.0
    count = int(np.sum(defect > tol))
    return count, worst


def lower_convex_envelope(axes, values) -> np.ndarray:
    """The lower convex envelope of a gridded table, at the grid nodes."""
    if len(axes) == 1:
        return _envelope_1d(axes[0], values)
    points = mesh(axes)
    flat = values.reshape(-1)
    lifted = np.column_stack([points, flat])
    from scipy.spatial import ConvexHull, QhullError

    try:
        hull = ConvexHull(lifted)
    except QhullError:
        return values.copy()
    eqs = hull.equations
    lower = eqs[eqs[:, -2] < -1e-10]
    if lower.shape[0] == 0:
        return values.copy()
    # facet plane: n . (xi, z) + b = 0  ->  z = -(b + n_xi . xi) / n_z
    planes = -(lower[:, -1][:, None] + lower[:, :-2] @ points.T) / lower[:, -2][:, None]
    env = np.max(planes, axis=0)
    return np.minimum(flat, env).reshape(values.shape)


def _envelope_1d(x, f) -> np.ndarray:
    hull_x, hull_f = [], []
    for xi, fi in zip(x, f):
        while len(hull_x) >= 2:
            cross = (hull_x[-1] - hull_x[-2]) * (fi - hull_f[-2]) - (
                hull_f[-1] - hull_f[-2]
            ) * (xi - hull_x[-2])
            if cross <= 0:
                hull_x.pop()
                hull_f.pop()
            else:
                break
        hull_x.append(float(xi))
        hull_f.append(float(fi))
    env = np.interp(x, hull_x, hull_f)
    return np.minimum(f, env)
