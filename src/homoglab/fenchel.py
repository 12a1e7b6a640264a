"""Discrete Legendre-Fenchel transforms of tabulated Lagrangians.

The conjugate is the exact discrete supremum over the source grid: no
interpolation enters the sup, so order reversal and the constant-shift rule
hold exactly, and the double transform returns the lower convex envelope of
the table up to grid resolution. The price is the hull rule: for |p| beyond
twice the largest tabulated slope the discrete sup saturates at the grid
boundary and silently underestimates, so such queries are a hard error.
"""

import json

import numpy as np

from .cell import HomogenizedLagrangian
from .errors import InputError, InvariantError
from .grid import GridTable, axes_of, mesh

__all__ = ["ConjugateTable", "legendre_transform", "biconjugate_check"]


class ConjugateTable(GridTable):
    """Tabulated convex conjugate f*(p) = max over grid of <p, xi> - f(xi)."""

    def __init__(self, axes, values, source: HomogenizedLagrangian, meta=None):
        super().__init__(axes, values, meta)
        self.source = source

    def fenchel_young_defect(self) -> float:
        """max over grid pairs of <p, xi> - f(xi) - f*(p); <= 0 certifies the inequality."""
        inner = mesh(self.axes) @ mesh(self.source.axes).T
        defect = inner - self.source.values.reshape(-1)[None, :] - self.values.reshape(-1)[:, None]
        return float(np.max(defect))

    def to_json(self) -> str:
        return super().to_json(source=json.loads(self.source.to_json()))


def legendre_transform(f: HomogenizedLagrangian, p_grid) -> ConjugateTable:
    """Exact discrete conjugate of a tabulated Lagrangian on a momentum grid.

    Enforces the hull rule |p_k| <= 2 * max |xi_k| per axis: beyond it the
    discrete sup is attained at the slope-grid boundary and underestimates
    the true conjugate, so the offending p is rejected outright.
    """
    axes = axes_of(p_grid, f.dimension, "p_grid", 2)
    for k, (p_ax, xi_ax) in enumerate(zip(axes, f.axes)):
        limit = 2.0 * float(np.max(np.abs(xi_ax)))
        worst = float(np.max(np.abs(p_ax)))
        if worst > limit + 1e-12:
            raise InputError(
                f"momentum axis {k} reaches |p| = {worst}, beyond the reliable "
                f"hull 2 * max|xi| = {limit}"
            )
    scores = mesh(axes) @ mesh(f.axes).T - f.values.reshape(-1)[None, :]
    values = np.max(scores, axis=1).reshape(tuple(ax.size for ax in axes))
    return ConjugateTable(axes, values, f, {"kind": "legendre_transform"})


def biconjugate_check(conj: ConjugateTable) -> float:
    """max over the slope grid of |f - f**| for f = conj.source; small gaps
    certify convexity.

    Transforming conj back onto f's grid returns the lower convex envelope of
    the table up to grid resolution, so the gap measures how far the table is
    from its own convexification. The biconjugate never exceeds the table
    (beyond roundoff); that one-sidedness is asserted here.
    """
    f = conj.source
    scores = mesh(f.axes) @ mesh(conj.axes).T - conj.values.reshape(-1)[None, :]
    second = np.max(scores, axis=1)
    flat = f.values.reshape(-1)
    overshoot = float(np.max(second - flat))
    if overshoot > 1e-10 * max(1.0, float(np.max(np.abs(flat)))):
        raise InvariantError(
            f"discrete biconjugate exceeded the table by {overshoot}"
        )
    return float(np.max(np.abs(second - flat)))
