"""Composite midpoint quadrature shared by action functionals and averages.

Everything integrable in this package is sampled with the composite midpoint
rule: it is exact for piecewise-linear integrands, second order for smooth
ones, and never evaluates at interval endpoints (which keeps indicator-type
perturbations well behaved on cell boundaries). The resolution is fixed:
QuadratureSpec's default of 4 samples per interval is the one value in use.
Only the action layer (trajectory.action_F, action_G, discounted_action and
the minimizers) still takes a QuadratureSpec; every function above it
evaluates at that default, and fixed-size averaging grids spell out the
counts it gives.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InputError


@dataclass(frozen=True)
class QuadratureSpec:
    samples_per_interval: int = 4

    def __post_init__(self):
        if self.samples_per_interval < 1:
            raise InputError("samples_per_interval must be >= 1")


def midpoint_offsets(m: int) -> np.ndarray:
    """Relative midpoint positions (s + 1/2)/m inside a unit interval."""
    return (np.arange(m) + 0.5) / m


def midpoints(a: float, b: float, n: int) -> np.ndarray:
    """Midpoints of n equal cells of [a, b]."""
    return a + (b - a) * midpoint_offsets(n)


def exp_interval_weights(times: np.ndarray, lam: float) -> np.ndarray:
    """Exact integrals of exp(-lam*t) over consecutive intervals of `times`.

    Computed as differences of the antiderivative so that the weights plus the
    tail exp(-lam*T)/lam telescope exactly to 1/lam. Discounted actions built
    from these weights therefore satisfy the comparison bounds exactly for
    constant integrands.
    """
    if lam <= 0:
        raise InputError("discount rate must be positive")
    anti = np.exp(-lam * times) / lam
    return anti[:-1] - anti[1:]
