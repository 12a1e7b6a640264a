"""Every integration rule of the package: one midpoint rule, built once, and
the Gauss-Legendre rule of the parabola's exact tube average.

Everything sampled in this package uses the composite midpoint rule: it is
exact for piecewise-linear integrands, second order for smooth ones, and
never evaluates at interval endpoints (which keeps indicator-type
perturbations well behaved on cell boundaries). This module owns the sample
layout along a path, the exact discount weights of whole intervals and of
their sub-slices, and the sphere and ball rules of the uniform-L^p estimate
and the polar bound. The resolution is fixed: QuadratureSpec's default of 4
samples per interval is the one value in use. Only the action layer
(trajectory.action_F, action_G, discounted_action and the minimizers) still
takes a QuadratureSpec; every function above it evaluates at that default,
and fixed-size averaging grids spell out the counts it gives.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InputError, check_positive
from .grid import mesh


@dataclass(frozen=True)
class QuadratureSpec:
    samples_per_interval: int = 4

    def __post_init__(self):
        if self.samples_per_interval < 1:
            raise InputError("samples_per_interval must be >= 1")


def midpoint_offsets(m: int) -> np.ndarray:
    """Relative midpoint positions (s + 1/2)/m inside a unit interval."""
    return np.arange(0.5, m) / m


def midpoints(a: float, b: float, n: int) -> np.ndarray:
    """Midpoints of n equal cells of [a, b]."""
    return a + (b - a) * midpoint_offsets(n)


def interval_samples(nodes: np.ndarray, m: int) -> np.ndarray:
    """Midpoint sample points (..., n, m, d) of the piecewise-linear paths
    nodes (..., n + 1, d): (1 - l_s) x_i + l_s x_{i+1} with l_s the m offsets."""
    lam = midpoint_offsets(m)[:, None]
    return nodes[..., :-1, None, :] * (1 - lam) + nodes[..., 1:, None, :] * lam


def sub_interval_edges(times: np.ndarray, m: int) -> np.ndarray:
    """Edges (n, m + 1) of the m equal sub-slices of each interval of `times`."""
    fractions = np.concatenate(([0.0], np.arange(1, m) / m, [1.0]))
    return times[:-1, None] + np.diff(times)[:, None] * fractions[None, :]


def exp_interval_weights(edges: np.ndarray, lam: float) -> np.ndarray:
    """Exact integrals of exp(-lam*t) between consecutive edges along the last axis.

    Computed as differences of the antiderivative so that the weights plus the
    tail exp(-lam*T)/lam telescope exactly to 1/lam. Discounted actions built
    from these weights therefore satisfy the comparison bounds exactly for
    constant integrands. lam must be positive and finite.
    """
    check_positive("lam", lam)
    anti = np.exp(-lam * edges) / lam
    return anti[..., :-1] - anti[..., 1:]


def sphere_rule(d: int, n: int):
    """Midpoint nodes (N, d) and weights (N,) on the unit sphere S^{d-1}.

    d = 1: the two points -1 and 1, weight 1 each (n is unused); d = 2: n
    angles; d = 3: n polar angles times 2n azimuths, weighted by sin(polar).
    """
    if d == 1:
        return np.array([[-1.0], [1.0]]), np.ones(2)
    if d == 2:
        th = midpoints(0.0, 2 * np.pi, n)
        return np.stack([np.cos(th), np.sin(th)], axis=1), np.full(n, 2 * np.pi / n)
    if d == 3:
        ph = midpoints(0.0, np.pi, n)
        th = midpoints(0.0, 2 * np.pi, 2 * n)
        P, T = mesh([ph, th]).T.copy()  # contiguous, as meshgrid gave
        pts = np.stack([np.sin(P) * np.cos(T), np.sin(P) * np.sin(T), np.cos(P)], axis=-1)
        return pts, np.sin(P) * (np.pi / n) * (2 * np.pi / (2 * n))
    raise InputError("the sphere rule supports dimension 1, 2 or 3")


def ball_rule(d: int, n_rho: int, n: int):
    """Midpoint nodes (n_rho * N, d) and weights on the unit ball B^d: the
    radial midpoints rho_i of [0, 1] times the sphere_rule(d, n) nodes theta_j,
    radius-major, at rho_i * theta_j with weight (rho_i^{d-1} / n_rho) * w_j."""
    sphere_pts, sphere_wts = sphere_rule(d, n)
    rho = midpoints(0.0, 1.0, n_rho)
    pts = rho[:, None, None] * sphere_pts[None, :, :]
    wts = (rho ** (d - 1) * (1.0 / n_rho))[:, None] * sphere_wts[None, :]
    return pts.reshape(-1, d), wts.reshape(-1)


@lru_cache(maxsize=None)
def gauss_legendre(n: int):
    """Nodes and weights (both (n,), read-only) of the n-point Gauss-Legendre
    rule on [-1, 1], built on first use.

    Newton's method on P_n from the guesses cos(pi (i - 1/4) / (n + 1/2)),
    with P_n and P_(n-1) from the three-term recurrence; the weights are
    2 (1 - x^2) / (n (P_(n-1) - x P_n))^2, which has no cancellation at a
    root (within 2e-14 relative of a 40-digit reference up to n = 48).
    """

    def legendre(x):  # (P_n(x), P_(n-1)(x))
        p, q = x, np.ones_like(x)
        for k in range(2, n + 1):
            p, q = ((2 * k - 1) * x * p - (k - 1) * q) / k, p
        return p, q

    nodes = np.cos(np.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(10):  # Newton settles from these guesses in a few steps
        p, q = legendre(nodes)
        nodes = nodes - p * (nodes * nodes - 1.0) / (n * (nodes * p - q))
    p, q = legendre(nodes)
    weights = 2.0 * (1.0 - nodes) * (1.0 + nodes) / (n * (q - nodes * p)) ** 2
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights
