"""Conservation-law oracle for the one-dimensional cell problem.

On an optimal unit-period crossing of |w'|^2 + v(w) the energy w'^2 - v(w)
is a constant E. The period-time constraint  integral of dw / sqrt(E + v(w))
over [0, 1] = 1/|xi|  picks E, and the cell value follows by substituting
w' = sqrt(E + v(w)) into the action. The formula is independent of the
descent code it checks; registry potentials in d >= 2 are separable sums, so
their homogenized value is the sum of the per-axis values.

For the steady (discounted) Hamilton-Jacobi field there is no closed form;
`dp_discounted` is a backward dynamic program over a state lattice, written
here so that it shares no code with the library's solvers or DP oracles.
"""

import math

import numpy as np
from scipy.integrate import quad as sp_quad
from scipy.optimize import brentq


def _v_min(v_fn) -> float:
    return float(np.min(v_fn(np.linspace(0.0, 1.0, 4097))))


def conserved_energy_value(v_fn, xi: float) -> float:
    """Homogenized value f_1(xi) of the 1-periodic potential v_fn.

    v_fn maps an array of scalars to an array. At xi = 0 the value is
    min v: the optimal path parks at a minimum of the potential.
    """
    speed = abs(float(xi))
    v_min = _v_min(v_fn)
    if speed == 0.0:
        return v_min

    def period_time(E):
        val, _ = sp_quad(lambda w: 1.0 / np.sqrt(E + v_fn(w)), 0.0, 1.0, limit=200)
        return val - 1.0 / speed

    # E ranges over (-min v, inf); bracket the root from both ends.
    gap = 1e-12
    while period_time(-v_min + gap) < 0:
        gap /= 1e3
        if gap < 1e-30:
            raise ValueError(
                f"no periodic crossing at slope {xi}: the period integral "
                "converges at E = -min v (flat-bottom case)"
            )
    span = max(4.0 * speed * speed, 1.0)
    while period_time(-v_min + span) > 0:
        span *= 2.0
    hi = -v_min + span
    E = brentq(period_time, -v_min + gap, hi, xtol=1e-13)
    val, _ = sp_quad(
        lambda w: (E + 2.0 * v_fn(w)) / np.sqrt(E + v_fn(w)), 0.0, 1.0, limit=200
    )
    return speed * val


def separable_value(v_fn, xi) -> float:
    """f_hom(xi) = sum_k f_1(xi_k) for V(x) = sum_k v(x_k)."""
    return float(sum(conserved_energy_value(v_fn, float(x)) for x in np.atleast_1d(xi)))


def dp_discounted(cost, lam, horizon, states, n_t, max_slope):
    """Discounted lattice minimum of |u'|^2 + cost(u) from every state.

    Paths move between lattice states with slopes k*dx/h, |slope| <=
    max_slope; each step is charged its exact discount weight times the
    kinetic term plus the trapezoid average of the cost at both ends, and
    the path is extended past the horizon by a constant whose exact tail
    cost is included. Returns the value at every state.
    """
    states = np.asarray(states, dtype=float)
    n_x = states.size
    dx = states[1] - states[0]
    h = horizon / (n_t - 1)
    k_max = int(math.ceil(max_slope * h / dx))
    c = cost(states)
    anti = np.exp(-lam * np.linspace(0.0, horizon, n_t)) / lam
    weights = anti[:-1] - anti[1:]
    value = c * (np.exp(-lam * horizon) / lam)
    for w in weights[::-1]:
        best = np.full(n_x, np.inf)
        for k in range(-k_max, k_max + 1):
            slope = k * dx / h
            lo, hi = max(0, -k), n_x - max(0, k)
            cand = w * (slope * slope + 0.5 * (c[lo:hi] + c[lo + k : hi + k])) + value[lo + k : hi + k]
            np.minimum(best[lo:hi], cand, out=best[lo:hi])
        value = best
    return value


def sin2_1d(w):
    """The per-axis factor of the registry potential `sin2`."""
    return np.sin(np.pi * np.asarray(w, dtype=float)) ** 2


def self_test():
    """Check the oracle against closed forms; raises AssertionError on failure."""
    for xi in (0.25, 0.5, 1.0, 2.0):
        flat = conserved_energy_value(lambda w: np.zeros_like(np.asarray(w, dtype=float)), xi)
        if not math.isclose(flat, xi * xi, rel_tol=1e-9, abs_tol=1e-12):
            raise AssertionError(f"V == 0 at xi={xi}: {flat} != {xi * xi}")
        for c in (0.5, 2.0):
            const = conserved_energy_value(
                lambda w, _c=c: np.full_like(np.asarray(w, dtype=float), _c), xi
            )
            if not math.isclose(const, xi * xi + c, rel_tol=1e-9):
                raise AssertionError(f"V == {c} at xi={xi}: {const} != {xi * xi + c}")
    # The sandwich xi^2 + min v <= f_1(xi) <= xi^2 + max v, and evenness in xi.
    for xi in (0.5, 1.0, 2.0):
        val = conserved_energy_value(sin2_1d, xi)
        if not xi * xi < val < xi * xi + 1.0:
            raise AssertionError(f"sin2 at xi={xi}: {val} escapes its sandwich")
        if conserved_energy_value(sin2_1d, -xi) != val:
            raise AssertionError(f"sin2 oracle is not even at xi={xi}")
    if separable_value(sin2_1d, [1.0, 0.0]) != conserved_energy_value(sin2_1d, 1.0):
        raise AssertionError("separable sum with a zero slope must equal f_1")
    # A constant cost c is best met by standing still: lam * U == c exactly.
    states = np.linspace(-1.0, 1.0, 41)
    for c in (0.0, 0.75):
        value = dp_discounted(lambda x, _c=c: np.full_like(x, _c), 2.0, 3.0, states, 31, 2.0)
        if not np.allclose(2.0 * value, c, rtol=1e-12, atol=1e-15):
            raise AssertionError(f"discounted DP with constant cost {c} is not {c}/lam")


if __name__ == "__main__":
    self_test()
    print("oracle self-test passed")
