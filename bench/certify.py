"""Post-run optimality check of the minimizers the descent solvers returned.

For each kept solve the discrete action is rebuilt here, interval by
interval, and must reproduce the value the solver certified. Its gradient
over the free nodes is then taken by central differences: moving node j by
+-h changes only the two intervals that share it, so each component costs
four interval evaluations instead of two whole actions.
"""

import numpy as np

FD_STEP = 1e-6
CONVERGED_TOL = 1e-6
VALUE_REL_TOL = 1e-10


def _offsets(m):
    return (np.arange(m) + 0.5) / m


def _potential(V, W):
    if W is None:
        return V.evaluator
    return lambda y: V.evaluator(y) + W.evaluator(y)


def _eps_terms(args, times):
    V, W, eps, m = args["V"], args["W"], args["eps"], args["quad"].samples_per_interval
    lam = _offsets(m)
    widths = np.diff(times)
    fn = _potential(V, W)

    def terms(left, right):
        diff = right - left
        pts = left[:, None, :] * (1 - lam)[None, :, None] + right[:, None, :] * lam[None, :, None]
        return np.sum(diff * diff, axis=1) / widths + np.sum(fn(pts / eps), axis=1) * widths / m

    return terms, None


def _lagrangian_terms(args, times):
    L, m = args["L"], args["quad"].samples_per_interval
    lam = _offsets(m)
    widths = np.diff(times)

    def terms(left, right):
        pts = left[:, None, :] * (1 - lam)[None, :, None] + right[:, None, :] * lam[None, :, None]
        vel = np.broadcast_to(((right - left) / widths[:, None])[:, None, :], pts.shape)
        return np.sum(L.evaluator(pts, vel), axis=1) * widths / m

    return terms, None


def _discounted_terms(args, times):
    V, W, eps, rate = args["V"], args["W"], args["eps"], args["lam"]
    m = args["quad"].samples_per_interval
    lam = _offsets(m)
    widths = np.diff(times)
    edges = times[:-1, None] + widths[:, None] * np.concatenate(([0.0], np.arange(1, m) / m, [1.0]))
    anti = np.exp(-rate * edges) / rate
    sub_w = anti[:, :-1] - anti[:, 1:]
    kin = np.exp(-rate * times) / rate
    kin_w = kin[:-1] - kin[1:]
    tail_w = float(np.exp(-rate * times[-1]) / rate)
    fn = _potential(V, W)

    def terms(left, right):
        diff = (right - left) / widths[:, None]
        pts = left[:, None, :] * (1 - lam)[None, :, None] + right[:, None, :] * lam[None, :, None]
        return np.sum(diff * diff, axis=1) * kin_w + np.sum(fn(pts / eps) * sub_w, axis=1)

    def tail(last):
        return float(fn(last[None, :] / eps)[0]) * tail_w

    return terms, tail


_TERMS = {"eps": _eps_terms, "lagrangian": _lagrangian_terms, "discounted": _discounted_terms}


def check_solve(kind, args, times, nodes, value):
    """(gradient norm over free nodes, value mismatch or None) for one minimizer."""
    times = np.asarray(times, dtype=float)
    nodes = np.asarray(nodes, dtype=float)
    terms, tail = _TERMS[kind](args, times)
    left, right = nodes[:-1], nodes[1:]
    rebuilt = float(np.sum(terms(left, right))) + (tail(nodes[-1]) if tail else 0.0)
    mismatch = None
    if abs(rebuilt - value) > VALUE_REL_TOL * max(1.0, abs(value)):
        mismatch = f"{kind} action rebuilt as {rebuilt!r}, solver certified {value!r}"

    n, d = nodes.shape
    grad = np.zeros((n, d))
    for k in range(d):
        step = np.zeros(d)
        step[k] = FD_STEP
        # Interval i joins nodes i and i+1: moving its right end moves node
        # i+1, moving its left end moves node i.
        right_moves = terms(left, right + step) - terms(left, right - step)
        left_moves = terms(left + step, right) - terms(left - step, right)
        grad[1:, k] += right_moves
        grad[:-1, k] += left_moves
        if tail is not None:
            grad[-1, k] += tail(nodes[-1] + step) - tail(nodes[-1] - step)
    grad /= 2 * FD_STEP
    # The first node is pinned for every solver; the last one is free only
    # on the half-line, where the path continues as a constant.
    free = grad[1:] if tail is not None else grad[1:-1]
    return float(np.linalg.norm(free)), mismatch
