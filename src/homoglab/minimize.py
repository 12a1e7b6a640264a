"""Direct minimization of discrete actions, plus dynamic-programming oracles.

Two independent routes to the same minima live here, on purpose:

* damped Newton over trajectory nodes (multi-start, deterministic seeding,
  boundary nodes pinned exactly). Every discrete action here -- the
  eps-action, the general-Lagrangian window action and the discounted
  half-line action -- is one kernel with per-sample weights, whose Hessian
  is block tridiagonal. All starts of all problems of a call are stacked into
  one banded system, factored by a banded Cholesky per iteration, with a
  diagonal shift where a Hessian is indefinite and Armijo backtracking from
  the full step (Nocedal & Wright, Numerical Optimization, 2nd ed., 3.4, 6);
* backward dynamic programming over a state-time lattice, an anytime upper
  bound for d = 1 that never sees the optimizer's code paths. The same
  sweep, recording each state's argmin move, also seeds the Newton polish
  of the one-dimensional HJ fields with backtracked lattice paths.

Optimizer results carry certified-upper-bound semantics: every reported value
is the action of a concrete trajectory, re-evaluated through the trajectory
module and required to agree with the optimizer's internal objective to 1e-10.
"""

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import InputError, InvariantError, SolverError
from .potentials import GeneralLagrangian, PeriodicPotential, Perturbation, eval_potential
from .quadrature import (
    QuadratureSpec,
    exp_interval_weights,
    interval_samples,
    midpoint_offsets,
    sub_interval_edges,
)
from .trajectory import Trajectory, action_G, discounted_action

__all__ = [
    "OptimizerSpec",
    "DPGrid",
    "minimize_bvp",
    "minimize_bvp_batch",
    "minimize_lagrangian_bvp",
    "minimize_halfline",
    "dp_oracle_1d",
    "dp_oracle_halfline",
]


@dataclass(frozen=True)
class OptimizerSpec:
    """Settings of the damped-Newton minimizer.

    Each start takes at most max_iters Newton steps. It stops early, converged,
    once its gradient norm is at most 1e-8 or its Newton decrement has
    reached roundoff. It also stops, unconverged, when no step along the
    Newton direction decreases the action, or when a converged start of its
    problem is lower by more than ten times its Newton decrement. The
    backtracking line search always tries the full step first. The pinned
    solvers add `restarts` seeded random starts to the affine and warm ones;
    minimize_halfline adds none.
    """

    max_iters: int = 400
    restarts: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.max_iters < 1:
            raise InputError("max_iters must be >= 1")
        if self.restarts < 0:
            raise InputError("restarts must be >= 0")


@dataclass(frozen=True)
class DPGrid:
    x_lo: float
    x_hi: float
    n_x: int = 401
    n_t: int = 51

    def __post_init__(self):
        if not self.x_lo < self.x_hi:
            raise InputError("need x_lo < x_hi")
        if self.n_x < 2 or self.n_t < 2:
            raise InputError("need n_x >= 2 and n_t >= 2")

    def states(self) -> np.ndarray:
        return np.linspace(self.x_lo, self.x_hi, self.n_x)


# ---------------------------------------------------------------------------
# The discrete action and its damped-Newton minimizer
# ---------------------------------------------------------------------------

# A start whose gradient norm is at or below this has converged.
_GRAD_TOL = 1e-8
# A Newton decrement g.H^-1.g at or below this multiple of max(1, |value|)
# predicts a decrease the action's roundoff cannot resolve.
_ROUNDOFF_DECREMENT = 1e-14
# Backtracking halves the step at most this many times before giving up.
_MAX_HALVINGS = 40
# The sufficient-decrease constant of the Armijo line search.
_ARMIJO_C = 1e-4


class _Action:
    """sum_i k_i |x_{i+1} - x_i|^2 + sum_{i,s} w_is f(p_is / eps) + tail * f(x_last / eps).

    f = V + W; p_is = (1 - l_s) x_i + l_s x_{i+1} are the m midpoint samples of
    interval i. The first node is pinned; the last one is pinned too unless
    `last_free`, as on the half-line, where the path continues as a constant.
    """

    def __init__(self, V, W, eps, kinetic, weights, tail=0.0, last_free=False):
        self.V, self.W = V, W
        self.terms = [obj for obj in (V, W) if obj is not None]
        self.eps = eps
        self.kinetic = kinetic
        self.weights = weights
        self.tail = tail
        self.last_free = last_free
        # The constants of the derivatives: the sample weights split between an
        # interval's left and right node for the gradient, and their products
        # for the Hessian's (left, left), (right, right) and (left, right) blocks.
        lam = midpoint_offsets(weights.shape[1])
        left, right = weights * (1 - lam), weights * lam
        self.grad_weights = left, right
        self.hess_weights = left * (1 - lam), right * lam, left * lam
        self.kinetic2 = 2 * kinetic
        self.kin_block = self.kinetic2[:, None, None] * np.eye(self.terms[0].dimension)

    @classmethod
    def eps_action(cls, V, W, eps, times, m):
        widths = np.diff(times)
        return cls(V, W, eps, 1.0 / widths, np.repeat(widths[:, None] / m, m, axis=1))

    def _f(self, y):
        return eval_potential(self.V, self.W, y)

    def _terms(self, derivative, y):
        """V.derivative(y) + W.derivative(y), the W term only when W is given."""
        out = getattr(self.terms[0], derivative)(y)
        for obj in self.terms[1:]:
            out = out + getattr(obj, derivative)(y)
        return out

    def _samples(self, x):
        return interval_samples(x, self.weights.shape[1]) / self.eps

    def value(self, x):
        """Action of each path of the batch x (B, N, d).

        Each path's value depends on its own row alone, bit for bit, whatever
        else is in the batch."""
        y = self._samples(x)
        diffs = x[:, 1:] - x[:, :-1]
        out = ((diffs * diffs).sum(axis=2) * self.kinetic).sum(axis=1)
        out += (self._f(y) * self.weights).sum(axis=(1, 2))
        if self.tail:
            out += self.tail * self._f(x[:, -1] / self.eps)
        return out

    def derivatives(self, x):
        """(gradient (B, N, d), diagonal blocks (B, N, d, d), and the blocks
        coupling node i to node i + 1 (B, N - 1, d, d)) of the batch x. Like
        value, each path's rows depend on its own row alone."""
        eps = self.eps
        y = self._samples(x)
        g = self._terms("grad", y) / eps
        h = self._terms("hess", y) / eps**2
        left, right = self.grad_weights
        left_left, right_right, left_right = self.hess_weights
        kin = self.kinetic2[:, None] * (x[:, 1:] - x[:, :-1])
        grad = np.zeros_like(x)
        grad[:, :-1] = np.einsum("bnsk,ns->bnk", g, left) - kin
        grad[:, 1:] += np.einsum("bnsk,ns->bnk", g, right) + kin
        diag = np.zeros(x.shape + (x.shape[2],))
        diag[:, :-1] = np.einsum("bnskl,ns->bnkl", h, left_left) + self.kin_block
        diag[:, 1:] += np.einsum("bnskl,ns->bnkl", h, right_right) + self.kin_block
        off = np.einsum("bnskl,ns->bnkl", h, left_right) - self.kin_block
        if self.tail:
            end = x[:, -1] / eps
            grad[:, -1] += self.tail / eps * self._terms("grad", end)
            diag[:, -1] += self.tail / eps**2 * self._terms("hess", end)
        return grad, diag, off


def _newton_steps(diag, off, grad):
    """Solve (H_b + tau_b I) p_b = -g_b for every start b; return (p (B, n, d), -g.p (B,)).

    H_b is block tridiagonal over the free nodes: diag (B, n, d, d), off
    (B, n - 1, d, d). The B uncoupled systems form one banded matrix for one
    banded Cholesky (LAPACK dpbtrf, as in scipy.linalg.cholesky_banded).
    tau_b is 0 for a positive definite H_b, else raised as in Nocedal & Wright's
    Algorithm 3.3, the factorization resuming at start b (its predecessors
    are already factored, in place).
    """
    from scipy.linalg import lapack

    B, n, d = grad.shape
    size = n * d
    u = 2 * d - 1
    # LAPACK's upper band storage, Fortran-ordered: row u - (i - j) of column j
    # holds H[i, j]. Column j = (b, node, col) is store[b, node, col].
    store = np.zeros((B, n, d, u + 1))
    for k in range(d):
        for col in range(d):
            if col >= k:
                store[:, :, col, u - (col - k)] = diag[:, :, k, col]
            store[:, 1:, col, u - (d + col - k)] = off[:, :, k, col]
    bands = store.reshape(B * size, u + 1).T
    main = store[..., u].reshape(B, size)
    floor = 1e-3 * np.abs(main).max(axis=1) + np.finfo(float).tiny
    low = main.min(axis=1)
    tau = np.where(low > 0, 0.0, floor - low)
    store[..., u] += tau[:, None, None]

    # Factored in place; a failed start's (uncoupled) columns come back from bands.
    factor = bands.copy(order="F")
    start = 0
    while True:
        _, info = lapack.dpbtrf(factor[:, start:], overwrite_ab=1)
        if info == 0:
            break
        if info < 0:
            raise SolverError(f"banded Cholesky rejected argument {-info}")
        b = (start + info - 1) // size
        head = b * size
        bump = max(2 * tau[b], floor[b]) - tau[b]
        tau[b] += bump
        bands[u, head : head + size] += bump
        factor[:, head : head + size] = bands[:, head : head + size]
        start = head
    steps, info = lapack.dpbtrs(factor, -grad.reshape(-1))
    if info != 0:
        raise SolverError(f"banded Cholesky solve failed (info {info})")
    steps = steps.reshape(B, n, d)
    return steps, -(steps * grad).sum(axis=(1, 2))


def _solve(action: _Action, starts, opt: OptimizerSpec):
    """Damped Newton from starts (P problems, S starts, N, d); pinned nodes never move.

    Returns, per problem, the value, nodes and solver record {iterations,
    grad_norm (free nodes, final point), converged} of its lowest start.

    Each sweep evaluates the derivatives of the starts whose last step was
    accepted; their values are the ones the line search accepted, not
    evaluated again. A start that stops without moving (no decrease found, or
    beaten) keeps the value and gradient norm of its last evaluation, which
    is its current point.
    """
    P, S, N, _ = starts.shape
    x = starts.reshape((P * S,) + starts.shape[2:]).astype(float)
    free = slice(1, N if action.last_free else N - 1)
    values = action.value(x)
    if not np.all(np.isfinite(values)):
        raise SolverError("objective not finite at a start trajectory")
    gnorm = np.empty(P * S)
    iters = np.zeros(P * S, dtype=int)
    converged = np.zeros(P * S, dtype=bool)
    idx = np.arange(P * S)  # the starts to evaluate: those whose last step was accepted
    for sweep in range(opt.max_iters + 1):
        f = values[idx]
        grad, diag, off = action.derivatives(x[idx])
        grad = grad[:, free]
        gnorm[idx] = norms = np.sqrt((grad * grad).sum(axis=(1, 2)))
        keep = ~(converged[idx] | (norms <= _GRAD_TOL))
        converged[idx] = ~keep
        if sweep == opt.max_iters or not keep.any():
            break
        steps, dec = _newton_steps(diag[keep, free], off[keep, free.start : free.stop - 1], grad[keep])
        idx, f = idx[keep], f[keep]
        # A start that a converged start of its problem beats by more than ten
        # of its Newton decrements is near a worse stationary point: stop it.
        lowest = np.where(converged, values, np.inf).reshape(P, S).min(axis=1)
        go = f <= lowest[idx // S] + 10 * dec
        idx, f, steps, dec = idx[go], f[go], steps[go], dec[go]
        iters[idx] += 1
        at_roundoff = dec <= _ROUNDOFF_DECREMENT * np.maximum(1.0, np.abs(f))
        converged[idx] |= at_roundoff
        # Backtracking from the full step; a roundoff-level step is tried once,
        # needing no decrease. An accepted start moves, with the value found
        # here, and is evaluated in the next sweep (a roundoff-level one only
        # for its gradient norm).
        accepted = []
        t = 1.0
        for _ in range(_MAX_HALVINGS):
            cand = x[idx]
            cand[:, free] += t * steps
            fc = action.value(cand)
            ok = np.isfinite(fc) & (fc <= f - np.where(at_roundoff, 0.0, _ARMIJO_C * t * dec))
            won = idx[ok]
            x[won], values[won] = cand[ok], fc[ok]
            accepted.append(won)
            rest = ~(ok | at_roundoff)
            if not rest.any():
                break
            idx, f, steps, dec, at_roundoff = idx[rest], f[rest], steps[rest], dec[rest], at_roundoff[rest]
            t *= 0.5
        idx = np.sort(np.concatenate(accepted))
        if not idx.size:
            break
    best = np.argmin(values.reshape(P, S), axis=1) + S * np.arange(P)
    stats = [
        {"iterations": int(iters[k]), "grad_norm": float(gnorm[k]), "converged": bool(converged[k])}
        for k in best
    ]
    return values[best], x[best], stats


def _fourier_bump(rng, n_free: int, dim: int, scale) -> np.ndarray:
    """Smooth random interior displacements vanishing at both ends, one per entry
    of scale (shape scale.shape + (n_free, dim)), each as if drawn alone."""
    tau = np.linspace(0.0, 1.0, n_free + 2)[1:-1]
    scale = np.asarray(scale, dtype=float)
    out = np.zeros(scale.shape + (n_free, dim))
    for j in range(1, 5):
        coeff = np.multiply.outer(scale / j, rng.standard_normal(size=dim))
        out += np.sin(j * np.pi * tau)[:, None] * coeff[..., None, :]
    return out


def _start_stack(times, a, b, warm, restarts, seed):
    """Starts (K, S, n, d) from a (K, d) to b (K, d): affine, the warm starts
    (K, W, n, d) re-pinned, and seeded random perturbations of the affine one."""
    n = times.size
    d = a.shape[1]
    lam = ((times - times[0]) / (times[-1] - times[0]))[None, :, None]
    affine = a[:, None, :] * (1 - lam) + b[:, None, :] * lam
    warm = np.array(warm, dtype=float)
    warm[:, :, 0] = a[:, None]
    warm[:, :, -1] = b[:, None]
    starts = [affine] + [warm[:, i] for i in range(warm.shape[1])]
    # One vector norm per pair, as for a lone pair: the same bits in any dimension.
    scale = np.array([0.25 * (float(np.linalg.norm(e - s)) + 1.0) for s, e in zip(a, b)])
    for k in range(restarts):
        rng = np.random.default_rng(np.random.SeedSequence((seed, k, n)))
        bumped = affine.copy()
        bumped[:, 1:-1] += _fourier_bump(rng, n - 2, d, scale)
        starts.append(bumped)
    return np.stack(starts, axis=1)


def _check_window(t0, t1, eps):
    if not t1 > t0:
        raise InputError("need t1 > t0")
    if not eps > 0:
        raise InputError("eps must be positive")


def _certify(value, check, what):
    if abs(check - value) > 1e-10 * max(1.0, abs(check)):
        raise InvariantError(f"optimizer objective {value!r} and {what} {check!r} disagree")


def minimize_bvp(
    V: Optional[PeriodicPotential],
    W: Optional[Perturbation],
    eps: float,
    t0: float,
    t1: float,
    a,
    b,
    n_nodes: int,
    opt: OptimizerSpec,
    quad: QuadratureSpec = QuadratureSpec(),
    warm_starts: Sequence[Trajectory] = (),
):
    """Minimize the eps-action over paths with u(t0) = a, u(t1) = b pinned.

    Returns (trajectory, value); the value is re-evaluated through the
    trajectory module and certified against the internal objective to 1e-10.
    The trajectory's meta holds the winning start's solver record
    {iterations, grad_norm, converged}.
    """
    if V is None:
        raise InputError("a periodic potential is required (use the zero potential)")
    return _minimize_pinned(V, W, eps, t0, t1, a, b, n_nodes, opt, quad, warm_starts)


def _minimize_pinned(V, W, eps, t0, t1, a, b, n_nodes, opt, quad, warm_starts):
    a = np.atleast_1d(np.asarray(a, dtype=float))
    values, nodes, times, stats = _solve_pinned(
        V, W, eps, t0, t1, a[None], b, n_nodes, opt, quad, [warm_starts]
    )
    traj = Trajectory(times, nodes[0], meta=stats[0])
    check = action_G(traj, V, W, eps, quad)
    _certify(values[0], check, "trajectory action")
    return traj, check


def minimize_bvp_batch(
    V: PeriodicPotential,
    W: Optional[Perturbation],
    eps: float,
    t0: float,
    t1: float,
    a_batch: np.ndarray,
    b,
    n_nodes: int,
    opt: OptimizerSpec,
    quad: QuadratureSpec = QuadratureSpec(),
    warm_starts_per_problem: Optional[Sequence] = None,
    records: Optional[list] = None,
):
    """minimize_bvp for P problems on one window, u(t0) = a_batch[p] (P, d) and
    u(t1) = b (d,) or b[p] (P, d), in one stacked solve.

    Each problem gets the affine start, its warm starts (trajectories,
    resampled, or node arrays on the grid; one sequence per problem, all of
    one length; endpoints re-pinned) and the seeded restarts. Returns
    (values (P,), nodes (P, n_nodes, d), times). Given a list as `records`,
    the winners' solver records {iterations, grad_norm, converged} are
    appended to it, one per problem (an out-parameter, so that callers and
    the benchmark's tracing keep unpacking three values).
    """
    values, nodes, times, stats = _solve_pinned(
        V, W, eps, t0, t1, a_batch, b, n_nodes, opt, quad, warm_starts_per_problem
    )
    if records is not None:
        records.extend(stats)
    return values, nodes, times


def _solve_pinned(V, W, eps, t0, t1, a_batch, b, n_nodes, opt, quad, warm):
    """minimize_bvp_batch, also returning the winning starts' solver records."""
    if W is not None and W.zero_atom != 0.0:
        raise InputError("perturbations with a zero atom are handled by the DP oracles")
    if n_nodes < 2:
        raise InputError("need at least two nodes")
    _check_window(t0, t1, eps)
    a_batch = np.asarray(a_batch, dtype=float)
    a_batch = a_batch.reshape(len(a_batch), -1)
    n_problems, d = a_batch.shape
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if b.shape not in ((d,), (n_problems, d)):
        raise InputError("b must have shape (d,) or (problems, d)")
    b = np.broadcast_to(b, (n_problems, d))
    times = np.linspace(t0, t1, n_nodes)

    warm = [()] * n_problems if warm is None else warm
    if len(warm) != n_problems:
        raise InputError("need one warm-start list per problem")
    warm = [[u.resample(times).nodes if isinstance(u, Trajectory) else u for u in w] for w in warm]
    if len({len(w) for w in warm}) > 1:
        raise InputError("every problem must receive the same number of warm starts")
    warm = np.array(warm, dtype=float).reshape(n_problems, len(warm[0]), n_nodes, d)
    starts = _start_stack(times, a_batch, b, warm, opt.restarts, opt.seed)
    action = _Action.eps_action(V, W, eps, times, quad.samples_per_interval)
    values, nodes, stats = _solve(action, starts, opt)
    return values, nodes, times, stats


def minimize_lagrangian_bvp(
    L: GeneralLagrangian,
    t0: float,
    t1: float,
    a,
    b,
    n_nodes: int,
    opt: OptimizerSpec,
    quad: QuadratureSpec = QuadratureSpec(),
):
    """Minimize integral of L(u, u') with pinned endpoints.

    Solves, and certifies, like minimize_bvp at eps = 1 on L's V and W.
    """
    return _minimize_pinned(L.V, L.W, 1.0, t0, t1, a, b, n_nodes, opt, quad, ())


def minimize_halfline(
    V: PeriodicPotential,
    W: Optional[Perturbation],
    eps: float,
    lam: float,
    x0,
    T_max: float,
    n_nodes: int,
    opt: OptimizerSpec,
    quad: QuadratureSpec = QuadratureSpec(),
    warm_starts: Sequence = (),
):
    """Minimize the discounted action over paths leaving x0, free far end.

    The path is truncated at T_max (must be >= 5/lam so the neglected tail of
    a bounded integrand is below exp(-5)/lam of its sup) and extended by a
    constant, whose exact tail cost is part of the objective. Starts: the
    constant path and the warm starts (trajectories, resampled, or node
    arrays on the grid; first node re-pinned to x0). Without warm starts, the
    path backtracked from x0 through the discounted lattice DP (_lattice_seeds)
    is the warm start; that needs d = 1. The trajectory's meta holds the tail
    weight and the solver record.
    """
    if W is not None and W.zero_atom != 0.0:
        raise InputError("perturbations with a zero atom are handled by the DP oracles")
    if not lam > 0:
        raise InputError("lam must be positive")
    if T_max < 5.0 / lam:
        raise InputError("T_max must be at least 5/lam")
    _check_window(0.0, T_max, eps)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    times = np.linspace(0.0, T_max, n_nodes)
    weights = exp_interval_weights(sub_interval_edges(times, quad.samples_per_interval), lam)
    tail_w = float(np.exp(-lam * T_max) / lam)
    kinetic = exp_interval_weights(times, lam) / np.diff(times) ** 2
    action = _Action(V, W, eps, kinetic, weights, tail_w, last_free=True)

    if not len(warm_starts):
        _, states, [(_, path)] = _lattice_seeds(V, W, eps, x0, T_max, [T_max], lam=lam)
        warm_starts = _seed_nodes(states, path, times)
    starts = [np.repeat(x0[None, :], n_nodes, axis=0)]
    for u in warm_starts:
        path = np.array(u.resample(times).nodes if isinstance(u, Trajectory) else u, dtype=float)
        if path.shape != starts[0].shape:
            raise InputError(f"warm start of shape {path.shape}, expected {starts[0].shape}")
        path[0] = x0
        starts.append(path)

    values, nodes, stats = _solve(action, np.stack(starts)[None], opt)
    traj = Trajectory(times, nodes[0], meta={"tail_weight": tail_w, **stats[0]})
    check = discounted_action(traj, V, W, eps, lam, quad)
    _certify(values[0], check, "discounted action")
    return traj, check


# ---------------------------------------------------------------------------
# Dynamic-programming oracles (d = 1)
# ---------------------------------------------------------------------------


def _lattice_moves(slope_set, h: float, dx: float, n_x: int):
    """Realizable integer state moves and their exact slopes."""
    ks = np.unique(np.round(np.asarray(slope_set, dtype=float) * h / dx).astype(int))
    ks = ks[np.abs(ks) < n_x]
    if ks.size == 0:
        raise InputError("slope_set produces no admissible lattice moves")
    return ks, ks * dx / h


def _default_slope_set(slope_bc: float, count: int = 41):
    span = 4.0 * abs(slope_bc) + 2.0
    return np.linspace(-span, span, count)


def _lattice_costs(V, W, eps, states):
    """(V + W)(x / eps) at the states, and W's zero atom at the state 0 (None without one).

    Raises SolverError when a state's cost is NaN or -inf. The sweep skips
    states whose value is still +inf or that cannot reach the read-out state;
    that is exact only while no stage cost can turn a +inf value into NaN.
    A +inf cost stays a forbidden state.
    """
    cost = eval_potential(V, W, states[:, None] / eps)
    atom = W.zero_atom if W is not None else 0.0
    atom_cost = None if atom == 0.0 else np.where(states == 0.0, atom, 0.0)
    stay = cost if atom_cost is None else cost + atom_cost
    bad = np.flatnonzero(~(stay > -np.inf))
    if bad.size:
        i = int(bad[0])
        raise SolverError(
            f"DP stage cost at state {i} (x = {float(states[i])!r}) is {float(stay[i])!r}"
        )
    return cost, atom_cost


def _dp_sweep(
    value, lo, hi, moves, stages, n_steps, target=None, weights=None, atom=None,
    read_at=(), record=False,
):
    """Run n_steps backward lattice steps from `value` (finite only on states
    lo..hi; not modified).

    A step takes, at each state i, the best over moves k of the stage cost of
    i plus the value at i + k. stages (M, n_x) holds move m's stage cost at
    every state: as charged, or, given `weights` (one per step, in sweep order,
    >= 0; a zero weight needs finite stages, as 0 * inf is NaN), to be charged
    as weights[j] * stages[m] plus weights[j] * atom when staying.

    Each step sweeps only its cone: the states whose value can be finite
    (grown from lo..hi by the moves) and, given a `target` state, that can
    still reach it in the steps left. With a target, only the returned value
    at target is meaningful; without one every other state is +inf, as in the
    full-grid sweep, whose results these equal bit for bit.

    A step is one stacked min-plus operation: the candidates C[m, i] of all
    moves over the cone are formed at once, the value at i + k read through a
    sliding window over a +inf-padded value buffer (whose states outside the
    previous cone are +inf, so they never win), and reduced over m by one
    `min`. Recording takes the first move whose candidate equals it, the one
    a strict `<` scan over the moves keeps. C lives in one scratch of at most
    M x (widest cone) floats.

    Returns (value after the last step, a copy of the value after each step
    count in read_at (used without a target), arg): given `record`, arg[j, i]
    (n_steps, n_x; the smallest unsigned type) indexes the move state i takes
    at step j wherever the value after step j is finite. Recording changes no
    value.
    """
    n_x = value.size
    stages = np.asarray(stages)
    ks = moves.tolist()  # Python ints: the window bounds are scalar arithmetic
    kmin, kmax, n_moves = ks[0], ks[-1], len(ks)
    pad = max(0, -kmin)  # state i of a value buffer sits at pad + i
    bufs = np.full((2, pad + n_x + max(0, kmax)), np.inf)
    bufs[0, pad + lo : pad + hi + 1] = value[lo : hi + 1]
    # windows[b][r, i] is buffer b's state i + r - pad: move m reads row pad + ks[m]
    windows = [np.lib.stride_tricks.sliding_window_view(buf, n_x) for buf in bufs]
    rows = moves + pad
    if kmax - kmin + 1 == n_moves:
        rows = slice(kmin + pad, kmax + pad + 1)
    stay = ks.index(0) if atom is not None and 0 in ks else None
    scratch = np.empty(n_moves * n_x)
    arg = np.empty((n_steps, n_x), np.min_scalar_type(n_moves)) if record else None
    cur = 0
    stale_lo, stale_hi = 0, -1  # the cone that the buffer written next holds
    reads = []
    for j in range(n_steps):
        new_lo = max(lo - kmax, 0)
        new_hi = min(hi - kmin, n_x - 1)
        if target is not None:
            left = n_steps - 1 - j
            new_lo = max(new_lo, target + left * kmin)
            new_hi = min(new_hi, target + left * kmax)
        if new_hi < new_lo:  # only with a target: no state can reach it any more
            return np.full(n_x, np.inf), reads, arg
        nxt = 1 - cur
        bufs[nxt, pad + stale_lo : pad + stale_hi + 1] = np.inf
        a, b = new_lo, new_hi + 1
        c = scratch[: n_moves * (b - a)].reshape(n_moves, b - a)
        window = windows[cur][rows, a:b]
        if weights is None:
            np.add(stages[:, a:b], window, out=c)
        else:
            np.multiply(weights[j], stages[:, a:b], out=c)
            if stay is not None:
                np.add(c[stay], weights[j] * atom[a:b], out=c[stay])
            np.add(c, window, out=c)
        out = bufs[nxt, pad + a : pad + b]
        np.min(c, axis=0, out=out)
        if record:  # np.argmin along the moves would first copy C transposed
            arg[j, a:b] = np.argmax(c == out, axis=0)
        cur = nxt
        stale_lo, stale_hi = lo, hi
        lo, hi = new_lo, new_hi
        if j + 1 in read_at:
            reads.append(bufs[cur, pad : pad + n_x].copy())
    return bufs[cur, pad : pad + n_x], reads, arg


def dp_oracle_1d(
    V: PeriodicPotential,
    W: Optional[Perturbation],
    eps: float,
    t0: float,
    t1: float,
    a: float,
    b: float,
    grid: DPGrid,
    slope_set=None,
) -> float:
    """Exact minimum of the discrete eps-action over lattice paths.

    States live on the grid, admissible moves are the lattice-realizable
    slopes derived from slope_set, and each step costs h * (slope^2 +
    (V+W)(x/eps)) at the source state. Endpoints are pinned to the nearest
    grid states. A zero_atom on W is charged exactly for steps that stay at
    the state 0 (present on the grid whenever the range is symmetric with an
    odd state count). The stage costs are built once, one row per move, and
    each step sweeps only the reachable cone: the states already reachable
    from b that can still reach a in the steps left. A NaN or -inf cost
    raises SolverError; a +inf cost forbids its state.
    """
    if not t1 > t0:
        raise InputError("need t1 > t0")
    states = grid.states()
    if not (grid.x_lo <= a <= grid.x_hi and grid.x_lo <= b <= grid.x_hi):
        raise InputError("boundary values must lie inside the DP state range")
    dx = states[1] - states[0]
    h = (t1 - t0) / (grid.n_t - 1)
    if slope_set is None:
        slope_set = _default_slope_set((b - a) / (t1 - t0))
    moves, slopes = _lattice_moves(slope_set, h, dx, grid.n_x)

    cost, atom_cost = _lattice_costs(V, W, eps, states)
    stages = h * ((slopes * slopes)[:, None] + cost)
    if atom_cost is not None:
        stages[moves == 0] += h * atom_cost
    value = np.full(grid.n_x, np.inf)
    ib = int(np.argmin(np.abs(states - b)))
    value[ib] = 0.0
    ia = int(np.argmin(np.abs(states - a)))
    result = _dp_sweep(value, ib, ib, moves, stages, grid.n_t - 1, ia)[0][ia]
    if not np.isfinite(result):
        raise SolverError("DP could not connect the boundary states with the given slopes")
    return float(result)


def dp_oracle_halfline(
    V: PeriodicPotential,
    W: Optional[Perturbation],
    eps: float,
    lam: float,
    x0: float,
    T_max: float,
    grid: DPGrid,
    slope_set=None,
) -> float:
    """Discounted DP oracle on [0, T_max] with constant extension past T_max.

    Stage weights are the exact integrals of exp(-lam*t) over each time slice,
    and the terminal value is the exact tail of sitting at the final state.
    Each step sweeps only the reachable cone, the states that can still reach
    x0 in the steps left. A NaN or -inf cost raises SolverError; a +inf cost
    forbids its state.
    """
    if not lam > 0:
        raise InputError("lam must be positive")
    states = grid.states()
    if not grid.x_lo <= x0 <= grid.x_hi:
        raise InputError("x0 must lie inside the DP state range")
    dx = states[1] - states[0]
    h = T_max / (grid.n_t - 1)
    if slope_set is None:
        slope_set = _default_slope_set(0.0)
    moves, slopes = _lattice_moves(slope_set, h, dx, grid.n_x)

    cost, atom_cost = _lattice_costs(V, W, eps, states)
    weights = exp_interval_weights(np.linspace(0.0, T_max, grid.n_t), lam)

    value = (cost if atom_cost is None else cost + atom_cost) * (np.exp(-lam * T_max) / lam)
    ix = int(np.argmin(np.abs(states - x0)))
    result = _dp_sweep(
        value, 0, grid.n_x - 1, moves, (slopes * slopes)[:, None] + cost, grid.n_t - 1, ix,
        weights[::-1], atom_cost,
    )[0][ix]
    if not np.isfinite(result):
        raise SolverError("discounted DP found no admissible path")
    return float(result)


# ---------------------------------------------------------------------------
# Lattice DP seeds of the HJ fields (d = 1)
# ---------------------------------------------------------------------------

# The seed lattice has eps/16 between states and a slope step dx/h of 1/16, so
# its time step is at most eps. A move is charged the mean lattice cost along
# its segment, so a fast move pays for what it crosses; the slope step keeps
# the quantized kinetic cost of a path within t/1024 of the straight one's.
_SEED_STATES_PER_EPS = 16
_SEED_SLOPE_STEP = 1.0 / 16.0


def _lattice_seeds(V, W, eps, x, horizon, read_at, y=None, phi=None, lam=None):
    """Backward lattice DP of a 1D HJ field at the points x (P,), and the
    argmin state paths (n + 1, P) leaving them; R = sup - inf of V + W.

    Given y and phi: by time reversal, min over y of S_eps(y, x, t) + phi(y)
    is the least cost of a path leaving x for time t and paying phi where it
    ends, so the sweep starts from phi at the y (all states) and is read out
    at each t of read_at. A path from y beating the straight one from the y
    nearest x, D away, has |x - y|^2 / t <= D^2 / t + range(phi) + t R,
    which with R bounds its slopes; every x reaches its nearest y by read_at[0].
    Given lam: the sweep starts from the tail cost of parking at T = horizon
    and weights each step by its exact discount. Reaching distance D by time
    1/lam costs lam D^2 / (e - 1), more than the gain R / lam of any path
    once D > sqrt((e - 1) R) / lam, the margin around x; slopes reach sqrt(2 R).

    Returns ({states, steps, moves}, states, [(values at x, paths) per read-out]).
    """
    if V.dimension != 1:
        raise InputError("the lattice DP seeds of the HJ solvers need d = 1")
    spread = V.v_max - V.v_min + (W.upper_bound() - W.lower_bound() if W is not None else 0.0)
    if not math.isfinite(spread):
        raise InputError("the lattice DP seeds need V + W with finite bounds")
    dx = eps / _SEED_STATES_PER_EPS
    if lam is None:
        if y.size > 1:  # a whole fraction of the least y spacing: each y is one state
            dx = float(np.min(np.diff(y))) / math.ceil(float(np.min(np.diff(y))) / dx)
        origin, lo, hi = y[0], min(np.min(x), y[0]), max(np.max(x), y[-1])
    else:
        margin = math.sqrt((math.e - 1.0) * spread) / lam
        origin, lo, hi = 0.0, np.min(x) - margin, np.max(x) + margin
    first = math.floor((lo - origin) / dx)
    states = origin + dx * np.arange(first, max(math.ceil((hi - origin) / dx), first + 1) + 1)
    start = np.rint((np.asarray(x) - states[0]) / dx).astype(int)
    cost, _ = _lattice_costs(V, W, eps, states)
    if lam is None:
        iy = np.rint((y - states[0]) / dx).astype(int)
        value = np.full(states.size, np.inf)
        value[iy] = phi
        lo, hi = int(iy[0]), int(iy[-1])
        near = int(np.max(np.min(np.abs(start[:, None] - iy[None, :]), axis=1)))
        t0 = read_at[0]
        max_slope = math.sqrt((near * dx / t0) ** 2 + float(np.ptp(phi)) / t0 + 2.0 * spread)
    else:
        value = cost * (np.exp(-lam * horizon) / lam)
        lo, hi, near = 0, states.size - 1, 0
        max_slope = math.sqrt(2.0 * spread)

    # Up to twice the fewest steps, the first count that puts every read-out on a step.
    fewest = math.ceil(horizon * _SEED_SLOPE_STEP / dx)
    n_steps = next((n for n in range(fewest, 2 * fewest + 1) if all(
        abs(t * n / horizon - round(t * n / horizon)) < 1e-9 for t in read_at)), fewest)
    h = horizon / n_steps
    counts = [max(1, round(t / h)) for t in read_at]
    reach = max(math.ceil(max_slope * h / dx), -(-near // counts[0]))
    moves, slopes = _lattice_moves(np.arange(-reach, reach + 1) * dx / h, h, dx, states.size)
    cum = np.concatenate(([0.0], np.cumsum(0.5 * (cost[1:] + cost[:-1]))))
    # A move off the grid reads the sweep's +inf padding, so its stage is never
    # charged; a finite one keeps 0 * stage from being NaN where a weight underflows.
    stages = np.zeros((moves.size, states.size))
    for m, k in enumerate(moves.tolist()):
        src = slice(max(0, -k), states.size - max(0, k))
        stages[m, src] = (cum[max(0, k) : states.size + min(0, k)] - cum[src]) / k if k else cost
    stages += (slopes * slopes)[:, None]
    if lam is None:
        stages *= h
    weights = None
    if lam is not None:
        weights = exp_interval_weights(np.linspace(0.0, horizon, n_steps + 1), lam)[::-1]
    _, reads, arg = _dp_sweep(
        value, lo, hi, moves, stages, n_steps, weights=weights, read_at=counts, record=True
    )
    seeds = []
    for n, read in zip(counts, reads):
        if not np.all(np.isfinite(read[start])):
            raise SolverError("the lattice DP reached no y from a grid point")
        path = np.empty((n + 1, start.size), dtype=int)
        path[0] = start
        for j in range(n):
            path[j + 1] = path[j] + moves[arg[n - 1 - j, path[j]]]
        seeds.append((read[start], path))
    return {"states": states.size, "steps": n_steps, "moves": int(moves.size)}, states, seeds


def _seed_nodes(states, path, times):
    """State paths (n + 1, P) as node arrays (P, len(times), 1), the lattice
    times stretched over [times[0], times[-1]]."""
    knots = np.linspace(times[0], times[-1], path.shape[0])
    return np.stack([np.interp(times, knots, states[p])[:, None] for p in path.T])
