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
  bound for d = 1 that never sees the optimizer's code paths.

Optimizer results carry certified-upper-bound semantics: every reported value
is the action of a concrete trajectory, re-evaluated through the trajectory
module and required to agree with the optimizer's internal objective to 1e-10.
"""

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import InputError, InvariantError, SolverError
from .potentials import GeneralLagrangian, PeriodicPotential, Perturbation
from .quadrature import QuadratureSpec, exp_interval_weights, midpoint_offsets
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
    once its gradient norm is at most grad_tol or its Newton decrement has
    reached roundoff. It also stops, unconverged, when no step along the
    Newton direction decreases the action, or when a converged start of its
    problem is lower by more than ten times its Newton decrement. armijo_c is
    the sufficient-decrease constant of the backtracking line search, which
    always tries the full step first. The affine start and any warm starts
    are joined by `restarts` random starts drawn from `seed`.
    """

    max_iters: int = 400
    armijo_c: float = 1e-4
    grad_tol: float = 1e-8
    restarts: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.max_iters < 1:
            raise InputError("max_iters must be >= 1")
        if not 0 < self.armijo_c < 1:
            raise InputError("armijo_c must lie in (0, 1)")
        if not self.grad_tol > 0:
            raise InputError("grad_tol must be positive")
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

    def refined(self) -> "DPGrid":
        return DPGrid(self.x_lo, self.x_hi, 2 * self.n_x - 1, 2 * self.n_t - 1)


# ---------------------------------------------------------------------------
# The discrete action and its damped-Newton minimizer
# ---------------------------------------------------------------------------

# A Newton decrement g.H^-1.g at or below this multiple of max(1, |value|)
# predicts a decrease the action's roundoff cannot resolve.
_ROUNDOFF_DECREMENT = 1e-14
# Backtracking halves the step at most this many times before giving up.
_MAX_HALVINGS = 40


class _Action:
    """sum_i k_i |x_{i+1} - x_i|^2 + sum_{i,s} w_is f(p_is / eps) + tail * f(x_last / eps).

    f = V + W; p_is = (1 - l_s) x_i + l_s x_{i+1} are the m midpoint samples of
    interval i. The first node is pinned; the last one is pinned too unless
    `last_free`, as on the half-line, where the path continues as a constant.
    """

    def __init__(self, V, W, eps, kinetic, weights, tail=0.0, last_free=False):
        self.terms = [obj for obj in (V, W) if obj is not None]
        self.eps = eps
        self.kinetic = kinetic
        self.weights = weights
        self.offsets = midpoint_offsets(weights.shape[1])
        self.tail = tail
        self.last_free = last_free

    @classmethod
    def eps_action(cls, V, W, eps, times, m):
        widths = np.diff(times)
        return cls(V, W, eps, 1.0 / widths, np.repeat(widths[:, None] / m, m, axis=1))

    def _f(self, y):
        return sum((obj.evaluator(y) for obj in self.terms), np.zeros(y.shape[:-1]))

    def _samples(self, x):
        lam = self.offsets[None, None, :, None]
        return (x[:, :-1, None, :] * (1 - lam) + x[:, 1:, None, :] * lam) / self.eps

    def value(self, x, y=None):
        """Action of each path of the batch x (B, N, d); y: its scaled samples, if known."""
        y = self._samples(x) if y is None else y
        diffs = x[:, 1:] - x[:, :-1]
        out = np.sum(np.sum(diffs * diffs, axis=2) * self.kinetic, axis=1)
        out += np.sum(self._f(y) * self.weights, axis=(1, 2))
        if self.tail:
            out += self.tail * self._f(x[:, -1] / self.eps)
        return out

    def derivatives(self, x):
        """(value (B,), gradient (B, N, d), diagonal blocks (B, N, d, d), and the
        blocks coupling node i to node i + 1 (B, N - 1, d, d))."""
        eps, lam, eye = self.eps, self.offsets, np.eye(x.shape[2])
        y = self._samples(x)
        g = sum(obj.grad(y) for obj in self.terms) / eps
        h = sum(obj.hess(y) for obj in self.terms) / eps**2
        left, right = self.weights * (1 - lam), self.weights * lam
        kin = 2 * self.kinetic[None, :, None] * (x[:, 1:] - x[:, :-1])
        kin_block = 2 * self.kinetic[None, :, None, None] * eye
        grad = np.zeros_like(x)
        grad[:, :-1] = np.einsum("bnsk,ns->bnk", g, left) - kin
        grad[:, 1:] += np.einsum("bnsk,ns->bnk", g, right) + kin
        diag = np.zeros(x.shape + (x.shape[2],))
        diag[:, :-1] = np.einsum("bnskl,ns->bnkl", h, left * (1 - lam)) + kin_block
        diag[:, 1:] += np.einsum("bnskl,ns->bnkl", h, right * lam) + kin_block
        off = np.einsum("bnskl,ns->bnkl", h, left * lam) - kin_block
        if self.tail:
            end = x[:, -1] / eps
            grad[:, -1] += self.tail / eps * sum(obj.grad(end) for obj in self.terms)
            diag[:, -1] += self.tail / eps**2 * sum(obj.hess(end) for obj in self.terms)
        return self.value(x, y), grad, diag, off


def _newton_steps(diag, off, grad):
    """Solve (H_b + tau_b I) p_b = -g_b for every start b; return (p (B, n, d), -g.p (B,)).

    H_b is block tridiagonal over the free nodes: diag (B, n, d, d), off
    (B, n - 1, d, d). The B uncoupled systems form one banded matrix for one
    banded Cholesky (LAPACK dpbtrf, as in scipy.linalg.cholesky_banded).
    tau_b is 0 for a positive definite H_b, else raised as in Nocedal & Wright's
    Algorithm 3.3, the factorization resuming at start b (its predecessors
    are already factored).
    """
    from scipy.linalg import lapack

    B, n, d = grad.shape
    size = n * d
    u = 2 * d - 1
    bands = np.zeros((u + 1, B, n, d))
    for k in range(d):
        for col in range(d):
            if col >= k:
                bands[u - (col - k), :, :, col] = diag[:, :, k, col]
            bands[u - (d + col - k), :, 1:, col] = off[:, :, k, col]
    bands = bands.reshape(u + 1, B * size)
    main = bands[u].reshape(B, size)
    floor = 1e-3 * np.max(np.abs(main), axis=1) + np.finfo(float).tiny
    low = np.min(main, axis=1)
    tau = np.where(low > 0, 0.0, floor - low)
    bands[u] += np.repeat(tau, size)

    factor = np.empty_like(bands)
    start = 0
    while True:
        chunk, info = lapack.dpbtrf(bands[:, start:])
        if info == 0:
            factor[:, start:] = chunk
            break
        if info < 0:
            raise SolverError(f"banded Cholesky rejected argument {-info}")
        b = (start + info - 1) // size
        head = b * size
        factor[:, start:head] = chunk[:, : head - start]
        bump = max(2 * tau[b], floor[b]) - tau[b]
        tau[b] += bump
        bands[u, head : head + size] += bump
        start = head
    steps, info = lapack.dpbtrs(factor, -grad.reshape(-1))
    if info != 0:
        raise SolverError(f"banded Cholesky solve failed (info {info})")
    steps = steps.reshape(B, n, d)
    return steps, -np.sum(steps * grad, axis=(1, 2))


def _solve(action: _Action, starts, opt: OptimizerSpec):
    """Damped Newton from starts (P problems, S starts, N, d); pinned nodes never move.

    Returns, per problem, the best start's value, nodes and solver record
    {iterations, grad_norm (free nodes, final point), converged}.
    """
    P, S, N, _ = starts.shape
    x = starts.reshape((P * S,) + starts.shape[2:]).astype(float)
    free = slice(1, N if action.last_free else N - 1)
    values, gnorm = np.empty(P * S), np.empty(P * S)
    iters = np.zeros(P * S, dtype=int)
    converged = np.zeros(P * S, dtype=bool)
    finished = np.zeros(P * S, dtype=bool)  # roundoff decrement, no decrease, or beaten
    active = np.ones(P * S, dtype=bool)
    for sweep in range(opt.max_iters + 1):
        idx = np.flatnonzero(active)
        f, grad, diag, off = action.derivatives(x[idx])
        if not np.all(np.isfinite(f)):
            raise SolverError("objective not finite at a start trajectory")
        grad = grad[:, free]
        values[idx] = f
        gnorm[idx] = np.sqrt(np.sum(grad * grad, axis=(1, 2)))
        converged[idx] |= gnorm[idx] <= opt.grad_tol
        active[idx] = keep = ~(converged[idx] | finished[idx])
        if sweep == opt.max_iters or not np.any(keep):
            break
        steps, dec = _newton_steps(diag[keep, free], off[keep, free.start : free.stop - 1], grad[keep])
        idx, f = idx[keep], f[keep]
        # A start that a converged start of its problem beats by more than ten
        # times its own Newton decrement is near a worse stationary point: stop it.
        lowest = np.where(converged, values, np.inf).reshape(P, S).min(axis=1)
        finished[idx] = True
        go = f <= lowest[idx // S] + 10 * dec
        idx, f, steps, dec = idx[go], f[go], steps[go], dec[go]
        iters[idx] += 1
        at_roundoff = dec <= _ROUNDOFF_DECREMENT * np.maximum(1.0, np.abs(f))
        converged[idx] |= at_roundoff
        # A start stops after this step unless the line search accepts a
        # step that is not the final roundoff-level one.
        t = np.ones(idx.size)
        pending = np.arange(idx.size)
        for _ in range(_MAX_HALVINGS):
            cand = x[idx[pending]]
            cand[:, free] += t[pending, None, None] * steps[pending]
            fc = action.value(cand)
            decrease = np.where(at_roundoff[pending], 0.0, opt.armijo_c * t[pending] * dec[pending])
            ok = np.isfinite(fc) & (fc <= f[pending] - decrease)
            x[idx[pending[ok]]] = cand[ok]
            finished[idx[pending[ok]]] = at_roundoff[pending[ok]]
            pending = pending[~ok & ~at_roundoff[pending]]
            if pending.size == 0:
                break
            t[pending] *= 0.5
    best = np.argmin(values.reshape(P, S), axis=1) + S * np.arange(P)
    stats = [
        {"iterations": int(iters[k]), "grad_norm": float(gnorm[k]), "converged": bool(converged[k])}
        for k in best
    ]
    return values[best], x[best], stats


def _fourier_bump(rng, n_free: int, dim: int, scale: float) -> np.ndarray:
    """Smooth random interior displacement vanishing at both ends."""
    tau = np.linspace(0.0, 1.0, n_free + 2)[1:-1]
    out = np.zeros((n_free, dim))
    for j in range(1, 5):
        coeff = rng.normal(0.0, scale / j, size=dim)
        out += np.sin(j * np.pi * tau)[:, None] * coeff[None, :]
    return out


def _start_stack(times, a, b, warm_starts, restarts, seed, scale):
    """Affine start, resampled warm starts, and seeded random perturbations."""
    n = times.size
    d = a.shape[0]
    lam = (times - times[0]) / (times[-1] - times[0])
    affine = a[None, :] * (1 - lam[:, None]) + b[None, :] * lam[:, None]
    starts = [affine]
    for w in warm_starts:
        resampled = w.resample(times).nodes.copy()
        resampled[0] = a
        resampled[-1] = b
        starts.append(resampled)
    for k in range(restarts):
        rng = np.random.default_rng(np.random.SeedSequence((seed, k, n)))
        bumped = affine.copy()
        bumped[1:-1] += _fourier_bump(rng, n - 2, d, scale)
        starts.append(bumped)
    return np.stack(starts, axis=0)


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
    if W is not None and W.zero_atom != 0.0:
        raise InputError("perturbations with a zero atom are handled by the DP oracles")
    if n_nodes < 2:
        raise InputError("need at least two nodes")
    _check_window(t0, t1, eps)
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    times = np.linspace(t0, t1, n_nodes)
    scale = 0.25 * (float(np.linalg.norm(b - a)) + 1.0)
    starts = _start_stack(times, a, b, warm_starts, opt.restarts, opt.seed, scale)
    action = _Action.eps_action(V, W, eps, times, quad.samples_per_interval)
    values, nodes, stats = _solve(action, starts[None], opt)
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
    warm_starts_per_problem: Optional[Sequence[Sequence[Trajectory]]] = None,
):
    """minimize_bvp for many start points a sharing (t0, t1, b).

    All problems and their restarts form one stacked Newton system. Per-problem
    warm starts (same count for every problem) are resampled onto the shared
    time grid with endpoints re-pinned. Returns (values (B,), nodes
    (B, n_nodes, d), times).
    """
    if W is not None and W.zero_atom != 0.0:
        raise InputError("perturbations with a zero atom are handled by the DP oracles")
    _check_window(t0, t1, eps)
    a_batch = np.asarray(a_batch, dtype=float)
    if a_batch.ndim == 1:
        a_batch = a_batch[:, None]
    b = np.atleast_1d(np.asarray(b, dtype=float))
    n_problems = a_batch.shape[0]
    times = np.linspace(t0, t1, n_nodes)

    if warm_starts_per_problem is None:
        warm_starts_per_problem = [()] * n_problems
    if len(warm_starts_per_problem) != n_problems:
        raise InputError("need one warm-start list per problem")
    counts = {len(w) for w in warm_starts_per_problem}
    if len(counts) > 1:
        raise InputError("every problem must receive the same number of warm starts")

    stacks = []
    for a, warm in zip(a_batch, warm_starts_per_problem):
        scale = 0.25 * (float(np.linalg.norm(b - a)) + 1.0)
        stacks.append(_start_stack(times, a, b, warm, opt.restarts, opt.seed, scale))
    action = _Action.eps_action(V, W, eps, times, quad.samples_per_interval)
    values, nodes, _ = _solve(action, np.stack(stacks), opt)
    return values, nodes, times


def minimize_lagrangian_bvp(
    L: GeneralLagrangian,
    t0: float,
    t1: float,
    a,
    b,
    n_nodes: int,
    opt: OptimizerSpec,
    quad: QuadratureSpec = QuadratureSpec(),
    warm_starts: Sequence[Trajectory] = (),
):
    """Minimize integral of L(u, u') with pinned endpoints.

    Solves, and certifies, like minimize_bvp at eps = 1 on the V and W that
    GeneralLagrangian.from_potential records.
    """
    if L.V is None:
        raise InputError("minimize_lagrangian_bvp needs a Lagrangian built by from_potential")
    return _minimize_pinned(L.V, L.W, 1.0, t0, t1, a, b, n_nodes, opt, quad, warm_starts)


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
):
    """Minimize the discounted action over paths leaving x0, free far end.

    The path is truncated at T_max (must be >= 5/lam so the neglected tail of
    a bounded integrand is below exp(-5)/lam of its sup) and extended by a
    constant, whose exact tail cost is part of the objective. Warm starts:
    the constant path and dash-then-park moves to nearby low-potential points.
    The trajectory's meta holds the tail weight and the solver record.
    """
    if W is not None and W.zero_atom != 0.0:
        raise InputError("perturbations with a zero atom are handled by the DP oracles")
    if not lam > 0:
        raise InputError("lam must be positive")
    if T_max < 5.0 / lam:
        raise InputError("T_max must be at least 5/lam")
    _check_window(0.0, T_max, eps)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    d = x0.shape[0]
    times = np.linspace(0.0, T_max, n_nodes)
    m = quad.samples_per_interval

    widths = np.diff(times)
    sub_edges = times[:-1, None] + widths[:, None] * np.concatenate(
        ([0.0], np.arange(1, m) / m, [1.0])
    )[None, :]
    anti = np.exp(-lam * sub_edges) / lam
    tail_w = float(np.exp(-lam * T_max) / lam)
    kinetic = exp_interval_weights(times, lam) / widths**2
    action = _Action(V, W, eps, kinetic, anti[:, :-1] - anti[:, 1:], tail_w, last_free=True)

    starts = [np.repeat(x0[None, :], n_nodes, axis=0)]
    for target in _park_candidates(action, x0):
        path = np.repeat(target[None, :], n_nodes, axis=0)
        dash = max(2, int(0.05 * n_nodes))
        frac = np.linspace(0.0, 1.0, dash)[:, None]
        path[:dash] = x0[None, :] * (1 - frac) + target[None, :] * frac
        starts.append(path)
    for k in range(opt.restarts):
        rng = np.random.default_rng(np.random.SeedSequence((opt.seed, k, n_nodes)))
        bumped = starts[0].copy()
        bumped[1:-1] += _fourier_bump(rng, n_nodes - 2, d, 0.25)
        bumped[-1] += rng.normal(0.0, 0.25, size=d)
        starts.append(bumped)

    values, nodes, stats = _solve(action, np.stack(starts)[None], opt)
    traj = Trajectory(times, nodes[0], meta={"tail_weight": tail_w, **stats[0]})
    check = discounted_action(traj, V, W, eps, lam, quad)
    _certify(values[0], check, "discounted action")
    return traj, check


def _park_candidates(action: _Action, x0, count: int = 3):
    """Nearby points with small (V+W)(y/eps): targets for dash-then-park starts."""
    d = x0.shape[0]
    eps = action.eps
    offsets = np.arange(-2, 3)
    mesh = np.meshgrid(*([offsets] * d), indexing="ij")
    shifts = np.stack([g.ravel() for g in mesh], axis=-1)
    anchors = eps * np.round(x0 / eps)[None, :] + eps * shifts
    costs = action._f(anchors / eps)
    order = np.argsort(costs, kind="stable")[:count]
    return [anchors[i] for i in order]


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


def _stage_costs(V, W, eps, states):
    cost = V.evaluator(states[:, None] / eps)
    if W is not None:
        cost = cost + W.evaluator(states[:, None] / eps)
    return cost


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
    odd state count).
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

    cost = _stage_costs(V, W, eps, states)
    atom = W.zero_atom if W is not None else 0.0
    zero_idx = np.flatnonzero(states == 0.0)

    value = np.full(grid.n_x, np.inf)
    value[int(np.argmin(np.abs(states - b)))] = 0.0
    stay_bonus = np.zeros(grid.n_x)
    if atom != 0.0 and zero_idx.size:
        stay_bonus[zero_idx] = atom

    for _ in range(grid.n_t - 1):
        best = np.full(grid.n_x, np.inf)
        for k, s in zip(moves, slopes):
            src_lo = max(0, -k)
            src_hi = grid.n_x - max(0, k)
            if src_hi <= src_lo:
                continue
            stage = h * (s * s + cost[src_lo:src_hi])
            if k == 0 and atom != 0.0:
                stage = stage + h * stay_bonus[src_lo:src_hi]
            cand = stage + value[src_lo + k : src_hi + k]
            np.minimum(best[src_lo:src_hi], cand, out=best[src_lo:src_hi])
        value = best

    result = value[int(np.argmin(np.abs(states - a)))]
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

    cost = _stage_costs(V, W, eps, states)
    atom = W.zero_atom if W is not None else 0.0
    atom_cost = np.zeros(grid.n_x)
    if atom != 0.0:
        atom_cost[states == 0.0] = atom

    times = np.linspace(0.0, T_max, grid.n_t)
    anti = np.exp(-lam * times) / lam
    weights = anti[:-1] - anti[1:]

    value = (cost + atom_cost) * (np.exp(-lam * T_max) / lam)
    for step in range(grid.n_t - 2, -1, -1):
        w = weights[step]
        best = np.full(grid.n_x, np.inf)
        for k, s in zip(moves, slopes):
            src_lo = max(0, -k)
            src_hi = grid.n_x - max(0, k)
            if src_hi <= src_lo:
                continue
            stage = w * (s * s + cost[src_lo:src_hi])
            if k == 0 and atom != 0.0:
                stage = stage + w * atom_cost[src_lo:src_hi]
            cand = stage + value[src_lo + k : src_hi + k]
            np.minimum(best[src_lo:src_hi], cand, out=best[src_lo:src_hi])
        value = best

    result = value[int(np.argmin(np.abs(states - x0)))]
    if not np.isfinite(result):
        raise SolverError("discounted DP found no admissible path")
    return float(result)
