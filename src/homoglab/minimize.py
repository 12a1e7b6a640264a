"""Direct minimization of discrete actions, plus dynamic-programming oracles.

Two independent routes to the same minima live here, on purpose:

* damped Newton over trajectory nodes (deterministic starts: the affine or
  constant path and the caller's warm starts; boundary nodes pinned
  exactly). Every discrete action here -- the
  eps-action, the general-Lagrangian window action and the discounted
  half-line action -- is one kernel with per-sample weights, whose Hessian
  is block tridiagonal. All starts of all problems of a call are stacked into
  one banded system, factored by a banded Cholesky per iteration, with a
  diagonal shift where a Hessian is indefinite and Armijo backtracking from
  the full step (Nocedal & Wright, Numerical Optimization, 2nd ed., 3.4, 6).
  V and W enter through their declared closed-form gradients and Hessians;
  check_newton_terms turns away any other V or W, and a zero atom;
* backward dynamic programming over a state-time lattice, an anytime upper
  bound for d = 1 that never sees the optimizer's code paths, and the only
  solver that charges a zero atom. The same sweep, keeping the value after
  every step, also gives the HJ fields the lattice paths they pass to the
  Newton polish as warm starts, backtracked from those values.

Optimizer results carry certified-upper-bound semantics: every reported value,
each batch winner's included, is the action of a concrete trajectory,
re-evaluated through the trajectory module and required to agree with the
optimizer's internal objective to 1e-10.
"""

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .errors import InputError, InvariantError, SolverError, check_positive
from .potentials import (
    GeneralLagrangian, PeriodicPotential, Perturbation, check_no_atom, eval_potential,
    potential_bounds,
)
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

    Each start takes at most max_iters Newton steps. It stops early once its
    gradient norm is at most 1e-8 or its Newton decrement has reached
    roundoff; it has converged there only if its Hessian is positive
    definite, and a start stopped on a saddle is unconverged. It also stops,
    unconverged, when no step along the Newton direction decreases the
    action, or when a converged start of its problem is lower by more than
    ten times its Newton decrement. The backtracking line search always
    tries the full step first. No solver draws a random start.
    """

    max_iters: int = 400

    def __post_init__(self):
        if self.max_iters < 1:
            raise InputError("max_iters must be >= 1")


@dataclass(frozen=True)
class DPGrid:
    x_lo: float
    x_hi: float
    n_x: int = 401
    n_t: int = 51

    def __post_init__(self):
        if not self.x_lo < self.x_hi:
            raise InputError("need x_lo < x_hi")
        if not math.isfinite(float(self.x_hi) - float(self.x_lo)):  # linspace would overflow
            raise InputError(
                f"the DP state range [{self.x_lo}, {self.x_hi}] is wider than a float holds"
            )
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
        terms = [obj for obj in (V, W) if obj is not None]
        self.gradients = [obj.gradient for obj in terms]
        self.hessians = [obj.hessian for obj in terms]
        self.eps = eps
        self.kinetic = kinetic
        self.weights = weights
        self.tail = tail
        self.last_free = last_free
        # The constants of the derivatives: the sample weights split between an
        # interval's left and right node for the gradient, and their products
        # for the Hessian's (left, left), (right, right) and (left, right) blocks.
        # Each set is stacked, so that one einsum contracts all of them.
        lam = midpoint_offsets(weights.shape[1])
        left, right = weights * (1 - lam), weights * lam
        self.grad_weights = np.stack([left, right])
        self.hess_weights = np.stack([left * (1 - lam), right * lam, left * lam])
        self.kinetic2 = 2 * kinetic
        self.kin_block = self.kinetic2[:, None, None] * np.eye(terms[0].dimension)

    @classmethod
    def eps_action(cls, V, W, eps, times, m):
        widths = np.diff(times)
        return cls(V, W, eps, 1.0 / widths, np.repeat(widths[:, None] / m, m, axis=1))

    def _f(self, y):
        return eval_potential(self.V, self.W, y)

    @staticmethod
    def _sum(derivatives, y):
        """The closed-form derivatives of V and W (when given) at y, added."""
        out = derivatives[0](y)
        for derivative in derivatives[1:]:
            out = out + derivative(y)
        return out

    def _samples(self, x):
        """The midpoint samples of the batch x over eps (B, N - 1, m, d); at
        eps = 1 there is nothing to divide (x / 1.0 is x, bit for bit)."""
        y = interval_samples(x, self.weights.shape[1])
        return y if self.eps == 1.0 else y / self.eps

    def value_and_samples(self, x):
        """(action (B,) of each path of the batch x (B, N, d), the midpoint
        samples over eps it was evaluated at). The samples of a point the
        line search accepts are the ones its derivatives take.

        Each path's rows, here and in the derivatives, depend on its own row
        alone, bit for bit, whatever else is in the batch."""
        y = self._samples(x)
        diffs = x[:, 1:] - x[:, :-1]
        out = ((diffs * diffs).sum(axis=2) * self.kinetic).sum(axis=1)
        out += (self._f(y) * self.weights).sum(axis=(1, 2))
        if self.tail:
            out += self.tail * self._f(x[:, -1] / self.eps)
        return out, y

    def gradient(self, x, y):
        """Gradient (B, N, d) of the batch x, given its samples y."""
        g = self._sum(self.gradients, y)
        if self.eps != 1.0:
            g = g / self.eps
        # One contraction for both weight sets; then, in place,
        # grad[i] = (left[i] - kin[i]) + (right[i - 1] + kin[i - 1]).
        left, right = np.einsum("bnsk,jns->jbnk", g, self.grad_weights)
        kin = self.kinetic2[:, None] * (x[:, 1:] - x[:, :-1])
        grad = np.zeros(x.shape)
        np.subtract(left, kin, out=grad[:, :-1])
        right += kin
        grad[:, 1:] += right
        if self.tail:
            grad[:, -1] += self.tail / self.eps * self._sum(self.gradients, x[:, -1] / self.eps)
        return grad

    def hessian(self, x, y):
        """Hessian of the batch x, given its samples y: (diagonal blocks (B, N,
        d, d), blocks coupling node i to node i + 1 (B, N - 1, d, d))."""
        h = self._sum(self.hessians, y)
        if self.eps != 1.0:
            h = h / self.eps**2
        # One contraction for the three weight sets, summed in place like the gradient.
        left_left, right_right, left_right = np.einsum("bnskl,jns->jbnkl", h, self.hess_weights)
        diag = np.zeros(x.shape + (x.shape[2],))
        np.add(left_left, self.kin_block, out=diag[:, :-1])
        right_right += self.kin_block
        diag[:, 1:] += right_right
        off = left_right
        off -= self.kin_block
        if self.tail:
            diag[:, -1] += self.tail / self.eps**2 * self._sum(self.hessians, x[:, -1] / self.eps)
        return diag, off


@dataclass(frozen=True)
class _Problems:
    """What names the problems of a solve in an error message: eps, the window
    [0, t] and the end values a (P, d) and b (P, d), None for a free far end."""

    eps: float
    t: float
    a: np.ndarray
    b: Optional[np.ndarray] = None

    def __getitem__(self, p):
        return replace(self, a=self.a[p], b=None if self.b is None else self.b[p])

    def __str__(self):
        ends = "" if self.b is None else f", b={self.b.tolist()}"
        window = f"[0.0, {float(self.t)!r}]"
        return f"eps={float(self.eps)!r}, window {window}, a={self.a.tolist()}{ends}"


def _band_store(diag, off):
    """The stacked block tridiagonal matrices diag (B, n, d, d), off (B, n - 1,
    d, d) in LAPACK's upper band storage, a Fortran-ordered (u + 1, B n d)
    array, u = 2 d - 1: row u - (i - j) of column j holds H[i, j]. It is the
    transpose of a C-ordered store (B, n, d, u + 1), indexed [b, node, col]."""
    B, n, d, _ = diag.shape
    u = 2 * d - 1
    store = np.zeros((B, n, d, u + 1))
    for k in range(d):
        for col in range(d):
            if col >= k:
                store[:, :, col, u - (col - k)] = diag[:, :, k, col]
            store[:, 1:, col, u - (d + col - k)] = off[:, :, k, col]
    return store.reshape(B * n * d, u + 1).T


def _newton_steps(diag, off, grad, problems):
    """Solve (H_b + tau_b I) p_b = -g_b per start b; return (p (B, n, d), -g.p (B,), tau (B,)).

    H_b is block tridiagonal over the free nodes: diag (B, n, d, d), off
    (B, n - 1, d, d). The B uncoupled systems form one banded matrix for one
    banded Cholesky (LAPACK dpbtrf, as in scipy.linalg.cholesky_banded).
    tau_b is 0 for a positive definite H_b, else raised as in Nocedal & Wright's
    Algorithm 3.3, the factorization resuming at start b (its predecessors
    are already factored, in place); so tau_b > 0 exactly where H_b does not
    factor. `problems` names them in an error.

    While every diagonal entry is positive, every tau_b starts at 0: the band
    is factored where it was built, and built again for the shifts only if a
    start fails (its columns and those after it are then spoiled).
    """
    from scipy.linalg import lapack

    B, n, d = grad.shape
    size = n * d
    u = 2 * d - 1
    bands = _band_store(diag, off)
    tau = np.zeros(B)
    factor, info = None, 1  # not factored yet
    if bands[u].min() > 0:
        factor = bands
        _, info = lapack.dpbtrf(factor, overwrite_ab=1)
        if info != 0:
            bands = _band_store(diag, off)
    if info != 0:
        main = bands[u].reshape(B, size)
        floor = 1e-3 * np.abs(main).max(axis=1) + np.finfo(float).tiny
        low = main.min(axis=1)
        tau = np.where(low > 0, 0.0, floor - low)
        main += tau[:, None]
    if factor is None:
        # Factored in place; a failed start's (uncoupled) columns come back from bands.
        factor = bands.copy(order="F")
        _, info = lapack.dpbtrf(factor, overwrite_ab=1)
    start = 0
    while info != 0:
        if info < 0:
            raise SolverError(f"banded Cholesky rejected argument {-info} ({problems})")
        b = (start + info - 1) // size
        head = b * size
        bump = max(2 * tau[b], floor[b]) - tau[b]
        tau[b] += bump
        bands[u, head : head + size] += bump
        factor[:, head : head + size] = bands[:, head : head + size]
        start = head
        _, info = lapack.dpbtrf(factor[:, start:], overwrite_ab=1)
    steps, info = lapack.dpbtrs(factor, (-grad).reshape(-1), overwrite_b=1)
    if info != 0:
        raise SolverError(f"banded Cholesky solve failed (info {info}; {problems})")
    steps = steps.reshape(B, n, d)
    return steps, -(steps * grad).sum(axis=(1, 2)), tau


def _every(mask) -> bool:
    """mask.all(), in a third of the time on a few starts."""
    return np.count_nonzero(mask) == mask.size


def _solve(action: _Action, starts, opt: OptimizerSpec, problems: _Problems):
    """Damped Newton from starts (P problems, S starts, N, d), named by `problems`
    in an error; pinned nodes never move.

    Returns, per problem, the value, nodes and solver record {iterations,
    grad_norm (free nodes, final point), converged} of its lowest start.

    Each sweep evaluates the gradients of the starts whose last step was
    accepted, and the Hessians of those that go on or that the gradient test
    stops there; their values, and the
    samples the derivatives need, are the ones the line search accepted, not
    evaluated again. A start that stops without moving (no decrease found,
    or beaten) keeps the value and gradient norm of its last evaluation,
    which is its current point. A mask that keeps every start is not
    applied, and a one-round line search keeps its starts in order.

    A start stopped by the gradient or the roundoff test has converged only
    where its free-node Hessian factors (tau = 0), read from the shift of its
    Newton step: the roundoff test's step is the one it stops on, and a start
    that the gradient test stops joins the band of the starts that go on, from
    the samples its sweep holds, with a step that is not taken.
    """
    P, S, N, _ = starts.shape
    x = starts.reshape((P * S,) + starts.shape[2:]).astype(float)
    free = slice(1, N if action.last_free else N - 1)
    values, y = action.value_and_samples(x)
    if not np.all(np.isfinite(values)):
        p = int(np.flatnonzero(~np.isfinite(values))[0]) // S
        raise SolverError(f"objective not finite at a start trajectory ({problems[p]})")
    gnorm = np.empty(P * S)
    stepped = [np.zeros(0, dtype=int)]  # the starts of each sweep's Newton steps
    done = np.zeros(P * S, dtype=bool)  # stopped by the gradient or roundoff test
    converged = np.zeros(P * S, dtype=bool)  # ... where the Hessian factors
    # The starts to evaluate, those whose last step was accepted: their
    # indices, values, nodes and samples.
    idx, f, xs = np.arange(P * S), values, x
    for sweep in range(opt.max_iters + 1):
        grad = action.gradient(xs, y)[:, free]
        rows = slice(None) if idx.size == P * S else idx
        with np.errstate(over="ignore"):  # a tiny window's roundoff gradient squares past a float
            norms = np.sqrt((grad * grad).sum(axis=(1, 2)))
        for i in np.flatnonzero(np.isinf(norms)):  # ... so its norm is taken without squaring
            norms[i] = math.hypot(*grad[i].ravel())
        gnorm[rows] = norms
        small = norms <= _GRAD_TOL
        fresh = small & ~done[rows]  # stopped by the gradient test now
        stop = done[rows] | small
        done[rows] = stop
        last = sweep == opt.max_iters or _every(stop)
        factored = fresh if last else fresh | ~stop
        if not factored.any():
            break
        if not _every(factored):
            idx, f, xs, y, grad, fresh = (a[factored] for a in (idx, f, xs, y, grad, fresh))
        diag, off = action.hessian(xs, y)
        steps, dec, tau = _newton_steps(
            diag[:, free], off[:, free.start : free.stop - 1], grad, problems
        )
        if fresh.any():
            converged[idx[fresh]] = tau[fresh] == 0
            if last:
                break
            keep = ~fresh
            idx, f, xs, steps, dec, tau = (a[keep] for a in (idx, f, xs, steps, dec, tau))
        if not np.isfinite(dec).all():  # a NaN or inf gradient or Hessian ends here
            p = int(idx[np.flatnonzero(~np.isfinite(dec))[0]]) // S
            raise SolverError(f"Newton decrement not finite ({problems[p]})")
        # A start that a converged start of its problem beats by more than ten
        # of its Newton decrements is near a worse stationary point: stop it.
        # Until a start converges, none is beaten (every f is finite).
        if converged.any():
            lowest = values.reshape(P, S).min(axis=1, initial=np.inf, where=converged.reshape(P, S))
            go = f <= lowest[idx // S] + 10 * dec
            if not _every(go):
                idx, f, xs, steps, dec, tau = (a[go] for a in (idx, f, xs, steps, dec, tau))
        stepped.append(idx)
        at_roundoff = dec <= _ROUNDOFF_DECREMENT * np.maximum(1.0, np.abs(f))
        roundoff = at_roundoff.any()
        if roundoff:
            done[idx] |= at_roundoff
            converged[idx] |= at_roundoff & (tau == 0)
        # Backtracking from the full step; a roundoff-level step is tried once,
        # needing no decrease. An accepted start moves, with the value and
        # samples found here, and is evaluated in the next sweep (a
        # roundoff-level one only for its gradient norm).
        accepted = []
        t = 1.0
        for _ in range(_MAX_HALVINGS):
            cand = xs.copy()
            cand[:, free] += steps if t == 1.0 else t * steps  # 1.0 * steps is steps
            fc, yc = action.value_and_samples(cand)
            armijo = _ARMIJO_C * t * dec
            if roundoff:
                armijo = np.where(at_roundoff, 0.0, armijo)
            ok = np.isfinite(fc) & (fc <= f - armijo)
            every = _every(ok)
            won = (idx, fc, cand, yc) if every else (idx[ok], fc[ok], cand[ok], yc[ok])
            rows = slice(None) if won[0].size == P * S else won[0]
            values[rows], x[rows] = won[1], won[2]
            accepted.append(won)
            if every:
                break
            rest = ~(ok | at_roundoff)
            if not rest.any():
                break
            idx, f, xs, steps, dec, at_roundoff = (
                a[rest] for a in (idx, f, xs, steps, dec, at_roundoff)
            )
            t *= 0.5
        if len(accepted) == 1:
            idx, f, xs, y = accepted[0]
        else:
            idx, f, xs, y = (np.concatenate(parts) for parts in zip(*accepted))
            order = np.argsort(idx)
            idx, f, xs, y = idx[order], f[order], xs[order], y[order]
        if not idx.size:
            break
    best = np.argmin(values.reshape(P, S), axis=1) + S * np.arange(P)
    iters = np.bincount(np.concatenate(stepped), minlength=P * S)
    stats = [
        {"iterations": int(iters[k]), "grad_norm": float(gnorm[k]), "converged": bool(converged[k])}
        for k in best
    ]
    return values[best], x[best], stats


def _start_stack(times, a, b, warm):
    """Starts (K, S, n, d) on times from 0, from a (K, d) to b (K, d): the affine
    start and the warm starts (K, W, n, d), re-pinned."""
    lam = (times / times[-1])[None, :, None]
    affine = a[:, None, :] * (1 - lam) + b[:, None, :] * lam
    warm = np.array(warm, dtype=float)
    warm[:, :, 0] = a[:, None]
    warm[:, :, -1] = b[:, None]
    return np.concatenate([affine[:, None], warm], axis=1)


def check_newton_terms(V: Optional[PeriodicPotential], W: Optional[Perturbation]):
    """Raise InputError unless the Newton minimizers can take V and W: each one
    given declares a closed-form gradient and Hessian, and W has no zero atom,
    which only the DP oracles charge. The registry's indicator_ball, neg_spike
    and parabola_example perturbations fail it; they are for the DP oracles."""
    check_no_atom(W)
    dp = "; use the DP oracles (dp_oracle_1d, dp_oracle_halfline)"
    for obj in (V, W):
        if obj is not None and (obj.gradient is None or obj.hessian is None):
            name = obj.name or type(obj).__name__
            raise InputError(f"{name!r} declares no closed-form gradient and Hessian" + dp)


def check_node_count(n_nodes, eps, t):
    """Raise InputError, naming eps and the window [0, t], unless a path has
    2 to 2^20 nodes; callers check before they build any node array. The count
    may be a float, even inf, and the message gives 15 digits at most."""
    if not 2 <= n_nodes <= 2**20:
        raise InputError(
            f"need 2 to 2^20 nodes, got {n_nodes:.15g} (eps={eps}, window [0.0, {t}])"
        )


def eps_node_count(per_unit, eps, least, t) -> int:
    """max(least, int(per_unit * t / eps) + 9) nodes for a path on [0, t], once
    _check_window passes, checked (check_node_count) while a float: no int() of inf."""
    _check_window(t, eps)
    count = max(least, np.floor(per_unit * float(t) / float(eps)) + 9)
    check_node_count(count, eps, t)
    return int(count)


def _check_window(t, eps):
    """Every solver's rule, checked before anything is built: the window [0, t]
    (the Lagrangian does not depend on time) and eps are positive and finite."""
    check_positive("t", t)
    check_positive("eps", eps)


def _certify(values, checks, what, problems):
    """InvariantError naming the first problem whose value and check differ beyond 1e-10."""
    for p, (value, check) in enumerate(zip(values, checks)):
        if abs(check - value) > 1e-10 * max(1.0, abs(check)):
            raise InvariantError(
                f"optimizer objective {value!r} and {what} {check!r} disagree ({problems[p]})"
            )


def minimize_bvp(
    V: Optional[PeriodicPotential],
    W: Optional[Perturbation],
    eps: float,
    t: float,
    a,
    b,
    n_nodes: int,
    opt: OptimizerSpec,
    quad: QuadratureSpec = QuadratureSpec(),
    warm_starts: Sequence[Trajectory] = (),
):
    """Minimize the eps-action over paths on [0, t] with u(0) = a, u(t) = b pinned;
    t and eps must be positive and finite (_check_window).

    Returns (trajectory, value); the value is re-evaluated through the
    trajectory module and certified against the internal objective to 1e-10.
    The trajectory's meta holds the winning start's solver record
    {iterations, grad_norm, converged}.
    """
    return _minimize_pinned(V, W, eps, t, a, b, n_nodes, opt, quad, warm_starts)


def _minimize_pinned(V, W, eps, t, a, b, n_nodes, opt, quad, warm_starts):
    a = np.atleast_1d(np.asarray(a, dtype=float))
    _, certified, nodes, times, stats = _solve_pinned(
        V, W, eps, t, a[None], b, n_nodes, opt, quad, [warm_starts]
    )
    return Trajectory(times, nodes[0], meta=stats[0]), certified[0]


def minimize_bvp_batch(
    V: PeriodicPotential,
    W: Optional[Perturbation],
    eps: float,
    t: float,
    a_batch: np.ndarray,
    b,
    n_nodes: int,
    opt: OptimizerSpec,
    quad: QuadratureSpec = QuadratureSpec(),
    warm_starts_per_problem: Optional[Sequence] = None,
    records: Optional[list] = None,
):
    """minimize_bvp for P problems on one window [0, t], u(0) = a_batch[p] (P, d)
    and u(t) = b (d,) or b[p] (P, d), in one stacked solve.

    Each problem gets the affine start and its warm starts (trajectories,
    resampled, or node arrays on the grid; one sequence per problem, all of
    one length; endpoints re-pinned), and nothing else. Returns
    (values (P,), nodes (P, n_nodes, d), times), each value the solver's own
    and certified like minimize_bvp's. Given a list as `records`,
    the winners' solver records {iterations, grad_norm, converged} are
    appended to it, one per problem (an out-parameter, so that callers and
    the benchmark's tracing keep unpacking three values).
    """
    values, _, nodes, times, stats = _solve_pinned(
        V, W, eps, t, a_batch, b, n_nodes, opt, quad, warm_starts_per_problem
    )
    if records is not None:
        records.extend(stats)
    return values, nodes, times


def _solve_pinned(V, W, eps, t, a_batch, b, n_nodes, opt, quad, warm):
    """minimize_bvp_batch: (the solver's values, the certified ones, nodes,
    times, the winning starts' solver records). Each winner is re-evaluated
    through action_G, which must agree with the solver's value to 1e-10."""
    if V is None:
        raise InputError("a periodic potential is required (use the zero potential)")
    check_newton_terms(V, W)
    check_node_count(n_nodes, eps, t)
    _check_window(t, eps)
    a_batch = np.asarray(a_batch, dtype=float)
    a_batch = a_batch.reshape(len(a_batch), -1)
    n_problems, d = a_batch.shape
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if b.shape not in ((d,), (n_problems, d)):
        raise InputError("b must have shape (d,) or (problems, d)")
    b = np.broadcast_to(b, (n_problems, d))
    times = np.linspace(0.0, t, n_nodes)

    warm = [()] * n_problems if warm is None else warm
    if len(warm) != n_problems:
        raise InputError("need one warm-start list per problem")
    warm = [[_warm_nodes(u, times, (n_nodes, d)) for u in w] for w in warm]
    if len({len(w) for w in warm}) > 1:
        raise InputError("every problem must receive the same number of warm starts")
    warm = np.array(warm, dtype=float).reshape(n_problems, len(warm[0]), n_nodes, d)
    starts = _start_stack(times, a_batch, b, warm)
    action = _Action.eps_action(V, W, eps, times, quad.samples_per_interval)
    problems = _Problems(eps, t, a_batch, b)
    values, nodes, stats = _solve(action, starts, opt, problems)
    certified = [action_G(Trajectory(times, x), V, W, eps, quad) for x in nodes]
    _certify(values, certified, "trajectory action", problems)
    return values, certified, nodes, times, stats


def _warm_nodes(u, times, shape):
    """A new array of a warm start's nodes on `times`, checked to have `shape`."""
    path = np.array(u.resample(times).nodes if isinstance(u, Trajectory) else u, dtype=float)
    if path.shape != shape:
        raise InputError(f"warm start of shape {path.shape}, expected {shape}")
    return path


def minimize_lagrangian_bvp(
    L: GeneralLagrangian,
    t: float,
    a,
    b,
    n_nodes: int,
    opt: OptimizerSpec,
    quad: QuadratureSpec = QuadratureSpec(),
):
    """Minimize integral of L(u, u') over paths on [0, t] with u(0) = a, u(t) = b.

    Solves, and certifies, like minimize_bvp at eps = 1 on L's V and W.
    """
    return _minimize_pinned(L.V, L.W, 1.0, t, a, b, n_nodes, opt, quad, ())


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
    constant, whose exact tail cost is part of the objective. lam, T_max and
    eps must be positive and finite. Starts: the
    constant path and the warm starts (trajectories, resampled, or node
    arrays on the grid; first node re-pinned to x0), and nothing else. The
    trajectory's meta holds the tail weight and the solver record.
    """
    check_newton_terms(V, W)
    check_positive("lam", lam)
    _check_window(T_max, eps)
    if T_max < 5.0 / lam:
        raise InputError("T_max must be at least 5/lam")
    check_node_count(n_nodes, eps, T_max)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    times = np.linspace(0.0, T_max, n_nodes)
    weights = exp_interval_weights(sub_interval_edges(times, quad.samples_per_interval), lam)
    tail_w = float(np.exp(-lam * T_max) / lam)
    kinetic = exp_interval_weights(times, lam) / np.diff(times) ** 2
    action = _Action(V, W, eps, kinetic, weights, tail_w, last_free=True)

    starts = [np.repeat(x0[None, :], n_nodes, axis=0)]
    for u in warm_starts:
        path = _warm_nodes(u, times, starts[0].shape)
        path[0] = x0
        starts.append(path)

    problems = _Problems(eps, T_max, x0[None])
    values, nodes, stats = _solve(action, np.stack(starts)[None], opt, problems)
    traj = Trajectory(times, nodes[0], meta={"tail_weight": tail_w, **stats[0]})
    check = discounted_action(traj, V, W, eps, lam, quad)
    _certify(values, [check], "discounted action", problems)
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


def _squared_slopes(slopes, t):
    """slopes * slopes, or InputError naming the window [0, t] where a square
    passes the largest float (a tiny window's); callers check before they sweep."""
    with np.errstate(over="ignore"):
        kinetic = slopes * slopes
    if not np.isfinite(kinetic).all():
        raise InputError(
            f"the lattice slopes on the window [0.0, {t}] reach {np.max(np.abs(slopes)):.3g}, "
            "whose square no float holds"
        )
    return kinetic


def _default_slope_set(slope_bc: float):
    span = 4.0 * abs(slope_bc) + 2.0
    return np.linspace(-span, span, 41)


def _lattice_costs(V, W, eps, states):
    """(V + W)(x / eps) at the states, and W's zero atom at the state 0 (None without one).

    Raises SolverError when a state's cost is NaN or -inf. The sweep skips
    states whose value is still +inf or that cannot reach the read-out span;
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
            f"DP stage cost at eps={float(eps)!r}, state {i} (x = {float(states[i])!r}) "
            f"is {float(stay[i])!r}"
        )
    return cost, atom_cost


# A bounded sweep tests its cone every this many steps. A test costs about
# what a min-plus step costs on a cone a few thousand state-moves wide, while
# the cone grows by only kmax - kmin states a step between tests. Of 1, 2, 4,
# 8 and 16, testing every step was the slowest on four sweeps that prune
# nearly all, most, or a third of their cone, and 8 was within 3% of the
# fastest on each.
_PRUNE_EVERY = 8


def _dp_sweep(
    value, lo, hi, moves, stages, n_steps, span, weights=None, atom=None, bound=None,
    history=False,
):
    """Run n_steps backward lattice steps from `value`, for P problems at once:
    value (P, n_x), finite only on states lo..hi, not modified; a value (n_x,)
    is one problem, and the result then has no problem axis.

    A step takes, at each state i of each problem, the best over moves k of
    the stage cost of i plus the problem's value at i + k. stages (M, n_x)
    holds move m's stage cost at every state, shared by the problems. Or
    stages is a function: stages(i0, i1) gives the stage costs (P, M, i1 - i0)
    of the states i0..i1 - 1, each problem's own. The sweep then holds only
    the block of states around its cone, and asks for one three times the
    cone's width, centred on it, when the cone leaves the block, so it never
    holds P tables of n_x states for a narrow cone. A stage is charged as it
    is, or, given `weights` (one per step, in sweep order, >= 0; a zero
    weight needs finite stages, as 0 * inf is NaN), as weights[j] * stage,
    plus weights[j] * atom[p, i] when staying (atom (P, n_x), or (n_x,) for
    one problem).

    The result is read at the states `span` (first, last). Each step sweeps
    only its cone: the states whose value can be finite (grown from lo..hi by
    the moves) that can reach the span in at most the `left` steps still to
    sweep, first + left min(kmin, 0) .. last + left max(kmax, 0). A cone state
    reads only states of the cone before it, so each step's value is the
    full-grid sweep's, span (0, n_x - 1), bit for bit on its cone and +inf off it.

    A one-state span may also take a `bound` (limit, kinetic, rate, names),
    given by dp_oracle_1d, with limit and rate one per problem (+inf and 0 for
    a problem it does not prune) and names one label per problem for errors.
    With left > 0, the steps that lead from first to a state i cost problem p
    at least kinetic (i - first)^2 / left + left rate[p], and some path costs
    it at most limit[p]. When left is a multiple of _PRUNE_EVERY, the cone
    shrinks to the first and last state that some problem keeps, a state that
    its value plus that lower bound puts at most at its limit; the states
    dropped are set to +inf. No state of a problem's optimal path fails its
    test (see dp_oracle_1d), and states kept for the other problems only add
    paths, so each problem's value at first is the float its own sweep, and
    the full cone, give.

    A step is one stacked min-plus operation: the candidates C[p, m, i] of all
    problems and moves over the cone are formed at once, the value at i + k
    read through a sliding window over a +inf-padded value buffer (whose
    states outside the previous cone are +inf, so they never win), and
    reduced over m by one `np.minimum.reduce` (without np.min's Python
    wrapper, a third of a narrow step). C is the first P M w entries of one
    scratch, for a cone w states wide, grown to twice that when it is too
    small, so a narrow cone touches little memory. The steps alternate between two
    buffers, or, given `history`, each step writes a fresh row of one buffer,
    so every step's value is kept. Each buffer's windows and value view are
    built once, before the steps.

    Returns the values after the last step (P, n_x), or, given `history`, the
    (n_steps + 1, P, pad + n_x + max(0, kmax)) buffer: row j holds the values
    after j steps, state i at column pad + i, pad = max(0, -kmin), and +inf in
    the padding. _backtrack reads the lattice paths of one problem from it.
    """
    single = np.ndim(value) == 1
    value = np.atleast_2d(value)
    n_problems, n_x = value.shape
    if atom is not None:
        atom = np.atleast_2d(atom)
    ks = moves.tolist()  # Python ints: the window bounds are scalar arithmetic
    kmin, kmax, n_moves = ks[0], ks[-1], len(ks)
    first, last = (int(i) for i in span)
    pad = max(0, -kmin)  # state i of a value buffer sits at pad + i
    bufs = np.full((n_steps + 1 if history else 2, n_problems, pad + n_x + max(0, kmax)), np.inf)
    bufs[0, :, pad + lo : pad + hi + 1] = value[:, lo : hi + 1]
    values = list(bufs[:, :, pad : pad + n_x])
    # windows[b][p, r, i] is buffer b's state i + r - pad of problem p: move m
    # reads r = pad + ks[m]; contiguous moves are a slice, taken here once
    windows = np.lib.stride_tricks.sliding_window_view(bufs, n_x, axis=2)
    rows = moves + pad
    if kmax - kmin + 1 == n_moves:
        windows, rows = [w[:, kmin + pad : kmax + pad + 1] for w in windows], slice(None)
    stay = ks.index(0) if atom is not None and 0 in ks else None
    scratch = np.empty(0)
    # the stage block and the states it covers, block_lo..block_hi - 1
    block, block_lo, block_hi = (None, 0, 0) if callable(stages) else (stages, 0, n_x)
    if bound is not None:
        limit, kinetic, rate, names = bound
        limit, rate = (np.asarray(x, dtype=float)[:, None] for x in (limit, rate))
        square = (np.arange(n_x, dtype=float) - first) ** 2
    cur = 0
    stale_lo, stale_hi = 0, -1  # the cone that the buffer written next holds
    for j in range(n_steps):
        left = n_steps - 1 - j
        new_lo = max(lo - kmax, 0, first + left * min(kmin, 0))
        new_hi = min(hi - kmin, n_x - 1, last + left * max(kmax, 0))
        if new_hi < new_lo:  # no finite value can reach the span any more
            if not history:
                values[cur][:] = np.inf
            break
        nxt = (j + 1) % len(bufs)
        if not history:
            values[nxt][:, stale_lo : stale_hi + 1] = np.inf
        a, b = new_lo, new_hi + 1
        size = n_problems * n_moves * (b - a)
        if scratch.size < size:
            scratch = np.empty(min(2 * size, n_problems * n_moves * n_x))
        c = scratch[:size].reshape(n_problems, n_moves, b - a)
        if a < block_lo or b > block_hi:
            block_lo, block_hi = max(0, 2 * a - b), min(n_x, 2 * b - a)
            block = stages(block_lo, block_hi)
        step = block[..., a - block_lo : b - block_lo]
        if weights is not None:
            step = np.multiply(weights[j], step, out=c)
            if stay is not None:
                np.add(c[:, stay], weights[j] * atom[:, a:b], out=c[:, stay])
        np.add(step, windows[cur][:, rows, a:b], out=c)
        out = values[nxt][:, a:b]
        np.minimum.reduce(c, axis=1, out=out)
        if bound is not None and left > 0 and left % _PRUNE_EVERY == 0:
            keep = out + (kinetic / left) * square[a:b] <= limit - left * rate
            if not keep.all():
                hit = keep.any(axis=1)
                if not hit.all():  # the states of the path that gave limit pass
                    raise InvariantError(
                        "the DP bound dropped every state of the cone at "
                        + names[int(np.argmin(hit))]
                    )
                kept = np.flatnonzero(keep.any(axis=0))
                out[:, : kept[0]] = np.inf
                out[:, kept[-1] + 1 :] = np.inf
                new_lo, new_hi = a + int(kept[0]), a + int(kept[-1])
        cur = nxt
        stale_lo, stale_hi = lo, hi
        lo, hi = new_lo, new_hi
    result = bufs if history else values[cur]
    if single:
        result = result[:, 0] if history else result[0]
    return result


def _backtrack(history, start, n, moves, stages, weights):
    """The lattice paths (n + 1, P) that leave the states `start` (P,) at
    history row n (see _dp_sweep; no atom) and follow the sweep's steps back to
    row 0.

    A path in state i at row r takes the first least of its M candidates,
    recomputed from stages and row r - 1 with the sweep's own roundings
    (weights[r - 1] * stage, then + the value at i + k). They are the floats
    the sweep reduced, so the least is the value at i in row r, and its first
    move is the one a strict `<` scan over the moves keeps. Each start must
    have a finite value at row n; no candidate of a finite value is NaN.
    """
    offsets = max(0, -int(moves[0])) + moves[:, None]
    path = np.empty((n + 1, start.size), dtype=int)
    path[0] = at = start
    for j in range(n):
        r = n - j
        c = stages.take(at, axis=1)
        if weights is not None:
            c *= weights[r - 1]
        c += history[r - 1].take(offsets + at)
        at = at + moves.take(c.argmin(axis=0))
        path[j + 1] = at
    return path


def dp_oracle_1d(
    V: PeriodicPotential,
    W: Optional[Perturbation] | Sequence[Optional[Perturbation]],
    eps: float | Sequence[float],
    t: float,
    a: float,
    b: float,
    grid: DPGrid,
    slope_set=None,
) -> float | list:
    """Exact minimum of the discrete eps-action over lattice paths on [0, t], for
    one problem or a stack of them; t and each eps must be positive and finite.

    States live on the grid, admissible moves are the lattice-realizable
    slopes derived from slope_set, and each step costs h * (slope^2 +
    (V+W)(x/eps)) at the source state. Endpoints are pinned to the nearest
    grid states. A zero_atom on W is charged exactly for steps that stay at
    the state 0 (present on the grid whenever the range is symmetric with an
    odd state count). Each step sweeps only the reachable cone: the states
    already reachable from b that can still reach a in the steps left. A NaN
    or -inf cost raises SolverError; a +inf cost forbids its state.

    W and eps may each be a sequence with one entry per problem; a single W
    or eps is shared. The P problems share V, the window, the ends, the grid
    and the moves, so one sweep (_dp_sweep) takes them all: each step sweeps
    the union of their cones. Each problem's cost row (n_x,) is held, and the
    sweep asks for its stages, h (slope^2 + cost), then + h atom on the stay
    move, only on a block of states around its cone: the floats a whole
    (M, n_x) stage table would hold there. Returns a float, or, given a
    sequence, a list of P floats. An error names the problem's eps and W.

    The sweep is also bound-pruned, each problem by its own bound (see
    _dp_sweep). Its limit is the cost of the straight lattice path from a to b
    (_straight_path) plus a margin of 1e-9 (n_steps * stage size + 1); without
    that path (a move it needs is not admissible, or it crosses a +inf state)
    the problem is not pruned. The r steps from a to a state i cost at least
    (dx^2 / h) (i - ia)^2 / r, by Jensen on the kinetic sum, plus
    r h min(cost, cost + atom). Along an optimal path, value plus bound is at
    most the optimum, which is at most the straight path's cost; rounding
    moves either side by far less than the margin. So no state of an optimal
    path is dropped. Dropping other states can only raise values, and keeping
    more (for the other problems of a stack) can only lower them to the full
    cone's; each state of that path keeps its optimal move, so each value at a
    is the one the full cone, and the problem's own call, give, bit for bit,
    ties included.
    """
    stacked = isinstance(W, (list, tuple)) or np.ndim(eps) > 0
    Ws = list(W) if isinstance(W, (list, tuple)) else [W]
    epss = [float(e) for e in np.atleast_1d(eps)]
    for e in epss:
        _check_window(t, e)
    states = grid.states()
    if not (grid.x_lo <= a <= grid.x_hi and grid.x_lo <= b <= grid.x_hi):
        raise InputError("boundary values must lie inside the DP state range")
    n_problems = max(len(Ws), len(epss), 1)
    if len(Ws) not in (1, n_problems) or len(epss) not in (1, n_problems):
        raise InputError("W and eps must each be one value or one per problem, as many of each")
    Ws, epss = Ws * (n_problems // len(Ws)), epss * (n_problems // len(epss))
    names = [f"eps={e!r}, W={None if w is None else w.name!r}" for w, e in zip(Ws, epss)]
    dx = states[1] - states[0]
    h = t / (grid.n_t - 1)
    if slope_set is None:
        slope_set = _default_slope_set((b - a) / t)
    moves, slopes = _lattice_moves(slope_set, h, dx, grid.n_x)
    kinetic = _squared_slopes(slopes, t)

    costs, atoms = zip(*(_lattice_costs(V, w, e, states) for w, e in zip(Ws, epss)))
    stay, stacked_cost = moves == 0, np.stack(costs)[:, None, :]
    with_atom = [p for p, atom in enumerate(atoms) if atom is not None]

    def stages(i0, i1):  # h (slope^2 + cost), then + h atom on the stay move
        block = h * (kinetic[:, None] + stacked_cost[..., i0:i1])
        for p in with_atom:
            block[p, stay] += h * atoms[p][i0:i1]
        return block

    ib = int(np.argmin(np.abs(states - b)))
    ia = int(np.argmin(np.abs(states - a)))
    n_steps = grid.n_t - 1
    path = _straight_path(moves, ia, ib, n_steps)
    limits, rates = np.full(n_problems, np.inf), np.zeros(n_problems)
    for p, (cost, atom) in enumerate(zip(costs, atoms)):
        limit = math.inf
        if path is not None:  # the floats stages() gives, one move a step
            m, at = path
            stage = h * (kinetic[m] + cost[at])
            if atom is not None:
                stage[stay[m]] += h * atom[at[stay[m]]]
            limit = float(np.sum(stage))
        if not math.isfinite(limit):  # no straight path, or it crosses a +inf state
            continue
        atom = 0.0 if atom is None else atom
        # The stage size: no part of a stage (h slope^2, h cost, h atom) is
        # larger, so a stage whose parts cancel still has its rounding covered.
        size = np.max(kinetic) + np.max(np.abs(cost[np.isfinite(cost)]))
        size = h * float(size + np.max(np.abs(atom)))
        rates[p] = h * float(np.min(cost + np.minimum(atom, 0.0)))
        limits[p] = limit + 1e-9 * (n_steps * size + 1.0)
    bound = (limits, dx * dx / h, rates, names) if np.isfinite(limits).any() else None
    value = np.full((n_problems, grid.n_x), np.inf)
    value[:, ib] = 0.0
    result = _dp_sweep(value, ib, ib, moves, stages, n_steps, (ia, ia), bound=bound)[:, ia]
    failed = np.flatnonzero(~np.isfinite(result))
    if failed.size:
        raise SolverError(
            f"DP could not connect the boundary states with the given slopes at {names[failed[0]]}"
        )
    values = [float(v) for v in result]
    return values if stacked else values[0]


def _straight_path(moves, ia, ib, n_steps):
    """The straight lattice path from state ia to ib, as (the index into
    `moves` of each step's move, the state each step leaves), or None if one of
    its moves is not in `moves`: after s steps it is at
    ia + floor(s (ib - ia) / n_steps), so it takes moves q and q + 1,
    q = floor((ib - ia) / n_steps)."""
    at = ia + np.arange(n_steps + 1) * (ib - ia) // n_steps
    ks = np.diff(at)
    m = np.minimum(np.searchsorted(moves, ks), moves.size - 1)
    if not np.array_equal(moves[m], ks):
        return None
    return m, at[:-1]


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
    forbids its state. lam, T_max and eps must be positive and finite.
    """
    check_positive("lam", lam)
    _check_window(T_max, eps)
    states = grid.states()
    if not grid.x_lo <= x0 <= grid.x_hi:
        raise InputError("x0 must lie inside the DP state range")
    dx = states[1] - states[0]
    h = T_max / (grid.n_t - 1)
    if slope_set is None:
        slope_set = _default_slope_set(0.0)
    moves, slopes = _lattice_moves(slope_set, h, dx, grid.n_x)
    kinetic = _squared_slopes(slopes, T_max)

    cost, atom_cost = _lattice_costs(V, W, eps, states)
    weights = exp_interval_weights(np.linspace(0.0, T_max, grid.n_t), lam)

    value = (cost if atom_cost is None else cost + atom_cost) * (np.exp(-lam * T_max) / lam)
    ix = int(np.argmin(np.abs(states - x0)))
    result = _dp_sweep(
        value, 0, grid.n_x - 1, moves, kinetic[:, None] + cost, grid.n_t - 1,
        (ix, ix), weights[::-1], atom_cost,
    )[ix]
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
# The seed sweep keeps every step's value (_dp_sweep's float64 history), in at
# most this many bytes: 2^25 entries.
_SEED_HISTORY_BYTES = 2**28


def _step_count(read_at, horizon, fewest, most):
    """The least n in fewest..most that puts every t of read_at on a step, t * n /
    horizon within 1e-9 of an integer, or None. Counts are tested in blocks of
    1024, so a search that finds none builds no array of the counts."""
    t = np.asarray(read_at, dtype=float)[:, None]
    for first in range(fewest, most + 1, 1024):
        steps = t * np.arange(first, min(first + 1024, most + 1)) / horizon
        hit = np.flatnonzero(np.all(np.abs(steps - np.rint(steps)) < 1e-9, axis=0))
        if hit.size:
            return first + int(hit[0])
    return None


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

    The sweep keeps its history (_dp_sweep), swept toward the span from the
    least to the greatest state of x, and each read-out's paths are
    backtracked from it (_backtrack). It takes the least step count, from the
    fewest that keep the slope step, that puts every t of read_at on a step
    (_step_count). A count above the fewest divides dx by the whole part of
    its slope step dx/h over 1/16 (within 1e-9), which brings the slope step
    back below 1/8 (to 1/16 when it is a whole multiple) and keeps dx a whole
    fraction of the least y spacing. The history must fit in 2^28 bytes: a
    lattice whose fewest steps do not is refused with an InputError naming
    eps, and read-out times that no count within it puts on a step, on the
    refined lattice, with one naming the time, both before any array of the
    lattice's size is built; a float lower bound of the first, checked at each
    dx before the grid, refuses a lattice too large to count (its bound inf).

    Returns ({states, steps, moves}, states, [(values at x, paths) per read-out]).
    """
    if V.dimension != 1:
        raise InputError("the lattice DP seeds of the HJ solvers need d = 1")
    lower, upper = potential_bounds(V, W)
    spread = upper - lower
    if not math.isfinite(spread):
        raise InputError("the lattice DP seeds need V + W with finite bounds")
    dx = float(eps) / _SEED_STATES_PER_EPS
    if lam is None:
        origin, lo, hi = y[0], min(np.min(x), y[0]), max(np.max(x), y[-1])
    else:
        margin = math.sqrt((math.e - 1.0) * spread) / lam
        origin, lo, hi = 0.0, np.min(x) - margin, np.max(x) + margin

    def refuse_past_budget(nbytes):
        if not nbytes <= _SEED_HISTORY_BYTES:
            raise InputError(f"the lattice DP seeds at eps={eps!r} may need {nbytes:.3g} "
                             "bytes of history, more than 2^28")

    # A float lower bound of the fewest steps' history (inf past any float), at each dx.
    span = float(hi) - float(lo)
    refuse_past_budget(8.0 * (float(horizon) * _SEED_SLOPE_STEP / dx) * (span / dx))
    if lam is None and y.size > 1:  # a whole fraction of the least y spacing: each y is one state
        dx = float(np.min(np.diff(y))) / math.ceil(float(np.min(np.diff(y))) / dx)
        refuse_past_budget(8.0 * (float(horizon) * _SEED_SLOPE_STEP / dx) * (span / dx))

    def grid(dx):  # (first, n_x, the states of x and of y, the farthest x from a y, slope bound)
        first = math.floor((lo - origin) / dx)
        n_x = max(math.ceil((hi - origin) / dx), first + 1) - first + 1
        base = origin + dx * first  # states[0], built once the guards below have passed
        start = np.rint((np.asarray(x) - base) / dx).astype(int)
        if lam is not None:
            return first, n_x, start, None, 0, math.sqrt(2.0 * spread)
        iy = np.rint((y - base) / dx).astype(int)
        near = int(np.max(np.min(np.abs(start[:, None] - iy[None, :]), axis=1)))
        t0 = read_at[0]
        max_slope = math.sqrt((near * dx / t0) ** 2 + float(np.ptp(phi)) / t0 + 2.0 * spread)
        return first, n_x, start, iy, near, max_slope

    first, n_x, start, iy, near, max_slope = grid(dx)

    def reach(n):  # the longest move at n steps; every x reaches a y by read_at[0]
        h = horizon / n
        return max(math.ceil(max_slope * h / dx), -(-near // max(1, round(read_at[0] / h))))

    def history_bytes(n):  # moves shorter than n_x: |k| <= min(reach, n_x - 1)
        return 8 * (n + 1) * (n_x + 2 * min(reach(n), n_x - 1))

    fewest = math.ceil(horizon * _SEED_SLOPE_STEP / dx)
    refuse_past_budget(history_bytes(fewest))
    n_steps = _step_count(read_at, horizon, fewest, _SEED_HISTORY_BYTES // (8 * n_x) - 1)
    if n_steps is not None and n_steps > fewest:  # refine dx to keep the slope step
        dx /= max(1, math.floor(dx * n_steps / (horizon * _SEED_SLOPE_STEP) + 1e-9))
        first, n_x, start, iy, near, max_slope = grid(dx)
    if n_steps is None or not history_bytes(n_steps) <= _SEED_HISTORY_BYTES:
        t = next(t for t in read_at if _step_count([t], horizon, fewest, fewest) is None)
        raise InputError(
            f"the lattice DP seeds at eps={eps!r} need more than 2^28 bytes of history "
            f"to put t={float(t)!r} on a step"
        )
    h = horizon / n_steps
    counts = [max(1, round(t / h)) for t in read_at]
    states = origin + dx * np.arange(first, first + n_x)
    cost, _ = _lattice_costs(V, W, eps, states)
    if lam is None:
        value = np.full(n_x, np.inf)
        value[iy] = phi
        lo, hi, weights = int(iy[0]), int(iy[-1]), None
    else:
        value = cost * (np.exp(-lam * horizon) / lam)
        lo, hi = 0, n_x - 1
        weights = exp_interval_weights(np.linspace(0.0, horizon, n_steps + 1), lam)[::-1]

    longest = reach(n_steps)
    moves, slopes = _lattice_moves(np.arange(-longest, longest + 1) * dx / h, h, dx, n_x)
    kinetic = _squared_slopes(slopes, horizon)
    cum = np.concatenate(([0.0], np.cumsum(0.5 * (cost[1:] + cost[:-1]))))
    # A move off the grid reads the sweep's +inf padding, so its stage is never
    # charged; a finite one keeps 0 * stage from being NaN where a weight underflows.
    stages = np.zeros((moves.size, n_x))
    for m, k in enumerate(moves.tolist()):
        src = slice(max(0, -k), n_x - max(0, k))
        stages[m, src] = (cum[max(0, k) : n_x + min(0, k)] - cum[src]) / k if k else cost
    stages += kinetic[:, None]
    if lam is None:
        stages *= h
    span = (start.min(), start.max())
    history = _dp_sweep(value, lo, hi, moves, stages, n_steps, span, weights=weights, history=True)
    pad = max(0, -int(moves[0]))
    seeds = []
    for n in counts:
        read = history[n, pad + start]
        if not np.all(np.isfinite(read)):
            raise SolverError("the lattice DP reached no y from a grid point")
        seeds.append((read, _backtrack(history, start, n, moves, stages, weights)))
    return {"states": n_x, "steps": n_steps, "moves": int(moves.size)}, states, seeds


def _seed_nodes(states, path, times):
    """State paths (n + 1, P) as node arrays (P, len(times), 1), the lattice
    times stretched over [times[0], times[-1]]."""
    knots = np.linspace(times[0], times[-1], path.shape[0])
    return np.stack([np.interp(times, knots, states[p])[:, None] for p in path.T])
