"""Time each lattice DP sweep, damped-Newton solve, exact cell pass and tube average that the benchmark workloads run.

Run from anywhere; the homoglab sources of the checkout that holds this
script are the ones imported:

    python tools/time_layers.py --seed 7

The workload configs are generated by bench/workloads.py at the given seed
(read from there, never changed). One pass over the runner calls of all four
workloads captures every call of four kernels:

- `homoglab.minimize._dp_sweep`, with a copy of its start value;
- `homoglab.minimize._solve`, with its action and a copy of its starts;
- `homoglab.cell.cell_value_1d`, the exact d = 1 cell values that every
  d = 1 table and every separable value reads;
- `homoglab.experiments.cylinder_average`, the binding the conditions runner
  calls.

Once the pass is done, each captured call is run again 9 times, and one table
per kernel gives one line per call, each time the least CPU time
(`time.process_time`) of the 9 runs: on a shared machine the least is the
run that other processes disturbed least, and CPU time leaves out the time
the process waited. Each line:

- a DP sweep's size (states, moves, problems, steps), the span of states
  its result is read at, which of weights / bound it used, `visited` (the
  share of its problems x steps x states that its cone kept: the states each
  step's min-plus reduced, summed over the problems and steps), the MB of
  its history buffer (or no history), and the time in ms;
- a Newton solve's size (nodes, dimension, problems x starts), its Newton
  sweeps (its calls of the action's `gradient`), and the time in ms,
  whole and split into the action's derivatives (`gradient` and
  `hessian`), the banded Newton solves, the line search (every call of
  `value_and_samples`: the trial steps and the starts' first values) and
  the rest of `_solve` (its bookkeeping), then the whole time per sweep in
  us (total / sweeps). Each call is charged to its outermost part;
- an exact cell pass's slope count, its distinct nonzero speeds (one
  energy root each per level), the double-exponential levels it built
  (first..last, each level's step 2^-level) and the time in ms;
- a tube average's direction, R, its rule and the time in ms. A W with a
  closed form `tube_average` reads `exact`, with the parabola's radial
  panels and Gauss-Legendre nodes. A sampled W reads `sampled` (no workload
  tube is sampled).

No benchmark span isolates one sweep, one solve or one exact pass, and the
`potentials.cylinder_average` span sums a workload's calls, so this is how
each of these layers is measured on its own.
"""

import argparse
import inspect
import os
import sys
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The benchmark pins BLAS to one thread; so does this script, before NumPy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402
from homoglab import cell, experiments, minimize, potentials  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("tables", "stability", "hj", "lattice")
REPEATS = 9
# (module, name, the arguments copied when captured, as the kernel may change them)
KERNELS = (
    (minimize, "_dp_sweep", ("value",)),
    (minimize, "_solve", ("starts",)),
    (cell, "cell_value_1d", ()),
    (experiments, "cylinder_average", ()),
)
PARTS = ("derivatives", "band solve", "line search", "bookkeeping")


def capture(seed):
    """Run the workloads' runner calls once; returns {kernel name: [(call label,
    {argument: value})]}, one entry per call, in call order."""
    calls = {name: [] for _, name, _ in KERNELS}
    originals = [getattr(module, name) for module, name, _ in KERNELS]
    label = None

    def recording(name, kernel, copied):
        signature = inspect.signature(kernel)

        def wrapper(*args, **kwargs):
            arguments = signature.bind(*args, **kwargs)
            arguments.apply_defaults()
            call = dict(arguments.arguments)
            call.update({key: call[key].copy() for key in copied})
            calls[name].append((label, call))
            return kernel(*args, **kwargs)

        return wrapper

    for (module, name, copied), kernel in zip(KERNELS, originals):
        setattr(module, name, recording(name, kernel, copied))
    try:
        for workload in WORKLOADS:
            for config, runner, raw in workloads.configs(workload, seed):
                label = f"{workload}/{config}"
                getattr(experiments, runner)(experiments.ExperimentConfig.from_dict(raw), threads=1)
    finally:
        for (module, name, _), kernel in zip(KERNELS, originals):
            setattr(module, name, kernel)
    return calls


def min_ms(kernel, arguments):
    """The least CPU time over REPEATS runs of kernel(**arguments()), in ms;
    arguments is called before each run, outside the timing."""
    times = []
    for _ in range(REPEATS):
        kwargs = arguments()
        tic = time.process_time()
        kernel(**kwargs)
        times.append(time.process_time() - tic)
    return 1e3 * min(times)


class _CountingNumPy:
    """NumPy as `minimize.np` during one sweep, except that np.minimum.reduce
    adds the size of its output, one step's cone, to `states`."""

    def __init__(self):
        self.states = 0
        self.minimum = types.SimpleNamespace(reduce=self._reduce)

    def __getattr__(self, name):
        return getattr(np, name)

    def _reduce(self, *args, **kwargs):
        self.states += kwargs["out"].size
        return np.minimum.reduce(*args, **kwargs)


def visit(call):
    """(the buffer one run of the captured sweep returns, the states its steps reduced)."""
    counting = _CountingNumPy()
    minimize.np = counting
    try:
        result = minimize._dp_sweep(**dict(call, value=call["value"].copy()))
    finally:
        minimize.np = np
    return result, counting.states


def print_sweeps(calls):
    names = ("weights", "bound")
    print(f"{'call':<24} {'n_x':>6} {'moves':>5} {'problems':>8} {'steps':>5} {'span':>13}  "
          f"{' '.join(names)}"
          "  visited  history     ms")
    for label, call in calls:
        ms = min_ms(minimize._dp_sweep, lambda: dict(call, value=call["value"].copy()))
        flags = (call["weights"] is not None, call["bound"] is not None)
        result, states = visit(call)
        (problems, n_x), n_steps = np.atleast_2d(call["value"]).shape, call["n_steps"]
        span = "..".join(str(int(i)) for i in call["span"])
        # the MB of the buffer a sweep with history returns
        history = f"{result.nbytes / 1e6:.2f} MB" if call["history"] else "no"
        print(
            f"{label:<24} {n_x:>6} {call['moves'].size:>5} {problems:>8} {n_steps:>5} {span:>13}  "
            + " ".join(f"{'yes' if flag else 'no':>{len(name)}}" for flag, name in zip(flags, names))
            + f"  {states / (problems * n_steps * n_x):>7.3f}  {history:>7}  {ms:>6.2f}"
        )


class _Split:
    """Seconds spent in each part of one solve, each call charged to its outermost part."""

    def __init__(self):
        self.seconds = dict.fromkeys(PARTS[:3], 0.0)
        self.sweeps = 0
        self._inside = False

    def timed(self, part, fn, sweep=False):
        """fn, charging its time to `part`; a call of a `sweep` fn counts one sweep."""

        def wrapper(*args, **kwargs):
            self.sweeps += sweep
            if self._inside:
                return fn(*args, **kwargs)
            self._inside = True
            tic = time.process_time()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[part] += time.process_time() - tic
                self._inside = False

        return wrapper


def time_solve(action, starts, opt, problems):
    """One timed run of a captured solve: ({part: seconds, with bookkeeping}, sweeps)."""
    split = _Split()
    steps = minimize._newton_steps
    action.gradient = split.timed("derivatives", action.gradient, sweep=True)
    action.hessian = split.timed("derivatives", action.hessian)
    action.value_and_samples = split.timed("line search", action.value_and_samples)
    minimize._newton_steps = split.timed("band solve", steps)
    try:
        tic = time.process_time()
        minimize._solve(action, starts, opt, problems)
        total = time.process_time() - tic
    finally:
        minimize._newton_steps = steps
        del action.gradient, action.hessian, action.value_and_samples
    split.seconds["bookkeeping"] = total - sum(split.seconds.values())
    return dict(split.seconds, total=total), split.sweeps


def print_solves(calls):
    columns = ("total",) + PARTS
    print(f"{'call':<24} {'nodes':>5} {'d':>2} {'P x S':>7} {'sweeps':>6}  "
          + " ".join(f"{c:>11}" for c in columns)
          + f" {'us/sweep':>9}  (least ms of each part; us/sweep in us)")
    for label, call in calls:
        runs = [time_solve(**call) for _ in range(REPEATS)]
        P, S, N, d = call["starts"].shape
        least = [1e3 * min(r[0][c] for r in runs) for c in columns]
        sweeps = runs[0][1]
        print(f"{label:<24} {N:>5} {d:>2} {f'{P}x{S}':>7} {sweeps:>6}  "
              + " ".join(f"{m:>11.3f}" for m in least)
              + f" {1e3 * least[0] / sweeps:>9.1f}")


def levels_of(v, xi):
    """The double-exponential levels one run of a captured cell_value_1d call builds."""
    built = []
    period_nodes = cell._period_nodes

    def counting(w0, level):
        built.append(level)
        return period_nodes(w0, level)

    cell._period_nodes = counting
    try:
        cell.cell_value_1d(v, xi)
    finally:
        cell._period_nodes = period_nodes
    return built


def print_exact(calls):
    print(f"{'call':<24} {'slopes':>6} {'speeds':>6} {'levels':>6}      ms")
    for label, call in calls:
        ms = min_ms(cell.cell_value_1d, lambda: call)
        slopes = np.atleast_1d(call["xi"]).astype(float)
        speeds = len(set(np.abs(slopes[slopes != 0.0]).tolist()))
        built = levels_of(**call)
        levels = f"{built[0]}..{built[-1]}" if built else "-"
        print(f"{label:<24} {slopes.size:>6} {speeds:>6} {levels:>6}  {ms:>6.2f}")


def panels_of(W, xi, r, R):
    """(panels, nodes): the radial panels of one exact parabola tube average
    (none when R <= 4) and its Gauss-Legendre nodes."""
    panels = [0]
    tube_panels = potentials._tube_panels

    def counting(*args):
        edges = tube_panels(*args)
        panels[0] = edges.size - 1
        return edges

    potentials._tube_panels = counting
    try:
        potentials.cylinder_average(W, xi, r, R)
    finally:
        potentials._tube_panels = tube_panels
    return panels[0], panels[0] * potentials._TUBE_NODES


def print_tubes(calls):
    print(f"{'call':<20} {'direction':>22} {'R':>6} {'rule':>7} {'panels':>6} {'nodes':>5}"
          "         ms")
    for label, call in calls:
        ms = min_ms(potentials.cylinder_average, lambda: call)
        direction = "(" + ", ".join(f"{v:.4f}" for v in call["xi"]) + ")"
        line = f"{label:<20} {direction:>22} {call['R']:>6g}"
        if call["W"].tube_average is not None:
            panels, nodes = panels_of(**call)
            print(f"{line} {'exact':>7} {panels:>6} {nodes:>5}  {ms:>9.2f}")
        else:
            print(f"{line} {'sampled':>7} {'-':>6} {'-':>5}  {ms:>9.2f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7, help="workload seed (default: 7)")
    args = parser.parse_args(argv)
    calls = capture(args.seed)
    print_sweeps(calls["_dp_sweep"])
    print_solves(calls["_solve"])
    print_exact(calls["cell_value_1d"])
    print_tubes(calls["cylinder_average"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
