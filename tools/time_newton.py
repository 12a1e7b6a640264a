"""Time each damped-Newton solve that the `tables`, `stability` and `hj` benchmark workloads run.

Run from anywhere; the homoglab sources of the checkout that holds this
script are the ones imported:

    python tools/time_newton.py --seed 7

The workload configs are generated by bench/workloads.py at the given seed
(read from there, never changed). Every call of `homoglab.minimize._solve`
that their runner calls make is captured with its action and starts; once
they are done, each captured solve is run again 5 times. One line per solve
gives its size (nodes, dimension, problems x starts), its Newton sweeps, and
the median of the 5 times in ms, whole and split into the action's
derivatives, the banded Newton solves, the line search (every action value
outside `derivatives`: the trial steps and the starts' first values) and the
rest of `_solve` (its bookkeeping). Each call is charged to its outermost
part, so a value computed inside `derivatives` counts there. No
benchmark span isolates one solve, so this is how the Newton kernel is
measured on its own.
"""

import argparse
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The benchmark pins BLAS to one thread; so does this script, before NumPy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from homoglab import experiments, minimize  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("tables", "stability", "hj")
REPEATS = 5
PARTS = ("derivatives", "band solve", "line search", "bookkeeping")


def capture(seed):
    """Run the workloads' runner calls; returns [(call label, action, starts, opt)], one per solve."""
    solve, calls, label = minimize._solve, [], None

    def recording(action, starts, opt):
        calls.append((label, action, starts.copy(), opt))
        return solve(action, starts, opt)

    minimize._solve = recording
    try:
        for workload in WORKLOADS:
            for name, runner, raw in workloads.configs(workload, seed):
                label = f"{workload}/{name}"
                getattr(experiments, runner)(experiments.ExperimentConfig.from_dict(raw), threads=1)
    finally:
        minimize._solve = solve
    return calls


class _Split:
    """Seconds spent in each part of one solve, each call charged to its outermost part."""

    def __init__(self):
        self.seconds = dict.fromkeys(PARTS[:3], 0.0)
        self.sweeps = 0
        self._inside = False

    def timed(self, part, fn):
        def wrapper(*args, **kwargs):
            if self._inside:
                return fn(*args, **kwargs)
            self._inside = True
            tic = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[part] += time.perf_counter() - tic
                self._inside = False
                self.sweeps += part == "derivatives"

        return wrapper


def time_solve(action, starts, opt):
    """One timed run of a captured solve: ({part: seconds, with bookkeeping}, sweeps)."""
    split = _Split()
    steps = minimize._newton_steps
    action.derivatives = split.timed("derivatives", action.derivatives)
    action.value = split.timed("line search", action.value)
    minimize._newton_steps = split.timed("band solve", steps)
    try:
        tic = time.perf_counter()
        minimize._solve(action, starts, opt)
        total = time.perf_counter() - tic
    finally:
        minimize._newton_steps = steps
        del action.derivatives, action.value
    split.seconds["bookkeeping"] = total - sum(split.seconds.values())
    return dict(split.seconds, total=total), split.sweeps


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7, help="workload seed (default: 7)")
    args = parser.parse_args(argv)
    columns = ("total",) + PARTS
    print(f"{'call':<24} {'nodes':>5} {'d':>2} {'P x S':>7} {'sweeps':>6}  "
          + " ".join(f"{c:>11}" for c in columns) + "  (median ms)")
    for label, action, starts, opt in capture(args.seed):
        runs = [time_solve(action, starts, opt) for _ in range(REPEATS)]
        P, S, N, d = starts.shape
        medians = [1e3 * statistics.median(r[0][c] for r in runs) for c in columns]
        print(f"{label:<24} {N:>5} {d:>2} {f'{P}x{S}':>7} {runs[0][1]:>6}  "
              + " ".join(f"{m:>11.3f}" for m in medians))
    return 0


if __name__ == "__main__":
    sys.exit(main())
