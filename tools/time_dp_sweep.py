"""Time each lattice DP sweep that the `hj` and `lattice` benchmark workloads run.

Run from anywhere; the homoglab sources of the checkout that holds this
script are the ones imported:

    python tools/time_dp_sweep.py --seed 7

The workload configs are generated by bench/workloads.py at the given seed
(read from there, never changed). Every call of `homoglab.minimize._dp_sweep`
that their runner calls make is captured; once they are done, each captured
call is run again 5 times on a fresh copy of its start value, and one line per
call gives its size (states, moves, steps), which of target / weights / record
it used, and the median of the 5 times. No benchmark span isolates the sweep,
so this is how one DP sweep is measured on its own.
"""

import argparse
import inspect
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

WORKLOADS = ("hj", "lattice")
REPEATS = 5


def capture(seed):
    """Run the workloads' runner calls; returns [(call label, arguments)], one per sweep."""
    sweep, calls, label = minimize._dp_sweep, [], None
    signature = inspect.signature(sweep)

    def recording(*args, **kwargs):
        arguments = signature.bind(*args, **kwargs)
        arguments.apply_defaults()
        call = dict(arguments.arguments)
        call["value"] = call["value"].copy()  # the start, before the sweep runs
        calls.append((label, call))
        return sweep(*args, **kwargs)

    minimize._dp_sweep = recording
    try:
        for workload in WORKLOADS:
            for name, runner, raw in workloads.configs(workload, seed):
                label = f"{workload}/{name}"
                getattr(experiments, runner)(experiments.ExperimentConfig.from_dict(raw), threads=1)
    finally:
        minimize._dp_sweep = sweep
    return calls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7, help="workload seed (default: 7)")
    args = parser.parse_args(argv)
    print(f"{'call':<24} {'n_x':>6} {'moves':>5} {'steps':>5}  target weights record  median_ms")
    for label, call in capture(args.seed):
        times = []
        for _ in range(REPEATS):
            start = call["value"].copy()
            tic = time.perf_counter()
            minimize._dp_sweep(**dict(call, value=start))
            times.append(time.perf_counter() - tic)
        flags = [call["target"] is not None, call["weights"] is not None, call["record"]]
        print(
            f"{label:<24} {call['value'].size:>6} {call['moves'].size:>5} {call['n_steps']:>5}  "
            + " ".join(f"{'yes' if flag else 'no':>{len(name)}}"
                       for flag, name in zip(flags, ("target", "weights", "record")))
            + f"  {1e3 * statistics.median(times):>9.2f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
