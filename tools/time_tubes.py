"""Time each tube average that the `lattice` benchmark workload runs.

Run from anywhere; the homoglab sources of the checkout that holds this
script are the ones imported:

    python tools/time_tubes.py --seed 7

The workload configs are generated by bench/workloads.py at the given seed
(read from there, never changed). Every `cylinder_average` call that their
runner calls make is captured; once they are done, each captured call is run
again 5 times, and one line per call gives its direction, R, the number of
points its chords hand to W, the median of the 5 times and that median per
point. The `potentials.cylinder_average` span sums the calls of a workload;
this is how one tube average is measured on its own.
"""

import argparse
import dataclasses
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

from homoglab import experiments, potentials  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("lattice",)
REPEATS = 5


def capture(seed):
    """Run the workloads' runner calls; returns [(call label, (W, xi, r, R))], one per average."""
    average, calls, label = experiments.cylinder_average, [], None

    def recording(W, xi, r, R):
        calls.append((label, (W, xi, r, R)))
        return average(W, xi, r, R)

    experiments.cylinder_average = recording  # the binding the runner calls
    try:
        for workload in WORKLOADS:
            for name, runner, raw in workloads.configs(workload, seed):
                label = f"{workload}/{name}"
                getattr(experiments, runner)(experiments.ExperimentConfig.from_dict(raw), threads=1)
    finally:
        experiments.cylinder_average = average
    return calls


def points_of(W, xi, r, R):
    """The number of points one call hands to W's evaluator."""
    seen = [0]

    def counting(x):
        seen[0] += x.shape[0]
        return W.evaluator(x)

    potentials.cylinder_average(dataclasses.replace(W, evaluator=counting), xi, r, R)
    return seen[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7, help="workload seed (default: 7)")
    args = parser.parse_args(argv)
    print(f"{'call':<20} {'direction':>22} {'R':>6} {'points':>8}  median_ms  ns/point")
    for label, (W, xi, r, R) in capture(args.seed):
        times = []
        for _ in range(REPEATS):
            tic = time.perf_counter()
            potentials.cylinder_average(W, xi, r, R)
            times.append(time.perf_counter() - tic)
        points = points_of(W, xi, r, R)
        median = statistics.median(times)
        direction = "(" + ", ".join(f"{v:.4f}" for v in xi) + ")"
        print(
            f"{label:<20} {direction:>22} {R:>6g} {points:>8}  {1e3 * median:>9.2f}"
            f"  {1e9 * median / points:>8.1f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
