"""Time one benchmark workload's runner loop in this checkout against a git revision.

    python tools/time_workloads.py REV --workload tables --pairs 10 [--seed 0]

REV is extracted with `git archive` into a temporary directory, as
compare_outputs.py does, so the checkout and its working tree are left alone.
Each pair then runs one fresh process per side, REV first in odd pairs and
this checkout first in even ones. A process sets up as a benchmark worker
does, with its own side's bench/worker.py (BLAS pinned to one thread), and
runs the workload's runner calls and their writes LOOPS = 5 times, each
loop one benchmark iteration; it reports the least wall time of its loops.

On a shared machine the CPU can slow down by about 1.6x for whole minutes,
so every run of one pass can land in such a spell, and a least time alone
cannot tell that spell from a change. Alternating fresh processes puts a
spell on both sides; the least of the loops of one process filters the short
disturbances inside it.

It prints every pair, each side's median and quartiles of the least times,
and in how many pairs this checkout was faster. Each loop's written bytes are
hashed; the exit status is 1 if any loop of either side wrote bytes that
differ from the others or had a failed row, else 0.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from compare_outputs import ROOT, extract

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
LOOPS = 5  # runner loops per process, the least one kept

# One side's process: argv is its root, the workload, the seed and the loop count.
LOOP = r"""
import hashlib, json, sys, tempfile
from pathlib import Path

root, workload, seed, loops = Path(sys.argv[1]), sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
sys.path[:0] = [str(root / "src"), str(root / "bench")]
import worker

_, experiments, calls, _ = worker.setup(workload, seed, (root / "src").resolve())
seconds, digests, problems = [], set(), []
with tempfile.TemporaryDirectory() as out:
    for k in range(loops):
        it = worker.run_iteration(experiments, calls, Path(out), f"loop{k}")
        seconds.append(it.seconds)
        problems += it.problems + ([f"loop {k}: {it.failed} failed rows"] if it.failed else [])
        digest = hashlib.sha256()
        for label in sorted(it.outputs):
            for name, data in sorted(it.outputs[label].items()):
                digest.update(f"{label}/{name} {len(data)}\n".encode() + data)
        digests.add(digest.hexdigest())
print(json.dumps({"least": min(seconds), "digests": sorted(digests), "problems": problems}))
"""


def run_side(root: Path, workload: str, seed: int, loops: int) -> dict:
    """One fresh process of one side: {"least": s, "digests": [...], "problems": [...]}."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), **dict.fromkeys(THREAD_VARS, "1"))
    out = subprocess.run(
        [sys.executable, "-c", LOOP, str(root), workload, str(seed), str(loops)],
        env=env, cwd=root, check=True, stdout=subprocess.PIPE, text=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def time_pairs(rev_root: Path, workload: str, seed: int, pairs: int, loops: int) -> list:
    """[(which side ran first, REV's run, this checkout's run)], one per pair."""
    results = []
    for pair in range(1, pairs + 1):
        first = "REV" if pair % 2 else "here"
        runs = {}
        for side in (("REV", "here") if first == "REV" else ("here", "REV")):
            runs[side] = run_side(rev_root if side == "REV" else ROOT, workload, seed, loops)
        results.append((first, runs["REV"], runs["here"]))
        print(f"{pair:>4}  {first:>5}  {1e3 * runs['REV']['least']:>9.2f}"
              f"  {1e3 * runs['here']['least']:>9.2f}"
              f"  {runs['here']['least'] / runs['REV']['least']:>8.3f}", flush=True)
    return results


def spread(seconds: list) -> str:
    """"median m ms, quartiles q1..q3 ms" of a list of times in seconds."""
    text = f"median {1e3 * statistics.median(seconds):.2f} ms"
    if len(seconds) >= 2:
        q1, _, q3 = statistics.quantiles(seconds, n=4)
        text += f", quartiles {1e3 * q1:.2f}..{1e3 * q3:.2f} ms"
    return text


def report(results: list) -> int:
    """Print the summary of time_pairs' results; 1 if the written bytes differ or a row failed."""
    rev = [r["least"] for _, r, _ in results]
    here = [h["least"] for _, _, h in results]
    wins = sum(h < r for r, h in zip(rev, here))
    print(f"REV   {spread(rev)}")
    print(f"here  {spread(here)}")
    print(f"this checkout faster in {wins} of {len(results)} pairs")
    digests = {d for _, r, h in results for d in r["digests"] + h["digests"]}
    problems = [p for _, r, h in results for p in r["problems"] + h["problems"]]
    for problem in problems:
        print(f"problem: {problem}")
    if len(digests) != 1:
        print(f"the loops wrote {len(digests)} different sets of bytes")
        return 1
    print(f"every loop of both sides wrote the same bytes (sha256 {digests.pop()[:16]})")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision to compare against, e.g. HEAD~1")
    parser.add_argument("--workload", required=True,
                        choices=["tables", "stability", "hj", "lattice"])
    parser.add_argument("--pairs", type=int, default=10, help="alternating pairs (default: 10)")
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default: 0)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    with tempfile.TemporaryDirectory(prefix="time_workloads_") as tmp:
        rev_root = Path(tmp) / "rev"
        extract(args.rev, rev_root)
        print(f"pair  first     REV ms    here ms  here/REV  ({args.workload}, seed {args.seed}, "
              f"least of {LOOPS} loops a process)")
        results = time_pairs(rev_root, args.workload, args.seed, args.pairs, LOOPS)
    return report(results)


if __name__ == "__main__":
    sys.exit(main())
