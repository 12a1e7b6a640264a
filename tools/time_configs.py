"""Time each shipped config end to end through the CLI and its runner alone in process.

Run from anywhere; the homoglab sources of the checkout that holds this
script are the ones imported, in process and by the CLI:

    python tools/time_configs.py --runs 5 [--json FILE]

For each config in configs/, "CLI" is the wall time of a fresh
`python -m homoglab.cli <experiment> --config <config> --out <temporary dir>`,
start-up and report writing included, next to that child's peak resident set
size (ru_maxrss from os.wait4); "in process" is the config's runner alone,
after one warm-up call, so imports and first-call costs are left out. Each is
the median of --runs runs. BLAS is pinned to one thread, as in the benchmark.
The table goes to stdout; --json also writes the medians and every run's
time, in seconds, and CLI peak RSS, in MB, to FILE.

Every CLI run comes first, from this process before it imports NumPy: Linux
carries a parent's peak RSS into the ru_maxrss of a child it execs, so a
parent grown by the in-process runs would raise every later child's figure.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The benchmark pins BLAS to one thread; so does this script, before NumPy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
sys.path[:0] = [str(ROOT / "src")]


def time_cli(path: Path, experiment: str) -> tuple:
    """(seconds, peak RSS in MB) of one fresh CLI run of the config, writing
    into a temporary directory."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    with tempfile.TemporaryDirectory() as out:
        command = [sys.executable, "-m", "homoglab.cli", experiment, "--config", str(path)]
        command += ["--out", out]
        tic = time.perf_counter()
        child = subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(child.pid, 0)
        seconds = time.perf_counter() - tic
        child.returncode = os.waitstatus_to_exitcode(status)
        if child.returncode:
            raise subprocess.CalledProcessError(child.returncode, command)
        return seconds, usage.ru_maxrss / 1024  # Linux reports ru_maxrss in KiB


def time_in_process(path: Path, experiment: str, runs: int) -> list:
    """Seconds of each of `runs` runner calls on the config, after one warm-up call."""
    from homoglab import cli, experiments

    runner, _ = cli._RUNNERS[experiment]
    cfg = experiments.ExperimentConfig.from_file(path)
    runner(cfg)
    times = []
    for _ in range(runs):
        tic = time.perf_counter()
        runner(cfg)
        times.append(time.perf_counter() - tic)
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=3, help="runs per median (default: 3)")
    parser.add_argument("--json", type=Path, help="also write the times to this file")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    configs = {}
    for path in sorted((ROOT / "configs").glob("*.json")):
        experiment = json.loads(path.read_text())["experiment"]
        configs[path] = experiment, [time_cli(path, experiment) for _ in range(args.runs)]
    results = {}
    print(f"{'config':<28} {'CLI s':>8} {'CLI MB':>8} {'in process s':>13}  "
          f"(median of {args.runs})")
    for path, (experiment, cli) in configs.items():
        cli_runs, cli_rss = zip(*cli)
        process_runs = time_in_process(path, experiment, args.runs)
        row = results[path.stem] = {
            "cli_s": statistics.median(cli_runs),
            "cli_peak_rss_mb": statistics.median(cli_rss),
            "in_process_s": statistics.median(process_runs),
            "cli_runs_s": list(cli_runs),
            "cli_runs_peak_rss_mb": list(cli_rss),
            "in_process_runs_s": process_runs,
        }
        print(f"{path.stem:<28} {row['cli_s']:>8.3f} {row['cli_peak_rss_mb']:>8.1f} "
              f"{row['in_process_s']:>13.4f}")
    if args.json:
        args.json.write_text(json.dumps({"runs": args.runs, "configs": results}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
