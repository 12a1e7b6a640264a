"""homoglab benchmark: four workloads, end-to-end metrics next to accuracy.

Run from the root of a checkout:

    python3 bench/run.py --workload tables --seed 1 --seconds 10 --trace 0

--workload is one of tables, stability, hj, lattice, or all (the default,
which runs the four one after another). With --trace 0 the last line of
standard output is a JSON object whose metrics are the end-to-end ones of
BENCHMARK.json; with --trace 1 they are the per-layer ones, taken from a
traced run whose written reports must match an untraced run byte for byte.
The lines before it give machine information and the details behind each
result. The exit code is 0 when every output check passed, 1 when one
failed, and 2 when the checkout holds no homoglab sources to measure.

Every workload runs in fresh processes with BLAS threads pinned to 1:
SETUP_PROBES set-up probes, then one process that times its own set-up too
(the median of all of them is reported) and runs the workload's closed loop
for --seconds. wall_s and setup_s are rescaled to a nominal machine speed,
measured by a fixed NumPy kernel that a timer runs every two seconds during
the loop, its own time left out (see calibrate.py); the raw seconds and
kernel samples are on the details line.
Everything is written under .bench_run/ in the checkout.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ["tables", "stability", "hj", "lattice"]
SETUP_PROBES = 2
# Each workload must finish well inside the 180 s a single run is allowed.
DEADLINE_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def machine_info():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "platform": platform.platform(),
    }


def src_lines(src):
    return sum(len(p.read_text().splitlines()) for p in sorted((src / "homoglab").rglob("*.py")))


def _environment(root, work):
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    env["TMPDIR"] = str(work / "tmp")
    return env


def _worker(mode, workload, args, root, work, env, deadline, extra=()):
    out = work / f"{mode}-{time.monotonic_ns()}.json"
    cmd = [
        sys.executable, str(BENCH_DIR / "worker.py"), mode,
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--src", str(root / "src"), "--work", str(work / "reports"), "--out", str(out),
        *extra,
    ]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError(f"no time left for the {mode} process")
    subprocess.run(cmd, env=env, cwd=root, check=True, timeout=remaining)
    return json.loads(out.read_text())


def run_workload(workload, args, root, declared):
    """Run one workload; returns (result dict for the last line, details)."""
    start = time.monotonic()
    deadline = start + DEADLINE_S
    work = root / ".bench_run" / f"{workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    env = _environment(root, work)
    try:
        setup_samples = []
        if not args.trace:
            # In a fresh checkout the first probe also compiles bytecode;
            # the median with the run's own set-up discards it.
            for _ in range(SETUP_PROBES):
                setup_samples.append(_worker("setup", workload, args, root, work, env, deadline)["setup_s"])
        spans = root / ".bench_run" / "traces" / f"{workload}-seed{args.seed}.json"
        extra = ["--spans", str(spans), "--src-lines", str(src_lines(root / "src"))]
        result = _worker("run", workload, args, root, work, env, deadline, extra)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = result["metrics"]
    if not args.trace:
        setup_samples.append(result["setup_s"])
        setup_s = statistics.median(setup_samples) * result["speed"]
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
    problems = result["problems"]
    failed = result["failed"] + len(problems)
    attempted = max(result["attempted"], failed, 1)
    want = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    if problems == [] and sorted(metrics) != sorted(want):
        problems.append(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(want)}")
        failed += 1
    ordered = {name: metrics[name] for name in want if name in metrics}
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": ordered,
    }
    details = {
        "workload": workload,
        "seed": args.seed,
        "trace": args.trace,
        "rows_failed_frac": {"value": failed / attempted, "unit": "1"},
        "iterations": len(result["walls"]),
        "walls_s": result["walls"],
        "setup_samples_s": setup_samples,
        "kernel_samples_s": result.get("kernel_samples", []),
        "elapsed_s": time.monotonic() - start,
        "problems": problems[:50],
    }
    if args.trace:
        details["untraced_walls_s"] = result["untraced_walls"]
        details["spans_file"] = str(spans.relative_to(root))
    return line, details


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    root = Path.cwd().resolve()
    if not (root / "src" / "homoglab" / "__init__.py").is_file():
        print(f"error: {root} holds no src/homoglab to benchmark; run from a checkout root",
              file=sys.stderr)
        return 2
    declared = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = float(declared["run_seconds"])

    print(json.dumps({"machine": machine_info()}), flush=True)
    names = WORKLOADS if args.workload == "all" else [args.workload]
    lines = {}
    for name in names:
        try:
            line, details = run_workload(name, args, root, declared)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired, TimeoutError) as exc:
            print(f"error: workload {name} did not complete: {exc}", file=sys.stderr)
            return 3
        print(json.dumps({"details": details}), flush=True)
        for problem in details["problems"]:
            print(f"check failed [{name}]: {problem}", file=sys.stderr)
        lines[name] = line
        if len(names) > 1:
            print(json.dumps({"workload": name, **line}), flush=True)

    if len(names) == 1:
        final = lines[names[0]]
    else:
        final = {
            "correct": all(l["correct"] for l in lines.values()),
            "attempted": sum(l["attempted"] for l in lines.values()),
            "failed": sum(l["failed"] for l in lines.values()),
            "metrics": {f"{w}.{m}": v for w, l in lines.items() for m, v in l["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
