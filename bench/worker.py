"""One workload in one fresh process: set-up, timed loop, output checks.

Started by run.py with PYTHONPATH pointing at the checkout's `src`, and
BLAS threads pinned to 1. `setup` mode only times the set-up and exits;
`run` mode writes a JSON result to --out.
"""

import argparse
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path


def setup(workload, seed, src_dir):
    """Import homoglab and the SciPy parts it imports lazily; build the configs.

    Returns (homoglab, experiments module, [(label, runner name, config)],
    seconds). The lazy imports are paid here so that they do not land in
    whichever table happens to be built first.
    """
    start = time.perf_counter()
    import homoglab
    import homoglab.experiments as experiments
    import scipy.interpolate  # noqa: F401  HomogenizedLagrangian, ConjugateTable
    import scipy.spatial  # noqa: F401  convex envelopes in d >= 2

    import workloads

    calls = [
        (label, runner, experiments.ExperimentConfig.from_dict(raw))
        for label, runner, raw in workloads.configs(workload, seed)
    ]
    elapsed = time.perf_counter() - start
    origin = Path(homoglab.__file__).resolve()
    if src_dir not in origin.parents:
        raise RuntimeError(f"homoglab was imported from {origin}, not from {src_dir}")
    return homoglab, experiments, calls, elapsed


@dataclass
class Iteration:
    """One pass over a workload's runner calls."""

    tag: str
    seconds: float = 0.0
    reports: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)  # label -> {file name: bytes}
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)


def run_iteration(experiments, calls, out_dir, tag, tracer=None, clock=time.perf_counter):
    """Call every runner of the workload once, timing the calls and their writes.

    A runner that raises HomoglabError is one attempted row, and its error
    one problem; like every problem, the caller counts it as a failed row.
    """
    from homoglab.errors import HomoglabError

    it = Iteration(tag)
    for label, runner, cfg in calls:
        if tracer is not None:
            tracer.trace_id = f"{tag}/{label}"
        start = clock()
        try:
            report = getattr(experiments, runner)(cfg, threads=1)
            written = report.write(out_dir / tag / label)
        except HomoglabError as exc:
            it.seconds += clock() - start
            it.attempted += 1
            it.problems.append(f"{tag}/{label}: {type(exc).__name__}: {exc}")
            continue
        it.seconds += clock() - start
        it.reports[label] = report
        it.outputs[label] = {Path(p).name: Path(p).read_bytes() for p in written}
        it.attempted += len(report.rows)
        it.failed += sum(1 for row in report.rows if "error" in row)
    return it


def _loop(experiments, calls, out_dir, seconds, prefix, tracer=None, clock=time.perf_counter):
    """Iterate for `seconds` of `clock`; an iteration longer than that still runs once."""
    iterations = []
    start = clock()
    while not iterations or (
        clock() - start + statistics.median(i.seconds for i in iterations) <= seconds
    ):
        tag = f"{prefix}{len(iterations)}"
        iterations.append(run_iteration(experiments, calls, out_dir, tag, tracer, clock))
    return iterations


def _check(workload, homoglab, calls, iterations):
    """Check every iteration's outputs.

    Every iteration must write the bytes the first one wrote (same seed,
    traced or not); the last one's reports must carry the expected verdicts
    and stay within tolerance of the oracles. Returns (rows attempted, rows
    failed, problems, (oracle_err, certified_sum, verdict_pass_frac) or None).
    """
    import oracle
    import workloads

    attempted = sum(i.attempted for i in iterations)
    failed = sum(i.failed for i in iterations)
    problems = [p for i in iterations for p in i.problems]
    first = iterations[0]
    for it in iterations[1:]:
        for label in sorted(set(first.outputs) | set(it.outputs)):
            ref, got = first.outputs.get(label, {}), it.outputs.get(label, {})
            for name in sorted(set(ref) | set(got)):
                if ref.get(name) != got.get(name):
                    problems.append(f"{it.tag}/{label}/{name}: bytes differ from {first.tag}")
    try:
        oracle.self_test()
    except AssertionError as exc:
        problems.append(f"oracle self-test: {exc}")
    reports = iterations[-1].reports
    if len(reports) != len(calls):
        return attempted, failed, problems, None
    problems += workloads.check_verdicts(reports)
    cfgs = {label: cfg for label, _, cfg in calls}
    oracle_err, certified_sum, acc_problems = workloads.accuracy(workload, reports, cfgs, homoglab)
    problems += acc_problems
    verdicts = workloads.boolean_verdicts(reports)
    # A workload whose reports carry no boolean verdict passes vacuously.
    pass_frac = sum(verdicts) / len(verdicts) if verdicts else 1.0
    return attempted, failed, problems, (oracle_err, certified_sum, pass_frac)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_untraced(args, homoglab, experiments, calls, out_dir):
    """Timed loop under the speed probe; times are rescaled to nominal speed."""
    import calibrate

    with calibrate.SpeedProbe() as probe:
        iterations = _loop(experiments, calls, out_dir, args.seconds, "it", clock=probe.clock)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed, problems, acc = _check(args.workload, homoglab, calls, iterations)
    walls = [i.seconds for i in iterations]
    speed = probe.speed()
    metrics = {}
    if acc is not None:
        oracle_err, certified_sum, pass_frac = acc
        metrics = {
            "wall_s": _metric(statistics.median(walls) * speed, "s"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
            "verdict_pass_frac": _metric(pass_frac, "1"),
            "oracle_err": _metric(oracle_err, "1"),
            "certified_sum": _metric(certified_sum, "1"),
        }
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "metrics": metrics, "walls": walls, "kernel_samples": probe.samples, "speed": speed}


def run_traced(args, homoglab, experiments, calls, out_dir):
    """Untraced reference iterations, then traced ones, for half the time each."""
    import certify
    import layers
    import spans
    import workloads

    half = args.seconds / 2.0
    untraced = _loop(experiments, calls, out_dir, half, "untraced")
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = _loop(experiments, calls, out_dir, half, "traced", tracer)
    finally:
        tracer.uninstall()

    attempted, failed, problems, _ = _check(args.workload, homoglab, calls, untraced + traced)

    # Gradient check of every kept minimizer, outside all spans.
    norms = []
    for kind, solve_args, times, nodes, value in tracer.solves:
        norm, mismatch = certify.check_solve(kind, solve_args, times, nodes, value)
        norms.append(norm)
        if mismatch:
            problems.append(mismatch)

    by_name, totals = spans.summarize(tracer.spans)
    for name in workloads.EXPECTED_SPANS[args.workload]:
        if by_name.get(name, {}).get("calls", 0) == 0:
            problems.append(f"span {name} recorded no calls")
    metrics = layers.per_layer(by_name, totals, norms, certify.CONVERGED_TOL, len(traced))
    walls = [i.seconds for i in traced]
    untraced_walls = [i.seconds for i in untraced]
    overhead = statistics.median(walls) / statistics.median(untraced_walls) - 1.0
    metrics["info.trace_overhead_frac"] = _metric(overhead, "1")
    metrics["info.src_lines"] = _metric(args.src_lines, "lines")

    span_file = Path(args.spans)
    span_file.parent.mkdir(parents=True, exist_ok=True)
    span_file.write_text(json.dumps(tracer.records()))
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "metrics": metrics, "walls": walls, "untraced_walls": untraced_walls}


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["setup", "run"])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--src", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--spans", default="")
    parser.add_argument("--src-lines", type=int, default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    homoglab, experiments, calls, setup_s = setup(args.workload, args.seed, Path(args.src).resolve())
    if args.mode == "setup":
        result = {"setup_s": setup_s}
    else:
        out_dir = Path(args.work)
        runner = run_traced if args.trace else run_untraced
        result = runner(args, homoglab, experiments, calls, out_dir)
        result["setup_s"] = setup_s
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
