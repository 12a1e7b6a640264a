"""Per-layer metrics from a traced run, named after the program's modules.

Every metric is reported on every workload; a layer a workload does not
reach reads 0. Counts and seconds are per iteration of the workload.
`PER_LAYER` is the list BENCHMARK.json declares, in the same order.
"""

MINIMIZERS = [
    "minimize_bvp", "minimize_bvp_batch", "minimize_halfline", "minimize_lagrangian_bvp",
    "dp_oracle_1d",
]
CELL = [
    "tabulate_f_hom", "solve_corrector_1d", "f_hom_asymptotic", "build_almost_corrector",
    "build_recovery_trajectory",
]
HJ = ["solve_evolutionary_eps", "solve_evolutionary_hom", "solve_steady_eps", "solve_steady_hom"]
RUNNERS = [
    "run_fenchel_tables", "run_stability_sweep", "run_hj_convergence",
    "run_negative_perturbation", "run_condition_diagnostics",
]
AVERAGES = ["line_average", "cylinder_average", "lp_unif_estimate"]
# Descent solvers; dp_oracle_1d is a lattice sweep, not a solve.
SOLVERS = MINIMIZERS[:4]

PER_LAYER = (
    [
        ("potentials.eval_points", "count", "lower"),
        ("potentials.eval_s", "s", "lower"),
        ("potentials.averages_s", "s", "lower"),
        ("trajectory.action_G.calls", "count", "lower"),
        ("trajectory.action_G.s", "s", "lower"),
        ("trajectory.discounted_action.s", "s", "lower"),
    ]
    + [(f"minimize.{f}.{k}", u, "lower") for f in MINIMIZERS
       for k, u in (("calls", "count"), ("s", "s"), ("self_s", "s"))]
    + [
        ("minimize.minimize_bvp_batch.problems", "count", "lower"),
        ("minimize.eval_points_per_solve", "count", "lower"),
        ("minimize.converged_frac", "1", "higher"),
        ("minimize.grad_norm_max", "1", "lower"),
    ]
    + [(f"cell.{f}.{k}", u, "lower") for f in CELL for k, u in (("calls", "count"), ("s", "s"))]
    + [
        ("fenchel.legendre_transform.s", "s", "lower"),
        ("fenchel.biconjugate_check.s", "s", "lower"),
    ]
    + [(f"hj.{f}.{k}", "s", "lower") for f in HJ for k in ("s", "self_s")]
    + [(f"experiments.{f}.self_s", "s", "lower") for f in RUNNERS]
    + [
        ("experiments.write_s", "s", "lower"),
        ("experiments.write_bytes", "bytes", "lower"),
        ("info.trace_overhead_frac", "1", "lower"),
        ("info.src_lines", "lines", "lower"),
    ]
)


def per_layer(by_name, totals, norms, converged_tol, iterations):
    """Metric dict (name -> value and unit) from spans.summarize output.

    `norms` are the gradient norms of every kept minimizer; the two `info.`
    entries are added by the caller.
    """
    values = {}

    def get(name, key):
        return by_name.get(name, {}).get(key, 0)

    values["potentials.eval_points"] = totals["eval_points"] / iterations
    values["potentials.eval_s"] = totals["eval_s"] / iterations
    values["potentials.averages_s"] = sum(get(f"potentials.{f}", "s") for f in AVERAGES) / iterations
    values["trajectory.action_G.calls"] = get("trajectory.action_G", "calls") / iterations
    values["trajectory.action_G.s"] = get("trajectory.action_G", "s") / iterations
    values["trajectory.discounted_action.s"] = get("trajectory.discounted_action", "s") / iterations
    for f in MINIMIZERS:
        for key in ("calls", "s", "self_s"):
            values[f"minimize.{f}.{key}"] = get(f"minimize.{f}", key) / iterations
    problems = sum(a["problems"] for a in by_name.get("minimize.minimize_bvp_batch", {}).get("attrs", []))
    values["minimize.minimize_bvp_batch.problems"] = problems / iterations
    solves = sum(get(f"minimize.{f}", "calls") for f in SOLVERS if f != "minimize_bvp_batch") + problems
    points = sum(get(f"minimize.{f}", "points") for f in SOLVERS)
    values["minimize.eval_points_per_solve"] = points / solves if solves else 0.0
    # No solve on the workload reads as all of them converged.
    values["minimize.converged_frac"] = (
        sum(1 for n in norms if n <= converged_tol) / len(norms) if norms else 1.0
    )
    values["minimize.grad_norm_max"] = max(norms) if norms else 0.0
    for f in CELL:
        for key in ("calls", "s"):
            values[f"cell.{f}.{key}"] = get(f"cell.{f}", key) / iterations
    for f in ("legendre_transform", "biconjugate_check"):
        values[f"fenchel.{f}.s"] = get(f"fenchel.{f}", "s") / iterations
    for f in HJ:
        for key in ("s", "self_s"):
            values[f"hj.{f}.{key}"] = get(f"hj.{f}", key) / iterations
    for f in RUNNERS:
        values[f"experiments.{f}.self_s"] = get(f"experiments.{f}", "self_s") / iterations
    values["experiments.write_s"] = get("experiments.write", "s") / iterations
    written = sum(a["bytes"] for a in by_name.get("experiments.write", {}).get("attrs", []))
    values["experiments.write_bytes"] = written / iterations
    units = {name: unit for name, unit, _ in PER_LAYER}
    return {name: {"value": value, "unit": units[name]} for name, value in values.items()}
