"""Spans recorded from outside the program, by wrapping homoglab's public functions.

`from .x import f` copies a binding, so every module of the package that holds
a traced function is patched, not only the one that defines it. Potential
and perturbation evaluations are counted through copies of the registry
objects built by the `make_potential` / `make_perturbation` bindings in
`homoglab.experiments`; they are aggregated into the enclosing span rather
than recorded one by one, since a run makes hundreds of thousands of them.

Spans live in memory (name, start, end, parent, trace id) and are written
once the traced iterations finish; self time is computed from them.
"""

import dataclasses
import functools
import inspect
import os
import sys
import time

# (module, function, span name). Each function is patched in every homoglab
# module that binds it.
TRACED = [
    ("homoglab.trajectory", "action_G", "trajectory.action_G"),
    ("homoglab.trajectory", "discounted_action", "trajectory.discounted_action"),
    ("homoglab.minimize", "minimize_bvp", "minimize.minimize_bvp"),
    ("homoglab.minimize", "minimize_bvp_batch", "minimize.minimize_bvp_batch"),
    ("homoglab.minimize", "minimize_halfline", "minimize.minimize_halfline"),
    ("homoglab.minimize", "minimize_lagrangian_bvp", "minimize.minimize_lagrangian_bvp"),
    ("homoglab.minimize", "dp_oracle_1d", "minimize.dp_oracle_1d"),
    ("homoglab.cell", "tabulate_f_hom", "cell.tabulate_f_hom"),
    ("homoglab.cell", "solve_corrector_1d", "cell.solve_corrector_1d"),
    ("homoglab.cell", "f_hom_asymptotic", "cell.f_hom_asymptotic"),
    ("homoglab.cell", "build_almost_corrector", "cell.build_almost_corrector"),
    ("homoglab.cell", "build_recovery_trajectory", "cell.build_recovery_trajectory"),
    ("homoglab.fenchel", "legendre_transform", "fenchel.legendre_transform"),
    ("homoglab.fenchel", "biconjugate_check", "fenchel.biconjugate_check"),
    ("homoglab.hj", "solve_evolutionary_eps", "hj.solve_evolutionary_eps"),
    ("homoglab.hj", "solve_evolutionary_hom", "hj.solve_evolutionary_hom"),
    ("homoglab.hj", "solve_steady_eps", "hj.solve_steady_eps"),
    ("homoglab.hj", "solve_steady_hom", "hj.solve_steady_hom"),
    ("homoglab.potentials", "line_average", "potentials.line_average"),
    ("homoglab.potentials", "cylinder_average", "potentials.cylinder_average"),
    ("homoglab.potentials", "lp_unif_estimate", "potentials.lp_unif_estimate"),
    ("homoglab.experiments", "run_stability_sweep", "experiments.run_stability_sweep"),
    ("homoglab.experiments", "run_negative_perturbation", "experiments.run_negative_perturbation"),
    ("homoglab.experiments", "run_hj_convergence", "experiments.run_hj_convergence"),
    ("homoglab.experiments", "run_condition_diagnostics", "experiments.run_condition_diagnostics"),
    ("homoglab.experiments", "run_fenchel_tables", "experiments.run_fenchel_tables"),
]

# Descent solvers whose minimizers are kept for the post-run gradient check,
# with the kind of discrete action each one certifies.
SOLVER_KINDS = {
    "minimize.minimize_bvp": "eps",
    "minimize.minimize_bvp_batch": "eps",
    "minimize.minimize_halfline": "discounted",
    "minimize.minimize_lagrangian_bvp": "lagrangian",
}

# Span record fields, kept as lists for speed.
NAME, PARENT, START, END, TRACE, LEAF_CALLS, LEAF_POINTS, LEAF_S, ATTRS = range(9)


class Tracer:
    """In-memory span recorder; `install` patches homoglab, `uninstall` restores it."""

    def __init__(self):
        self.spans = []
        self.trace_id = ""
        self.counting = True
        self.solves = []
        self._stack = []
        self._patches = []

    # -- recording -----------------------------------------------------------

    def _open(self, name):
        rec = [name, self._stack[-1] if self._stack else -1, time.perf_counter(), None,
               self.trace_id, 0, 0, 0.0, None]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        return rec

    def _close(self, rec):
        rec[END] = time.perf_counter()
        self._stack.pop()

    def _leaf(self, points, seconds):
        if not self.counting or not self._stack:
            return
        rec = self.spans[self._stack[-1]]
        rec[LEAF_CALLS] += 1
        rec[LEAF_POINTS] += points
        rec[LEAF_S] += seconds

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, fn, name):
        signature = inspect.signature(fn)
        kind = SOLVER_KINDS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if kind is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self._keep_solve(rec, name, kind, bound.arguments, out)
            return out

        return traced

    def _keep_solve(self, rec, name, kind, args, out):
        if name == "minimize.minimize_bvp_batch":
            values, nodes, times = out
            rec[ATTRS] = {"problems": int(values.shape[0])}
            for value, node in zip(values, nodes):
                self.solves.append((kind, args, times, node, float(value)))
        else:
            traj, value = out
            self.solves.append((kind, args, traj.times, traj.nodes, float(value)))

    def _counted(self, fn):
        if fn is None:
            return None

        def evaluator(x):
            start = time.perf_counter()
            out = fn(x)
            self._leaf(x.size // x.shape[-1], time.perf_counter() - start)
            return out

        return evaluator

    def _counted_factory(self, make):
        @functools.wraps(make)
        def factory(*args, **kwargs):
            obj = make(*args, **kwargs)
            return dataclasses.replace(
                obj, evaluator=self._counted(obj.evaluator), gradient=self._counted(obj.gradient)
            )

        return factory

    def _write_wrapper(self, write):
        @functools.wraps(write)
        def traced_write(report, out_dir):
            rec = self._open("experiments.write")
            try:
                written = write(report, out_dir)
            finally:
                self._close(rec)
            rec[ATTRS] = {"bytes": sum(os.path.getsize(p) for p in written)}
            return written

        return traced_write

    # -- patching ------------------------------------------------------------

    def _patch(self, module, attr, value):
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "homoglab" or n.startswith("homoglab."))]
        for module_name, attr, span in TRACED:
            original = getattr(sys.modules[module_name], attr)
            wrapped = self._span_wrapper(original, span)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapped)
        experiments = sys.modules["homoglab.experiments"]
        for attr in ("make_potential", "make_perturbation"):
            self._patch(experiments, attr, self._counted_factory(getattr(experiments, attr)))
        self._patch(experiments.Report, "write", self._write_wrapper(experiments.Report.write))

    def uninstall(self):
        self.counting = False
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # -- results ---------------------------------------------------------------

    def records(self):
        """Spans as dicts, for writing out."""
        return [
            {"id": i, "name": r[NAME], "parent": r[PARENT], "start": r[START], "end": r[END],
             "trace": r[TRACE], "eval_calls": r[LEAF_CALLS], "eval_points": r[LEAF_POINTS],
             "eval_s": r[LEAF_S], "attrs": r[ATTRS]}
            for i, r in enumerate(self.spans)
        ]


def summarize(spans):
    """Per-name totals: calls, inclusive and self seconds, evaluation counts.

    A span's self time is its duration minus the time its child spans and
    the evaluator calls aggregated into it cover. Returns (by_name, totals)
    where by_name[name] has keys calls, s, self_s, points (inclusive
    evaluation points) and attrs (list).
    """
    n = len(spans)
    child_s = [0.0] * n
    points = [0] * n
    for i in range(n - 1, -1, -1):
        rec = spans[i]
        points[i] += rec[LEAF_POINTS]
        parent = rec[PARENT]
        if parent >= 0:
            child_s[parent] += rec[END] - rec[START]
            points[parent] += points[i]
    by_name = {}
    totals = {"eval_points": 0, "eval_s": 0.0, "eval_calls": 0}
    for i, rec in enumerate(spans):
        dur = rec[END] - rec[START]
        entry = by_name.setdefault(
            rec[NAME], {"calls": 0, "s": 0.0, "self_s": 0.0, "points": 0, "attrs": []}
        )
        entry["calls"] += 1
        entry["s"] += dur
        entry["self_s"] += dur - child_s[i] - rec[LEAF_S]
        entry["points"] += points[i]
        if rec[ATTRS] is not None:
            entry["attrs"].append(rec[ATTRS])
        totals["eval_points"] += rec[LEAF_POINTS]
        totals["eval_s"] += rec[LEAF_S]
        totals["eval_calls"] += rec[LEAF_CALLS]
    return by_name, totals
