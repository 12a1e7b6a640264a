"""The four benchmark workloads: generated configs, expected verdicts, accuracy.

Each workload is a closed loop with one client: the runners are called one
after another, each waiting for the previous report. The seed is written into
every generated config's `seed` field, where it drives the random restarts of
the descent solver. The configs mirror the shipped ones in `configs/` with
smaller grids, copied here so that a change to a shipped config does not
silently change what the benchmark measures.
"""

import json
import math

import numpy as np

_SIN2 = {"name": "sin2"}
_RUNGE = {"name": "runge_decay", "params": {"amplitude": 1.0}}

# Shared relative tolerance of the oracle checks: the release tolerance for
# oracle agreement in the acceptance suite.
ORACLE_REL_TOL = 0.02


def _tables(seed):
    # Two tables per iteration. Which random restart wins at |xi| = 0.25
    # depends on the seed and moves that entry's error by up to 4x; the
    # worst entry over two seeds is steady from run to run.
    return [
        (
            f"fenchel#{k}",
            "run_fenchel_tables",
            {
                "experiment": "fenchel",
                "dimension": 1,
                "potential": _SIN2,
                "seed": table_seed,
                "solver": {"cell_max_iters": 2000},
                "grids": {"xi": {"half_width": 2.0, "n": 17}, "p": {"half_width": 4.0, "n": 33}},
            },
        )
        for k, table_seed in enumerate((seed, seed + 2**20))
    ]


def _stability(seed):
    return [
        (
            "stability_1d",
            "run_stability_sweep",
            {
                "experiment": "stability",
                "dimension": 1,
                "potential": _SIN2,
                "perturbation": _RUNGE,
                "xi": [1.0],
                "eps_ladder": [0.2, 0.1, 0.05, 0.025],
                "threshold": 0.05,
                "seed": seed,
                "solver": {"max_iters": 1200, "restarts": 2, "nodes_per_period": 12},
            },
        ),
        (
            "stability_2d",
            "run_stability_sweep",
            {
                "experiment": "stability",
                "dimension": 2,
                "potential": _SIN2,
                "perturbation": _RUNGE,
                "xi": [1.0, 0.0],
                "eps_ladder": [0.2, 0.1],
                "threshold": 0.05,
                "seed": seed,
                "solver": {"max_iters": 400, "restarts": 1, "cell_max_iters": 1000},
            },
        ),
    ]


def _hj(seed):
    return [
        (
            "hj_steady",
            "run_hj_convergence",
            {
                "experiment": "hj",
                "dimension": 1,
                "potential": _SIN2,
                "perturbation": _RUNGE,
                "lambda": 1.0,
                "eps_ladder": [0.2, 0.1, 0.05],
                "seed": seed,
                "solver": {"max_iters": 800, "restarts": 2},
                "grids": {
                    "x": {"lo": -0.44, "hi": 0.44, "n": 5},
                    "xi": {"half_width": 2.0, "n": 5},
                },
            },
        ),
        (
            "hj_evolutionary",
            "run_hj_convergence",
            {
                "experiment": "hj",
                "dimension": 1,
                "potential": _SIN2,
                "perturbation": {"name": "zero"},
                "initial_datum": {"name": "abs_min", "params": {"cap": 1.0}},
                "eps_ladder": [0.2, 0.1],
                "seed": seed,
                "solver": {"max_iters": 1000, "restarts": 2},
                "grids": {
                    "x": {"lo": 0.30, "hi": 0.70, "n": 3},
                    "t": [0.5, 1.0],
                    "y": {"lo": -2.0, "hi": 2.0, "n": 161},
                    "xi": {"half_width": 2.0, "n": 5},
                },
            },
        ),
    ]


def _lattice(seed):
    return [
        (
            "negative",
            "run_negative_perturbation",
            {
                "experiment": "negative",
                "dimension": 1,
                "potential": {"name": "zero"},
                "perturbation": {"name": "neg_spike", "params": {"depth": 1.0, "width": 0.0}},
                "eps_ladder": [0.2, 0.1, 0.05],
                "seed": seed,
                "grids": {"dp": {"x_lo": -2.0, "x_hi": 2.0, "n_x": 12801, "n_t": 1281}},
            },
        ),
        (
            "conditions",
            "run_condition_diagnostics",
            {
                "experiment": "conditions",
                "dimension": 2,
                "potential": {"name": "zero"},
                "perturbation": {"name": "parabola_example"},
                "seed": seed,
                "grids": {
                    "radii": [64, 256, 1024, 4096],
                    "tube_radius": 0.5,
                    "directions": [
                        [0.0, 1.0],
                        [0.0, -1.0],
                        [0.7071067811865476, 0.7071067811865476],
                        [-0.7071067811865476, 0.7071067811865476],
                        [0.5403023058681398, 0.8414709848078965],
                    ],
                },
            },
        ),
    ]


CALLS = {"tables": _tables, "stability": _stability, "hj": _hj, "lattice": _lattice}

# Boolean or exact verdicts each report must carry, by call label (the part
# before any "#").
EXPECTED_VERDICTS = {
    "fenchel": {"conjugate_convexity_violations": 0},
    "stability_1d": {"gap_decreasing": True, "final_gap_below_threshold": True, "rows_failed": 0},
    "stability_2d": {"rows_failed": 0},
    "hj_steady": {"mode": "steady", "sup_decreasing": True},
    "hj_evolutionary": {"mode": "evolutionary"},
    "negative": {"eps_independent": True, "rows_failed": 0},
    # Criterion 13: tube averages decay along the dyadic directions and
    # persist along the non-dyadic one.
    "conditions": {
        "classification": "inconclusive",
        "per_direction": {
            "0.0;1.0": "decaying",
            "0.0;-1.0": "decaying",
            "0.7071067811865476;0.7071067811865476": "decaying",
            "-0.7071067811865476;0.7071067811865476": "decaying",
            "0.5403023058681398;0.8414709848078965": "persistent",
        },
    },
}

# Spans that must record at least one call on each workload when traced.
EXPECTED_SPANS = {
    "tables": [
        "experiments.run_fenchel_tables", "cell.tabulate_f_hom", "cell.solve_corrector_1d",
        "minimize.minimize_bvp", "trajectory.action_G", "fenchel.legendre_transform",
        "fenchel.biconjugate_check", "experiments.write",
    ],
    "stability": [
        "experiments.run_stability_sweep", "cell.solve_corrector_1d", "cell.f_hom_asymptotic",
        "cell.build_almost_corrector", "cell.build_recovery_trajectory",
        "minimize.minimize_bvp", "minimize.minimize_lagrangian_bvp", "trajectory.action_G",
        "experiments.write",
    ],
    "hj": [
        "experiments.run_hj_convergence", "cell.tabulate_f_hom", "cell.solve_corrector_1d",
        "hj.solve_steady_eps", "hj.solve_steady_hom", "hj.solve_evolutionary_eps",
        "hj.solve_evolutionary_hom", "minimize.minimize_bvp_batch", "minimize.minimize_halfline",
        "trajectory.action_G", "trajectory.discounted_action", "experiments.write",
    ],
    "lattice": [
        "experiments.run_negative_perturbation", "experiments.run_condition_diagnostics",
        "minimize.dp_oracle_1d", "potentials.cylinder_average", "potentials.lp_unif_estimate",
        "experiments.write",
    ],
}


def configs(workload, seed):
    """[(label, runner name, raw config dict)] for one iteration of a workload."""
    return CALLS[workload](int(seed))


def boolean_verdicts(reports):
    """Every boolean entry of the reports' verdicts, in a fixed order."""
    out = []
    for label in sorted(reports):
        verdicts = reports[label].verdicts
        out.extend(bool(verdicts[k]) for k in sorted(verdicts) if isinstance(verdicts[k], bool))
    return out


def check_verdicts(reports):
    """Mismatches between reports and EXPECTED_VERDICTS, as messages."""
    problems = []
    for label, report in reports.items():
        for key, want in EXPECTED_VERDICTS[label.partition("#")[0]].items():
            got = report.verdicts.get(key)
            if got != want:
                problems.append(f"{label}: verdict {key} = {got!r}, expected {want!r}")
    return problems


def _oracle_table(axes):
    from oracle import conserved_energy_value, sin2_1d

    return np.array([conserved_energy_value(sin2_1d, xi) for xi in axes[0]])


# Lattice of the steady-field DP: dx = 1.25e-3 resolves the eps = 0.05 period
# 40 times; refining it 4x in both directions moves no value by more than 5e-4,
# far below the descent's distance from it.
_DP_STATES = np.linspace(-1.1, 1.1, 1761)
_DP_STEPS = 601
_DP_MAX_SLOPE = 2.0
# The eps-fields are upper bounds from a descent that stops at max_iters; a
# distance above this share of the field's scale means a broken solver.
DP_REL_TOL = 0.10


def _steady_dp_distances(label, cfg, fields, problems):
    from oracle import dp_discounted, sin2_1d

    amplitude = float(_RUNGE["params"]["amplitude"])
    x = cfg.x_axes()[0]
    out = []
    for eps in cfg.eps_ladder:

        def cost(s, _e=eps):
            y = s / _e
            return sin2_1d(y) + amplitude / (1.0 + y * y)

        dp = dp_discounted(cost, cfg.lam, 6.0 / cfg.lam, _DP_STATES, _DP_STEPS, _DP_MAX_SLOPE)
        want = np.interp(x, _DP_STATES, dp)
        got = fields[f"eps_{eps}"].values
        dist = float(np.max(np.abs(got - want)))
        out.append(dist)
        if not dist <= DP_REL_TOL * float(np.max(np.abs(want))):
            problems.append(f"{label}: U_eps at eps={eps} is {dist:.3e} from the lattice DP")
    return out


def accuracy(workload, reports, cfgs, homoglab):
    """(oracle_err, certified_sum, problems) for one iteration's reports.

    oracle_err is the largest distance to an independent oracle:
    - tables: f_hom table entries against the conservation-law values;
    - stability: the f_hom target against f_1(1) in d = 1 and against the
      separable sum f_1(1) + f_1(0) in d = 2;
    - hj: the steady eps-fields against the lattice DP. The homogenized
      fields are also checked against fields recomputed from an oracle table,
      but on these grids they match it exactly (the optimal homogenized path
      stays put, as f_1(xi) > |xi| and f_1(0) = 0), so that distance is 0;
    - lattice: |limit_value + 1|.
    certified_sum adds up the certified upper bounds the workload returns:
    table entries, min_G + min_F per rung, eps-field entries, DP minima
    (negative on this workload).

    `homoglab` is the imported package; the HJ recomputation calls its
    untraced homogenized solvers. The oracle module is imported here, not at
    the top: it pulls in SciPy parts homoglab never loads, which would
    otherwise count as set-up time.
    """
    from oracle import separable_value, sin2_1d

    problems = []
    errors = []

    def compare(label, got, want):
        err = abs(got - want)
        errors.append(err)
        if not err <= ORACLE_REL_TOL * max(abs(want), 1e-12):
            problems.append(f"{label}: {got!r} is {err:.3e} from the oracle value {want!r}")

    if workload == "tables":
        total = 0.0
        for label, report in reports.items():
            table = json.loads(dict(report.extra_files)["f_hom.json"])
            axis = np.asarray(table["axes"][0])
            values = np.asarray(table["values"], dtype=float)
            for xi, got, want in zip(axis, values, _oracle_table([axis])):
                compare(f"{label} f_hom({xi})", float(got), float(want))
            total += float(np.sum(values))
    elif workload == "stability":
        total = 0.0
        for label, report in reports.items():
            xi = cfgs[label].xi
            want = separable_value(sin2_1d, xi)
            compare(f"{label} target", float(report.provenance["f_hom_target"]), want)
            for row in report.rows:
                if "error" not in row:
                    total += row["min_G"] + row["min_F"]
    elif workload == "hj":
        total = 0.0
        for label, report in reports.items():
            cfg = cfgs[label]
            fields = dict(report.fields)
            axes = (cfg.xi_axes(),)
            table = homoglab.HomogenizedLagrangian(axes, _oracle_table(axes), 0.0)
            if cfg.lam is not None:
                u_oracle = homoglab.solve_steady_hom(table, cfg.lam, cfg.x_axes(), cfg.optimizer())
            else:
                u_oracle = homoglab.solve_evolutionary_hom(
                    table, cfg.initial_datum(), cfg.x_axes(), cfg.t_grid(), cfg.y_axes()
                )
            sup, _ = homoglab.field_distance(fields["hom"], u_oracle)
            if not sup <= ORACLE_REL_TOL * max(float(np.max(np.abs(u_oracle.values))), 1e-12):
                problems.append(f"{label}: U_hom is {sup:.3e} from the oracle-table field")
            if cfg.lam is not None:
                errors.extend(_steady_dp_distances(label, cfg, fields, problems))
            total += sum(float(np.sum(vf.values)) for name, vf in report.fields if name != "hom")
    elif workload == "lattice":
        report = reports["negative"]
        limit = float(report.verdicts["limit_value"])
        compare("negative limit_value", limit, -1.0)
        total = float(sum(row["min_G"] for row in report.rows if "error" not in row))
    else:
        raise KeyError(workload)
    if not math.isfinite(total):
        problems.append(f"certified sum is not finite: {total}")
    return max(errors), total, problems
