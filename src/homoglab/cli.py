"""Command-line interface: run a configured experiment and emit its report.

Usage: homoglab <subcommand> --config cfg.json --out dir [--seed S]

Subcommands: stability, negative, hj, conditions, fhom, fenchel. A config
whose `experiment` names another subcommand is a configuration error.
Exit codes: 0 success, 2 configuration error, 3 solver failure,
4 invariant violation.
"""

import argparse
import sys

from .errors import ConfigError, HomoglabError, InputError, InvariantError
from .experiments import (
    ExperimentConfig,
    run_condition_diagnostics,
    run_fenchel_tables,
    run_fhom_table,
    run_hj_convergence,
    run_negative_perturbation,
    run_stability_sweep,
)

_RUNNERS = {
    "stability": (run_stability_sweep, "perturbed-vs-homogenized minimum sweep"),
    "negative": (run_negative_perturbation, "nonpositive perturbation, DP-based"),
    "hj": (run_hj_convergence, "oscillatory vs homogenized value fields"),
    "conditions": (run_condition_diagnostics, "tube-average decay diagnostics"),
    "fhom": (run_fhom_table, "tabulate the homogenized Lagrangian"),
    "fenchel": (run_fenchel_tables, "conjugate table and transform certificates"),
}

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_INVARIANT = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homoglab",
        description="Variational homogenization laboratory: run one experiment "
        "described by a JSON config and write its deterministic report.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _RUNNERS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to the JSON config")
        cmd.add_argument(
            "--out",
            default=None,
            help="output directory (default: config output_dir, else '.')",
        )
        cmd.add_argument(
            "--seed", type=int, default=None, help="override the config seed, a provenance label"
        )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = ExperimentConfig.from_file(args.config)
        experiment = cfg.data["experiment"]
        if experiment is not None and experiment != args.command:
            raise ConfigError(f"the config is for experiment {experiment!r}, not {args.command!r}")
        if args.seed is not None:
            data = dict(cfg.data)
            data["seed"] = args.seed
            cfg = ExperimentConfig.from_dict(data)
        runner, _ = _RUNNERS[args.command]
        report = runner(cfg)
        out_dir = args.out or cfg.output_dir or "."
        written = report.write(out_dir)
        print(f"{args.command}: wrote {len(written)} files to {out_dir}")
        for key in sorted(report.verdicts):
            print(f"  {key}: {report.verdicts[key]}")
        return EXIT_OK
    except (ConfigError, InputError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except HomoglabError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
