"""Write every output file of the shipped configs and the benchmark workloads into one tree.

Run from anywhere; the homoglab sources of the checkout that holds this
script are the ones imported:

    python tools/write_outputs.py OUT [--manifest FILE]

OUT/configs/<name>/ holds what `homoglab <experiment> --config
configs/<name>.json --out OUT/configs/<name>` writes, for each of the shipped
configs. OUT/workloads/<workload>-seed<S>/<label>/ holds the report that each
runner call of a benchmark workload writes, for the configs bench/workloads.py
generates at each seed S of SEEDS, 7 and 8 (read from there, never changed). A
change that claims to keep every output byte is checked by writing one tree
from each checkout and comparing them with `diff -r`.

With --manifest, FILE also receives the sha256 of every file written, one
`<hex>  <path under OUT>` line each in path order (the format of `sha256sum`),
under `# ` lines naming the Python, NumPy, SciPy and BLAS builds that wrote
them. tests/outputs.sha256 is that manifest for the current tree, and a
Tier-1 test checks it; a change that moves numbers on purpose regenerates it
in the same commit.
"""

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The benchmark pins BLAS to one thread; so does this script, before NumPy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402

from homoglab import cli, experiments  # noqa: E402

_spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

# The workload seeds of the byte check.
SEEDS = (7, 8)


def write_configs(out: Path) -> int:
    """Run each shipped config through the CLI; returns the number of files written."""
    count = 0
    for path in sorted((ROOT / "configs").glob("*.json")):
        experiment = json.loads(path.read_text())["experiment"]
        target = out / "configs" / path.stem
        code = cli.main([experiment, "--config", str(path), "--out", str(target)])
        if code != cli.EXIT_OK:
            raise SystemExit(f"{path.name}: homoglab {experiment} exited {code}")
        count += sum(1 for p in target.iterdir() if p.is_file())
    return count


def write_workloads(out: Path) -> int:
    """Run each workload's runner calls at each seed; returns the number of files written."""
    count = 0
    for seed in SEEDS:
        for workload in workloads.CALLS:
            for label, runner, raw in workloads.configs(workload, seed):
                cfg = experiments.ExperimentConfig.from_dict(raw)
                report = getattr(experiments, runner)(cfg, threads=1)
                count += len(report.write(out / "workloads" / f"{workload}-seed{seed}" / label))
    return count


def build_header() -> list:
    """The `# ` lines of a manifest: the builds that a tree's bytes depend on."""
    lines = [f"# python {platform.python_version()} {platform.machine()}"]
    for module in (numpy, scipy):
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        lines.append(f"# {module.__name__} {module.__version__}, BLAS {blas['name']} {blas['version']}")
    return lines


def digests(out: Path) -> list:
    """`<sha256>  <path under out>` of every file under out, in path order."""
    files = sorted(p for p in out.rglob("*") if p.is_file())
    return [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.relative_to(out).as_posix()}" for p in files]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="directory to write; must be absent or empty")
    parser.add_argument("--manifest", type=Path, help="also write the sha256 of every file here")
    args = parser.parse_args(argv)
    if args.out.exists() and any(args.out.iterdir()):
        parser.error(f"{args.out} is not empty")
    n_configs = write_configs(args.out)
    n_workloads = write_workloads(args.out)
    print(f"wrote {n_configs} config files and {n_workloads} workload files to {args.out}")
    if args.manifest is not None:
        args.manifest.write_text("\n".join(build_header() + digests(args.out)) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
