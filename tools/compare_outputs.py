"""Compare every output file of this checkout with those of another git revision.

    python tools/compare_outputs.py REV

REV is extracted with `git archive` into a temporary directory, so the
checkout and its working tree are left alone. Each side then writes its
output tree with its own tools/write_outputs.py at its workload seeds, and the
two trees are compared with `diff -rqs`, which lists every file as identical,
differing, or present on one side only. The exit status is diff's: 1 if any
file differs or is one-sided, else 0.
"""

import argparse
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def extract(rev: str, dest: Path) -> None:
    """Write the files of `rev` into dest: `git archive rev | tar -x -C dest`."""
    dest.mkdir()
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev], check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def write_tree(checkout: Path, out: Path) -> None:
    """Run the checkout's own tools/write_outputs.py into out."""
    script = checkout / "tools" / "write_outputs.py"
    subprocess.run([sys.executable, str(script), str(out)], check=True, stdout=subprocess.DEVNULL)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision to compare against, e.g. HEAD~1")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
        tmp = Path(tmp)
        extract(args.rev, tmp / "rev")
        write_tree(tmp / "rev", tmp / "out_rev")
        write_tree(ROOT, tmp / "out_here")
        return subprocess.run(["diff", "-rqs", "out_rev", "out_here"], cwd=tmp).returncode


if __name__ == "__main__":
    sys.exit(main())
