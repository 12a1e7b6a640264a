"""Compare every output file of this checkout with those of another git revision.

    python tools/compare_outputs.py REV

REV is extracted with `git archive` into a temporary directory, so the
checkout and its working tree are left alone. Each side then writes its
output tree with its own tools/write_outputs.py at its workload seeds, and the
two trees are compared with `diff -rqs`, which lists every file as identical,
differing, or present on one side only. For each differing .json or .csv
pair it then lists every changed value, as `where: old -> new`, with the
signed distance in ulps when both are numbers; a key or row present on one
side only shows as (absent) on the other. The exit status is diff's: 1 if
any file differs or is one-sided, else 0.
"""

import argparse
import csv
import json
import struct
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


def ulps(old: float, new: float) -> int:
    """Signed count of doubles from old to new (0.0 and -0.0 count as one)."""

    def rank(x):
        bits = struct.unpack("<q", struct.pack("<d", x))[0]
        return bits if bits >= 0 else -(bits & 0x7FFFFFFFFFFFFFFF)

    return rank(new) - rank(old)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _json_changes(old, new, where):
    """(where, old, new) for each leaf that differs between two JSON values."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            sub = f"{where}.{key}" if where else key
            if key not in new:
                yield sub, old[key], "(absent)"
            elif key not in old:
                yield sub, "(absent)", new[key]
            else:
                yield from _json_changes(old[key], new[key], sub)
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from _json_changes(a, b, f"{where}[{i}]")
    elif not (type(old) is type(new) and (old == new or (old != old and new != new))):
        yield where, old, new  # nan on both sides is no change


def _csv_changes(old: Path, new: Path):
    """(row and column, old, new) for each cell that differs, numbers compared as floats."""
    rows_old, rows_new = (list(csv.reader(p.read_text().splitlines())) for p in (old, new))
    header = rows_old[0] if rows_old else []
    for i in range(max(len(rows_old), len(rows_new))):
        a = rows_old[i] if i < len(rows_old) else []
        b = rows_new[i] if i < len(rows_new) else []
        for j in range(max(len(a), len(b))):
            x = a[j] if j < len(a) else "(absent)"
            y = b[j] if j < len(b) else "(absent)"
            if x == y:
                continue
            try:
                x, y = float(x), float(y)
            except ValueError:
                pass
            column = header[j] if j < len(header) else j
            yield f"row {i} {column}", x, y


def list_changed_values(out_old: Path, out_new: Path) -> None:
    """Print the changed values of each .json and .csv file that differs between the trees."""
    for path in sorted(out_old.rglob("*")):
        other = out_new / path.relative_to(out_old)
        if path.suffix not in (".json", ".csv") or not other.is_file():
            continue
        if path.read_bytes() == other.read_bytes():
            continue
        print(f"{path.relative_to(out_old)}:")
        if path.suffix == ".json":
            changes = _json_changes(json.loads(path.read_text()), json.loads(other.read_text()), "")
        else:
            changes = _csv_changes(path, other)
        for where, a, b in changes:
            line = f"  {where}: {a!r} -> {b!r}"
            if _is_number(a) and _is_number(b):
                line += f" ({ulps(float(a), float(b)):+d} ulps)"
            print(line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision to compare against, e.g. HEAD~1")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
        tmp = Path(tmp)
        extract(args.rev, tmp / "rev")
        write_tree(tmp / "rev", tmp / "out_rev")
        write_tree(ROOT, tmp / "out_here")
        code = subprocess.run(["diff", "-rqs", "out_rev", "out_here"], cwd=tmp).returncode
        sys.stdout.flush()
        list_changed_values(tmp / "out_rev", tmp / "out_here")
        return code


if __name__ == "__main__":
    sys.exit(main())
