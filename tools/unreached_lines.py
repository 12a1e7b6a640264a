"""Print the executable lines of the homoglab sources that no run reaches.

Run from anywhere; the sources of the checkout that holds this script are the
ones traced:

    python tools/unreached_lines.py

One process traces, with the standard library's sys.settrace, first the
79-file output tree of tools/write_outputs.py (into a temporary directory) and
then the tier-1 suite (pytest on tests/). It then prints, per module of
src/homoglab, the executable lines that neither reached, as line ranges. A
line counts as executable when the compiled module maps a bytecode
instruction to it. Before deleting a branch as dead, this shows whether any
shipped run or test takes it.
"""

import os
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "homoglab"

# The benchmark pins BLAS to one thread; so does this script, before NumPy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tools")]


class LineTracer:
    """Records (file, line) of every line run in a file under `prefix`."""

    def __init__(self, prefix: str):
        self.prefix = prefix
        self.hits = defaultdict(set)

    def _line(self, frame, event, arg):
        if event == "line":
            self.hits[frame.f_code.co_filename].add(frame.f_lineno)
        return self._line

    def _call(self, frame, event, arg):
        if not frame.f_code.co_filename.startswith(self.prefix):
            return None
        self.hits[frame.f_code.co_filename].add(frame.f_lineno)
        return self._line

    def __enter__(self):
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc):
        sys.settrace(None)


def executable_lines(path: Path) -> set:
    """The lines that some code object compiled from `path` maps an instruction to."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def ranges(lines) -> str:
    """Sorted line numbers as 'a-b, c' ranges."""
    out, lines = [], sorted(lines)
    start = prev = lines[0]
    for n in lines[1:] + [None]:
        if n is not None and n == prev + 1:
            prev = n
            continue
        out.append(str(start) if start == prev else f"{start}-{prev}")
        if n is not None:
            start = prev = n
    return ", ".join(out)


def main() -> int:
    tracer = LineTracer(str(SRC) + os.sep)
    with tracer, tempfile.TemporaryDirectory() as tmp:
        start = time.perf_counter()
        import write_outputs  # imports homoglab under the tracer

        write_outputs.main([str(Path(tmp) / "out")])
        outputs_s = time.perf_counter() - start
        import pytest

        start = time.perf_counter()
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
        tests_s = time.perf_counter() - start
    print(f"traced the output tree in {outputs_s:.1f} s and tier-1 (exit {int(code)}) in {tests_s:.1f} s")

    total = 0
    for path in sorted(SRC.glob("*.py")):
        missed = executable_lines(path) - tracer.hits.get(str(path), set())
        total += len(missed)
        print(f"{path.name}: {len(missed)} unreached" + (f": {ranges(missed)}" if missed else ""))
    print(f"total: {total} unreached lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
