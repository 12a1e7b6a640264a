"""Bitwise determinism: the tree of every shipped and benchmark output against its manifest."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = Path(__file__).resolve().parent / "outputs.sha256"


def _write_outputs_tool(monkeypatch):
    """tools/write_outputs.py, loaded from its file; the src/ it puts on sys.path is taken off."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("write_outputs", ROOT / "tools" / "write_outputs.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def _moved(lines, expected):
    """The paths whose digest differs, or that one side lacks."""
    ours = dict(line.split("  ")[::-1] for line in lines)
    theirs = dict(line.split("  ")[::-1] for line in expected)
    return sorted(path for path in ours.keys() | theirs.keys() if ours.get(path) != theirs.get(path))


def test_the_output_tree_is_deterministic_and_matches_its_manifest(tmp_path, monkeypatch):
    """Two trees written in one process have the same bytes, so no call keeps
    state for the next. Their digests are tests/outputs.sha256's, whose header
    names the builds that wrote it: a tree from another build fails naming the
    mismatch, and a moved file fails naming the file (tools/compare_outputs.py
    then lists its changed values). A change that moves numbers on purpose
    regenerates the manifest with `tools/write_outputs.py OUT --manifest
    tests/outputs.sha256`."""
    tool = _write_outputs_tool(monkeypatch)
    trees = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert (tool.write_configs(out), tool.write_workloads(out)) == (25, 54)
        trees.append(tool.digests(out))
    assert not _moved(*trees), f"a second write in one process moved {_moved(*trees)}"

    lines = MANIFEST.read_text().splitlines()
    header = [line for line in lines if line.startswith("# ")]
    build = tool.build_header()
    if header != build:
        pytest.fail(f"the manifest's builds differ from this one's: {sorted(set(header) ^ set(build))}")
    moved = _moved(trees[0], [line for line in lines if not line.startswith("# ")])
    assert not moved, f"files moved against tests/outputs.sha256: {moved}"
