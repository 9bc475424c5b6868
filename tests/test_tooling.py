"""Repository-wide checks: the demos run, src/ holds no assert, tours
are validated only where they enter the library, and the benchmark's
tracer finds every function it wraps."""

from __future__ import annotations

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SOURCES = sorted((ROOT / "src" / "radiosim").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_no_assert_in_src():
    """Guarantees must survive `python -O`, which strips assert statements."""
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src/radiosim: {found}"


# the functions that take tours from a caller; every other function
# receives tours that are already paths of the network
TOUR_BOUNDARY = {
    "adversary.LoadLedger.__init__",
    "adversary.verify_admissible",
    "adversary.verify_admissible_all_intervals",
    "coloring.one_link_tours",
    "conflict.node_tour_conflicts",
    "conflict.tours_conflict",
    "engine.run",
}


def test_validate_tour_called_only_at_the_boundary():
    callers = set()

    def visit(node, scope):
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", getattr(func, "attr", None))
            if name == "validate_tour":
                callers.add(scope)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
            else:
                visit(child, scope)

    for path in SOURCES:
        visit(ast.parse(path.read_text(), str(path)), path.stem)
    assert callers == TOUR_BOUNDARY, sorted(callers ^ TOUR_BOUNDARY)


def test_tracer_targets_exist():
    """`perfbench/tracing.py` wraps each target where callers look it up;
    a target moved or renamed would otherwise fail only traced runs."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in tracing._TARGETS
               if attr not in owner.__dict__]
    assert not missing, f"tracer targets not found: {missing}"
