"""Every top-level function and class in src/cebeam has a caller outside the tests.

Reference implementations that only tests call belong in tests/oracle.py.  A
name counts as called when code in src/cebeam loads it, when the benchmark
harness in perfbench/ wraps it or imports it, or when it is allowlisted
below.  These tests read perfbench/ and change nothing there.
"""

import ast
from pathlib import Path

from test_perfbench_names import PERFBENCH, _load

SRC = Path(__file__).resolve().parents[1] / "src" / "cebeam"

# The paper's comparison method (the report tag "projection-baseline"): the
# acceptance ordering check designs with it, and no CLI command does yet.
# simulate_detection is the public one-point detection_curve: every command
# sweeps a curve, and the tests and README measure single points with it.
ALLOWED = {"projection_baseline", "simulate_detection"}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def test_every_top_level_name_has_a_production_caller(monkeypatch):
    modules = {path: _parse(path) for path in sorted(SRC.glob("*.py"))}
    loaded = set()
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    wrapped = {attr for module, attr, _ in _load("tracer", monkeypatch).WRAP_POINTS
               if module.startswith("cebeam")}
    imported = {alias.name for path in PERFBENCH.glob("*.py") for node in ast.walk(_parse(path))
                if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("cebeam")
                for alias in node.names}
    callers = loaded | wrapped | imported | ALLOWED
    orphans = [f"{path.name}:{node.name}" for path, tree in modules.items()
               if path.name != "__init__.py" for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and node.name not in callers]
    assert orphans == []
