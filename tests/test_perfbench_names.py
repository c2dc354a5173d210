"""The names the benchmark harness in perfbench/ looks up in cebeam still exist.

A deleted or renamed function would otherwise break only the traced benchmark
run.  These tests read perfbench/ and change nothing there.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_wrap_point_resolves(monkeypatch):
    tracer = _load("tracer", monkeypatch)
    missing = [f"{module}.{attr}" for module, attr, _ in tracer.WRAP_POINTS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []


def test_workloads_and_provenance_names_import(monkeypatch):
    workloads = _load("workloads", monkeypatch)
    from cebeam._accel import using_numba
    assert using_numba() is False
    assert workloads.CeDesignParams(seed=3).seed == 3
