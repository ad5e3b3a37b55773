"""The benchmark under bench/ binds library names by attribute path (the
tracer's TRACED table) and by import (the workloads).  Deleting or renaming
one of them breaks every benchmark run, so each must still resolve."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _traced():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return sorted(set(tracer.TRACED.values()))


def _workload_names():
    """(module, name) of every ``from nonarch... import name`` and every
    ``nonarch.name`` attribute in bench/workloads.py."""
    tree = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "nonarch":
            names.update((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "nonarch":
            names.add(("nonarch", node.attr))
    return sorted(names)


@pytest.mark.parametrize("module,path", _traced())
def test_traced_names_resolve(module, path):
    owner = importlib.import_module(module)
    if "." in path:  # the tracer wraps the attribute of the class itself
        cls_name, attr = path.split(".")
        assert attr in vars(getattr(owner, cls_name))
    else:
        assert callable(getattr(owner, path))


def test_workload_imports_resolve():
    names = _workload_names()
    assert ("nonarch", "mc_orbital_multi") in names  # the parse found the import list
    missing = [(m, n) for m, n in names if not hasattr(importlib.import_module(m), n)]
    assert not missing
