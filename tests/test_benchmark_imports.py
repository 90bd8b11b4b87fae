"""The benchmark's decomposed paths call the package's layers directly, so
every name they import from ``banffscore`` must still exist.  The benchmark
files are only parsed here, never run."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.mark.parametrize("file_name", ["decomposed.py", "workloads.py"])
def test_benchmark_imports_resolve(file_name):
    tree = ast.parse((BENCHMARKS / file_name).read_text(encoding="utf-8"))
    imported = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "banffscore"
        for alias in node.names
    ]
    assert imported, f"{file_name} imports nothing from banffscore"
    missing = [
        f"{module}.{name}"
        for module, name in imported
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing, f"{file_name} imports names banffscore no longer has: {missing}"
