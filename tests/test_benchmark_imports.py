"""The benchmark's decomposed paths call the package's layers directly, so
every name they import from ``banffscore`` must still exist and take the
arguments they pass.  The benchmark files are only parsed here, never run.
Those paths also read a detection table as rows and pass row lists on, so
the row view is pinned here as well."""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from banffscore.geometry import assign_detections, build_index
from banffscore.ingest import dedup_detections
from banffscore.model import OTHER, CellClass, Detection, DetectionTable
from banffscore.synth import SceneSpec, generate_scene

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


@pytest.mark.parametrize("file_name", ["decomposed.py", "workloads.py"])
def test_benchmark_call_arguments_bind(file_name):
    """Every call the file makes to a ``banffscore`` name (or to an attribute
    of one, such as ``SceneSpec.from_dict``) binds to that callable's
    signature, keyword names and positional count included."""
    tree = ast.parse((BENCHMARKS / file_name).read_text(encoding="utf-8"))
    names = {
        alias.asname or alias.name: getattr(importlib.import_module(node.module), alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "banffscore"
        for alias in node.names
    }
    checked, unbound = 0, []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in names:
            target = names[func.id]
        elif (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in names
        ):
            target = getattr(names[func.value.id], func.attr)
        else:
            continue
        if any(isinstance(a, ast.Starred) for a in node.args) or any(k.arg is None for k in node.keywords):
            continue
        checked += 1
        try:
            inspect.signature(target).bind(*node.args, **{k.arg: k.value for k in node.keywords})
        except TypeError as exc:
            unbound.append(f"line {node.lineno}: {ast.unparse(node)[:80]}: {exc}")
    assert checked, f"{file_name} makes no call to a banffscore name"
    assert not unbound, f"{file_name} calls banffscore with arguments it no longer takes: {unbound}"


def test_row_view_gives_what_the_columns_give():
    """``decomposed.py`` iterates a table and filters its rows into a list,
    which it hands to dedup and assignment."""
    spec = SceneSpec(section_id="rows", glomerulus_cells=(5, 3), ptc_cells=(4,), artery_cells=(2,),
                     background_cells=40, seed=3)
    scene, _ = generate_scene(spec)
    table = scene.detections + DetectionTable.from_rows([Detection("x", (1.0, 2.0), CellClass(OTHER, "mast"), 0.5)])
    rows = list(table)
    assert all(type(d) is Detection for d in rows)
    assert [d.id for d in rows] == table.ids.tolist()
    assert [d.point for d in rows] == list(zip(table.xs.tolist(), table.ys.tolist()))
    assert [d.cls for d in rows] == [table.classes[k] for k in table.codes.tolist()]
    assert [d.confidence for d in rows] == table.confidences.tolist()
    for radius in (0.0, 8.0, 50.0):
        assert dedup_detections(rows, radius) == dedup_detections(table, radius)
    assert len(dedup_detections(table, 50.0)) < len(table)
    index = build_index(scene.instances)
    assigned = assign_detections(table, scene.instances, index)
    assert assign_detections(rows, scene.instances, index) == assigned
    assert sum(assigned.counts.values()) > 0
