"""Every module-level private name in the package is used somewhere in it,
and private names cross only the module boundaries listed here."""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "banffscore").glob("*.py"))


# (importing module, imported module) -> the private names it imports
PRIVATE_IMPORTS = {
    ("ingest", "geometry"): {"_EdgeTable"},
    ("synth", "geometry"): {"_BLOCK_PAIRS", "_contains", "_EdgeTable"},
    ("synth", "ingest"): {"_ring_columns"},
    ("synth", "scoring"): {"_counted", "_graded", "_section_details"},
}


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def defined_names(tree: ast.Module):
    """(name, statement) for each private name (``_x``, not dunder) that a
    module's top-level statements define."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if is_private(name):
                yield name, node


def used_names(node: ast.AST):
    """The names read under ``node``: as a name, as an attribute or in an import."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and not isinstance(child.ctx, ast.Store):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr
        elif isinstance(child, ast.ImportFrom):
            yield from (alias.name for alias in child.names)


def test_every_private_name_is_used_outside_its_definition():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    uses = Counter(name for tree in trees.values() for name in used_names(tree))
    unused = [
        f"{module}:{statement.lineno} {name}"
        for module, tree in trees.items()
        for name, statement in defined_names(tree)
        if uses[name] == Counter(used_names(statement))[name]
    ]
    assert SOURCES and not unused, unused


def test_private_names_cross_only_the_listed_module_boundaries():
    imported = {}
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:  # a module of the package
                names = {alias.name for alias in node.names if is_private(alias.name)}
                if names:
                    imported.setdefault((path.stem, node.module), set()).update(names)
    assert imported == PRIVATE_IMPORTS
