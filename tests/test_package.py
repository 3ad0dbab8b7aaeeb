"""Package layout: how the modules of ``phasecode`` import one another."""

import ast
from graphlib import TopologicalSorter
from pathlib import Path

import phasecode

SOURCES = sorted(Path(phasecode.__file__).parent.glob("*.py"))


def relative_imports(tree):
    """Every ``from . import`` / ``from .module import`` node of a module, at any depth."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level]


def test_relative_import_graph_has_no_cycle():
    graph = {}
    for path in SOURCES:
        graph[path.stem] = deps = set()
        for node in relative_imports(ast.parse(path.read_text())):
            deps.update([node.module] if node.module else [a.name for a in node.names])
    # Raises ``graphlib.CycleError``, naming the cycle, if there is one.
    list(TopologicalSorter(graph).static_order())


def test_relative_imports_are_at_module_level():
    nested = []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        nested += [f"{path.name}:{node.lineno}" for node in relative_imports(tree)
                   if node not in tree.body]
    assert nested == []
