"""Package layout: how the modules of ``phasecode`` import one another,
which of them knows the packed-code bit layout, where output pins live, that
no module imports a name it never reads, and that the CLI writes files only
through its atomic writer."""

import ast
from graphlib import TopologicalSorter
from pathlib import Path

import phasecode

SOURCES = sorted(Path(phasecode.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


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


def test_only_codes_knows_the_bit_layout():
    # ``np.packbits``, ``np.unpackbits`` and big-endian word views spell out
    # the packed-code layout ("packbits" matches both); every other module
    # goes through ``codes``.
    spelled = [f"{path.name}:{lineno}"
               for path in SOURCES if path.name != "codes.py"
               for lineno, line in enumerate(path.read_text().splitlines(), 1)
               if any(token in line for token in ("packbits", ">u8"))]
    assert spelled == []


def test_ci_holds_no_output_pin():
    # Every pinned output is a row of ``tests/golden.py``, which the test
    # suite runs; CI runs the suite, not a second copy of the pins.
    workflow = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"
    pinned = [f"tests.yml:{lineno}"
              for lineno, line in enumerate(workflow.read_text().splitlines(), 1)
              if "sha256sum -c" in line or "grep -F" in line]
    assert pinned == []


def test_relative_imports_are_at_module_level():
    nested = []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        nested += [f"{path.name}:{node.lineno}" for node in relative_imports(tree)
                   if node not in tree.body]
    assert nested == []


def unread_imports(tree):
    """The names a module's top-level imports bind that no expression of it reads."""
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_no_module_imports_a_name_it_never_reads():
    # A package's ``__init__.py`` imports its exports, which it never reads.
    unread = [f"{path.parent.name}/{path.name}: {name}"
              for path in SOURCES + TESTS if path.name != "__init__.py"
              for name in unread_imports(ast.parse(path.read_text()))]
    assert unread == []


def test_cli_writes_files_only_through_atomic_open():
    # ``cli._atomic_open`` writes a temp file and moves it into place, so no
    # artifact is ever left torn; every other write would bypass that.
    tree = ast.parse(Path(phasecode.__file__).with_name("cli.py").read_text())
    atomic = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "_atomic_open")
    inside = set(ast.walk(atomic))
    writes = [f"cli.py:{node.lineno}" for node in ast.walk(tree)
              if isinstance(node, ast.Call) and node not in inside
              and getattr(node.func, "id", getattr(node.func, "attr", None))
              in ("open", "write_text", "write_bytes")]
    assert writes == []
