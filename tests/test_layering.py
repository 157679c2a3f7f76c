"""The package's imports run one way: every module imports, at module level,
only modules below it, so no import waits until call time to break a cycle."""

import ast
import graphlib
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "edgering"
# bottom to top; io and fixtures sit beside the analysis layers, below the
# acceptance suite that loads fixtures
LAYERS = ("errors", "graph_core", "lattices", "facets", "semigroup", "exceptional",
          "hole_families", "io", "fixtures", "acceptance", "cli", "__init__")


def _trees():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _internal_imports(tree) -> set:
    # `from .x import ...` names x; `from . import x` names x when x is a module
    found = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found |= {a.name for a in node.names if (PACKAGE / f"{a.name}.py").exists()}
    return found


def test_no_import_inside_a_function_or_class():
    nested = []
    for name, tree in _trees().items():
        for scope in ast.walk(tree):
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                nested += [f"{name}.{scope.name}:{node.lineno}" for node in ast.walk(scope)
                           if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert nested == []


def test_module_imports_are_acyclic_and_point_down():
    graph = {name: _internal_imports(tree) for name, tree in _trees().items()}
    assert set(graph) == set(LAYERS)
    # raises graphlib.CycleError naming the cycle
    tuple(graphlib.TopologicalSorter(graph).static_order())
    upward = [(name, dep) for name, deps in graph.items() for dep in deps
              if LAYERS.index(dep) >= LAYERS.index(name)]
    assert upward == []


def test_every_export_resolves_once():
    # a stale name in __all__ (say, of a deleted class) breaks only
    # `from edgering import *`, which no other test runs
    import edgering

    assert len(edgering.__all__) == len(set(edgering.__all__))
    assert [name for name in edgering.__all__ if not hasattr(edgering, name)] == []
