"""Import hygiene of the package, read from the source with `ast`.

A helper that another module needs gets a public name, and imports from
sibling modules sit at module level, where the dependencies of a module
can be read at a glance.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "knitgraph").glob("*.py"))


def _sibling_imports(tree: ast.Module):
    """(node, enclosing function or None) for each `from .x import ...`."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ImportFrom) and child.level:
                found.append((child, function))
            inner = child if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
            visit(child, inner)

    visit(tree, None)
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_names_from_sibling_modules(path):
    tree = ast.parse(path.read_text(), str(path))
    private = [
        f"line {node.lineno}: {alias.name} from .{node.module}"
        for node, _function in _sibling_imports(tree)
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_sibling_imports_inside_functions(path):
    tree = ast.parse(path.read_text(), str(path))
    nested = [
        f"line {node.lineno}: from .{node.module} in {function.name}()"
        for node, function in _sibling_imports(tree)
        if function is not None
    ]
    assert nested == []


def test_sources_are_found():
    assert {"cli.py", "graphs.py", "yarn.py"} <= {p.name for p in SOURCES}
