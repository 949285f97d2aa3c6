"""Import hygiene of the package, read from the source with `ast`.

A helper that another module needs gets a public name, and imports from
sibling modules sit at module level, where the dependencies of a module
can be read at a glance. networkx is the exception the other way: only
the planarity test needs it, so importing the CLI must not load it.
"""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src"
SOURCES = sorted((SRC / "knitgraph").glob("*.py"))


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


def test_cli_import_leaves_networkx_unloaded():
    # only a planarity test that a drawing does not settle imports networkx
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import knitgraph.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'networkx'))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(SRC)], capture_output=True, text=True, timeout=120
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")
