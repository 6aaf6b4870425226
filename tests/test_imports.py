"""Tooling: every module-level import of the package and of the scripts is used."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# __init__.py re-exports what it imports, so it is exempt.
MODULES = sorted(
    path
    for path in (*(ROOT / "src" / "preqholo").glob("*.py"), *(ROOT / "scripts").glob("*.py"))
    if path.name != "__init__.py"
)


def _annotation_names(node) -> set:
    """The names in an annotation, including one written as a string."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        node = ast.parse(node.value, mode="eval")
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def unused_imports(source: str) -> list:
    """(line, name) of every module-level import whose name the module never uses."""
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            imported += [(node.lineno, alias.asname or alias.name.split(".")[0]) for alias in node.names]
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            used |= _annotation_names(node.returns)
    return [(line, name) for line, name in imported if name not in used]


def test_the_guard_finds_an_unused_import():
    source = "import math\nfrom numpy import array, zeros as z\n\n\ndef f(x: 'array') -> int:\n    return z(3)\n"
    assert unused_imports(source) == [(1, "math")]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text()) == []
