"""Tooling: every module-level import of the package is used, every
module-level private name of its modules is read, and a run of verify
imports no module that only tests need."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# __init__.py re-exports what it imports, so it is exempt.
MODULES = sorted(path for path in (ROOT / "src" / "preqholo").glob("*.py") if path.name != "__init__.py")
SOURCES = {path.stem: path.read_text() for path in (ROOT / "src" / "preqholo").glob("*.py")}


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


def _private_bindings(tree):
    """(line, name) of each private name a module binds at its top level: ``_x = ...``, ``def _x``, ``class _X``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                yield node.lineno, name


def unread_private_names(sources: dict) -> list:
    """(module, line, name) of every module-level private name that no module of ``sources`` reads.

    ``sources`` maps module names to their source.  A module reads its own
    private name by name; another reads it as an attribute (``m._x``) or
    imports it (``from .m import _x``).  A name of the same spelling in
    another module does not count.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    attributes, imported = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported |= {(node.module.rsplit(".", 1)[-1], alias.name) for alias in node.names}
    unread = []
    for module, tree in trees.items():
        loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for line, name in _private_bindings(tree):
            if name not in loaded and name not in attributes and (module, name) not in imported:
                unread.append((module, line, name))
    return unread


def test_the_guard_finds_an_unread_private_name():
    # b reads a name spelled like a's _unread, but its own
    sources = {
        "a": "_read = 1\n_unread = 2\n__version__ = '1'\n\n\n"
        "def _imported():\n    return _read\n\n\nclass _Kept:\n    pass\n",
        "b": "import a\nfrom .a import _imported\n\n_unread = a._Kept\nprint(_unread)\n",
    }
    assert unread_private_names(sources) == [("a", 2, "_unread")]


def test_every_module_level_private_name_is_read():
    assert unread_private_names(SOURCES) == []


def test_verify_imports_neither_numpy_polynomial_nor_scipy():
    # numpy.polynomial pages its eigensolver and ~4 ms of imports into a
    # run; the package's own Gauss-Legendre rule stands in for it, and scipy
    # is a test dependency only
    script = (
        "import sys\n"
        "from preqholo.verify import verify_level\n"
        "verify_level(1)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m.startswith('numpy.polynomial')))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"
