"""Every parameter of the program's functions is read: a parameter that no
body reads is an option no caller can use, and one more thing to document.
Likewise every name a module imports is read, or exported through its
__all__: an import that nothing reads is left over from code that went. And
every name an __all__ lists is bound: an export that outlives its code
breaks `from module import *`. The package root re-exports nothing, so each
name has one place to be imported from."""

import ast
import importlib
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "maskorder").glob("*.py"))


def functions(tree):
    """Module-level functions and the methods of module-level classes."""
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else [node]
        for fn in members:
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield (f"{node.name}." if fn is not node else "") + fn.name, fn


def unread_parameters(fn):
    """Named parameters the body never reads; a catch-all such as
    __exit__(self, *exc) names no option, so it is not counted."""
    args = fn.args
    params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    read = {
        node.id
        for stmt in fn.body
        for node in ast.walk(stmt)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [p for p in params if p not in ("self", "cls") and p not in read]


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    dead = {name: unread for name, fn in functions(tree) if (unread := unread_parameters(fn))}
    assert dead == {}, f"{path.name}: parameters no body reads"


def test_the_scan_finds_an_unread_parameter():
    tree = ast.parse("def f(a, b, *rest, c=None):\n    return a + (lambda: b)()\n")
    assert [unread_parameters(fn) for _, fn in functions(tree)] == [["c"]]


def unused_imports(tree):
    """Names the module imports and never reads, skipping `from __future__`
    and the names listed in its __all__."""
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    exported = {
        elt.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for elt in node.value.elts
    }
    return sorted(imported - read - exported)


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_every_import_is_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert unused_imports(tree) == [], f"{path.name}: imports no body reads"


def test_the_scan_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path, json as js\n"
        "from typing import NamedTuple, Sequence\n"
        "from .core import save_archive\n"
        "__all__ = ['save_archive']\n"
        "def f(x: Sequence):\n    return os.path.join(x)\n"
    )
    assert unused_imports(ast.parse(source)) == ["NamedTuple", "js"]


def unbound_exports(module):
    """Names the module's __all__ lists and the module does not bind."""
    return [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_every_exported_name_is_bound(path):
    module = importlib.import_module("maskorder" if path.stem == "__init__" else f"maskorder.{path.stem}")
    assert unbound_exports(module) == [], f"{path.name}: __all__ lists names it does not bind"


def test_the_scan_finds_an_unbound_export():
    module = types.ModuleType("m")
    exec("__all__ = ['f', 'gone']\ndef f():\n    pass\n", module.__dict__)
    assert unbound_exports(module) == ["gone"]


def test_every_package_import_names_a_module():
    """The package root imports nothing, and every `from maskorder import x`
    in the program, its tests and its benchmark names a module."""
    init = ast.parse(SRC[0].read_text())
    assert not [node for node in ast.walk(init) if isinstance(node, (ast.Import, ast.ImportFrom))]
    modules = {path.stem for path in SRC}
    not_modules = [
        f"{path.name}: {alias.name}"
        for path in [*SRC, *ROOT.glob("tests/*.py"), *ROOT.glob("bench/*.py")]
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and (node.module, node.level) in (("maskorder", 0), (None, 1))
        for alias in node.names
        if alias.name not in modules
    ]
    assert not_modules == [], "names imported from the package root instead of their module"
