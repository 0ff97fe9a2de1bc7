"""Every parameter of the program's functions is read: a parameter that no
body reads is an option no caller can use, and one more thing to document.
Likewise every name a module imports is read, or exported through its
__all__: an import that nothing reads is left over from code that went."""

import ast
from pathlib import Path

import pytest

SRC = sorted((Path(__file__).resolve().parent.parent / "src" / "maskorder").glob("*.py"))


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


@pytest.mark.parametrize("path", [p for p in SRC if p.name != "__init__.py"], ids=lambda p: p.name)
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
