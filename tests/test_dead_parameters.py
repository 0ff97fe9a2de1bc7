"""Every parameter of the program's functions is read: a parameter that no
body reads is an option no caller can use, and one more thing to document."""

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
