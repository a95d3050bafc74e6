"""The package's recursive functions, pinned.  Every other walk is iterative,
so only the functions in ``RECURSIVE`` can run out of stack on deep input.
The list may only shrink: a walk made iterative leaves it, and a new
recursive function fails this test."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "starpar"

RECURSIVE = ["semantics._Rules.step", "syntax.render_memoised"]


def _own_nodes(function: ast.AST):
    """The nodes of a function's body, without those of the functions and
    classes defined inside it."""
    stack = list(ast.iter_child_nodes(function))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            stack += ast.iter_child_nodes(node)


def recursive_functions(source: str) -> list[str]:
    """Qualified names of the functions of a module that call themselves,
    directly or through other functions of the module.  Calls resolve by
    name: ``f(...)`` to every function named ``f``, and ``self.f(...)`` to
    the methods named ``f`` of the class the call is made in."""
    functions = {}  # qualified name -> (node, name of the enclosing class)
    stack = [(ast.parse(source), "", None)]
    while stack:
        scope, prefix, cls = stack.pop()
        for node in ast.iter_child_nodes(scope):
            if isinstance(node, ast.ClassDef):
                stack.append((node, f"{prefix}{node.name}.", node.name))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions[prefix + node.name] = (node, cls)
                stack.append((node, f"{prefix}{node.name}.", cls))
            else:
                stack.append((node, prefix, cls))
    calls = {}
    for name, (node, cls) in functions.items():
        called = set()
        for call in _own_nodes(node):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            if isinstance(func, ast.Name):
                called |= {other for other, (f, _) in functions.items() if f.name == func.id}
            elif isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "self":
                called |= {
                    other for other, (f, c) in functions.items() if f.name == func.attr and c == cls
                }
        calls[name] = called
    found = []
    for name in functions:
        seen = set()
        todo = list(calls[name])
        while todo:
            other = todo.pop()
            if other not in seen:
                seen.add(other)
                todo += calls[other]
        if name in seen:
            found.append(name)
    return sorted(found)


@pytest.mark.parametrize(
    "source, found",
    [
        ("def f(n):\n    return f(n - 1)\n", ["f"]),
        ("def f():\n    g()\n\ndef g():\n    f()\n", ["f", "g"]),
        ("def f():\n    g()\n\ndef g():\n    pass\n", []),
        ("class C:\n    def m(self):\n        self.m()\n", ["C.m"]),
        ("class C:\n    def m(self):\n        other.m()\n", []),
        ("def outer():\n    def inner():\n        inner()\n    inner()\n", ["outer.inner"]),
        (
            "class C:\n    def m(self):\n        def helper():\n            self.m()\n        helper()\n",
            ["C.m", "C.m.helper"],
        ),
        ("class C:\n    def m(self):\n        self.n()\n\nclass D:\n    def n(self):\n        self.m()\n", []),
    ],
)
def test_recursion_is_found(source, found):
    assert recursive_functions(source) == found


def test_only_the_pinned_functions_recurse():
    found = [
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for name in recursive_functions(path.read_text())
    ]
    assert found == RECURSIVE
