"""Per-state reads go through ``Automaton._rows``, which groups the
transitions once, and an automaton's caches live in ``semantics.py`` alone:
outside it no module of the package reads an automaton's ``transitions``
except for its length, or reads or writes an instance ``__dict__``."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "starpar"
OUTSIDE_SEMANTICS = sorted(set(PACKAGE.rglob("*.py")) - {PACKAGE / "semantics.py"})


def transition_reads(source: str) -> list[int]:
    """Lines that read an attribute named ``transitions`` other than as the
    argument of ``len()``: a ``for`` loop, a comprehension, ``sorted``, ..."""
    tree = ast.parse(source)
    counted = {
        id(node.args[0])
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "len"
        and len(node.args) == 1
    }
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr == "transitions"
        and isinstance(node.ctx, ast.Load)
        and id(node) not in counted
    ]


@pytest.mark.parametrize(
    "source, lines",
    [
        ("for t in a.transitions:\n    pass\n", [1]),
        ("x = {t.action.name: t.action for t in a.transitions}\n", [1]),
        ("x = [t for t in sorted(a.transitions)]\n", [1]),
        ("n = len(a.transitions) != len(b.transitions)\n", []),
        ("Automaton(transitions=())\n", []),
    ],
)
def test_reads_are_found(source, lines):
    assert transition_reads(source) == lines


def dict_uses(source: str) -> list[int]:
    """Lines that read or write an attribute named ``__dict__``, or call
    ``vars()``."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if (isinstance(node, ast.Attribute) and node.attr == "__dict__")
        or (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "vars")
    ]


@pytest.mark.parametrize(
    "source, lines",
    [
        ('x = a.__dict__.get("_normed")\n', [1]),
        ('a.__dict__["_normed"] = x\n', [1]),
        ("d = vars(a)\n", [1]),
        ("y = a._normed\n", []),
    ],
)
def test_dict_uses_are_found(source, lines):
    assert dict_uses(source) == lines


def uses_outside_semantics(finder) -> list[str]:
    assert len(OUTSIDE_SEMANTICS) > 1
    return [
        f"{path.relative_to(PACKAGE)}:{line}"
        for path in OUTSIDE_SEMANTICS
        for line in finder(path.read_text())
    ]


def test_only_semantics_groups_the_transitions():
    assert uses_outside_semantics(transition_reads) == []


def test_only_semantics_touches_an_instance_dict():
    assert uses_outside_semantics(dict_uses) == []
