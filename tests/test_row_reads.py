"""Per-state reads go through ``Automaton._adjacency()``, which groups the
transitions once: outside ``semantics.py`` no module of the package reads an
automaton's ``transitions`` except for its length."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "starpar"


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


def test_only_semantics_groups_the_transitions():
    modules = sorted(set(PACKAGE.rglob("*.py")) - {PACKAGE / "semantics.py"})
    assert len(modules) > 1
    found = [
        f"{path.relative_to(PACKAGE)}:{line}"
        for path in modules
        for line in transition_reads(path.read_text())
    ]
    assert found == []
