"""Derivation recognises equal states by identity: every node comes from a
per-call table of canonical nodes, so ``derive_automaton`` never hashes or
compares an expression tree.  This keeps the hot path off structural
hashing, which the expression classes still offer to other callers."""

from starpar import Action, CommFn, derive_automaton, parse_expression
from starpar.syntax import Act, Alt, Deadlock, Empty, Encap, Par, Seq, Star

NODE_CLASSES = (Deadlock, Empty, Act, Seq, Alt, Star, Par, Encap)


def count_calls(monkeypatch) -> list[str]:
    """Replace ``__hash__`` and ``__eq__`` of every expression class by a
    wrapper that records each call."""
    calls: list[str] = []
    for cls in NODE_CLASSES:
        for name in ("__hash__", "__eq__"):
            original = getattr(cls, name)

            def counted(self, *args, _original=original, _name=f"{cls.__name__}.{name}"):
                calls.append(_name)
                return _original(self, *args)

            monkeypatch.setattr(cls, name, counted)
    return calls


def test_derive_never_hashes_or_compares_an_expression(monkeypatch):
    e = parse_expression("(a.b+c)*.d || (e.f)*.g || encap{x}((h+i)*.x)")
    gamma = CommFn([(Action("b"), Action("f"), Action("s"))])
    calls = count_calls(monkeypatch)
    auto = derive_automaton(e, gamma)
    assert calls == []
    assert auto.n_states == 4 * 4 * 2
    assert "s" in {t.action.name for t in auto.transitions}
    # The wrappers are live: structural hashing and equality still count.
    assert hash(e) == hash(parse_expression("(a.b+c)*.d || (e.f)*.g || encap{x}((h+i)*.x)"))
    assert calls
