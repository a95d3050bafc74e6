"""The communication-function path and derivation work on action names: a
``str`` caches its hash, while the dataclass ``Action`` hashes and compares
in Python.  ``Action`` objects stay at the API boundary, so building,
querying, validating, dumping and loading a handshaking table, and deriving
an encoding or an ``encap`` below ``.``, call none of ``Action``'s
``__hash__``, ``__eq__``, ``__lt__`` or ``__le__``."""

from starpar import (
    Action,
    CommFn,
    derive_automaton,
    dump_comm_fn,
    encode_fa,
    load_comm_fn,
    parse_expression,
    validate_comm_fn,
)
from tests.samples import four_state_fa

DUNDERS = ("__hash__", "__eq__", "__lt__", "__le__")


def count_calls(monkeypatch) -> list[str]:
    """Replace the ``Action`` dunders in ``DUNDERS`` by wrappers that record
    each call."""
    calls: list[str] = []
    for name in DUNDERS:
        original = getattr(Action, name)

        def counted(self, *args, _original=original, _name=name):
            calls.append(_name)
            return _original(self, *args)

        monkeypatch.setattr(Action, name, counted)
    return calls


def handshaking_rules(k: int) -> list[tuple[Action, Action, Action]]:
    return [(Action(f"s{i}"), Action(f"r{i}"), Action(f"c{i}")) for i in range(k)]


def test_gamma_path_calls_no_action_dunder(monkeypatch):
    rules = handshaking_rules(6)
    closure = [action for rule in rules for action in rule]
    calls = count_calls(monkeypatch)
    g = CommFn(rules)
    found = [g.lookup(a, b) for a in closure for b in closure]
    pairs = g.pairs()
    report = validate_comm_fn(g)
    text = dump_comm_fn(g)
    loaded = load_comm_fn(text)
    assert calls == []
    assert sum(c is not None for c in found) == 2 * len(rules)
    assert len(pairs) == len(rules)
    assert report.associative and report.handshaking
    assert text.splitlines()[0] == "r0 s0 -> c0"
    assert loaded.lookup(Action("s3"), Action("r3")).name == "c3"


def test_derive_calls_no_action_dunder(monkeypatch):
    enc = encode_fa(four_state_fa())
    below_dot = parse_expression("encap{b}((a.b+c)*.d || (e.b)*) . encap{x}(x+y) . z")
    gamma = CommFn([(Action("a"), Action("e"), Action("s"))])
    calls = count_calls(monkeypatch)
    encoded = derive_automaton(enc.expression, enc.gamma)
    blocked = derive_automaton(below_dot, gamma)
    assert calls == []
    assert encoded.n_states == 4
    assert {t.action.name for t in blocked.transitions} == {"a", "c", "d", "e", "s", "y", "z"}


def test_encode_fa_hashes_only_its_public_tables(monkeypatch):
    """``action_index`` hashes the m actions and ``control.all_actions`` the
    n enter and n * m leave actions; nothing else hashes or compares one."""
    fa = four_state_fa()
    n, m = fa.n_states, len(fa.actions())
    calls = count_calls(monkeypatch)
    enc = encode_fa(fa)
    assert len(calls) <= n + n * m + m
    assert set(calls) <= {"__hash__"}
    assert len(enc.action_index) == m
    assert len(enc.control.all_actions) == n + n * m


def test_wrappers_are_live(monkeypatch):
    calls = count_calls(monkeypatch)
    a, b = Action("a"), Action("b")
    hash(a)
    assert a == Action("a")
    assert a < b and a <= b
    assert calls == ["__hash__", "__eq__", "__lt__", "__le__"]
