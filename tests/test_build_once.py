"""Each automaton is built in its final form once.  ``derive_automaton``,
``minimize`` and the JSON reader, given the writer's own output, make their
transitions deduplicated, sorted and checked, and hand the fields to
``semantics._canonical_automaton``, which skips ``Automaton.__post_init__``.
What they build must be exactly what the public constructor builds from the
same fields."""

import json
import pickle
import random

from starpar import (
    Action,
    Automaton,
    CommFn,
    Theory,
    Transition,
    automaton_from_json,
    automaton_to_json,
    derive_automaton,
    encode_fa,
    generate_random_expression,
    minimize,
    parse_expression,
)
from tests.oracles import random_connected_fa
from tests.test_semantics import ONE_RULE_GAMMA, random_acp_terms


def count_post_init(monkeypatch) -> list[Automaton]:
    """Replace ``Automaton.__post_init__`` by a wrapper that records each call."""
    calls: list[Automaton] = []
    original = Automaton.__post_init__

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(Automaton, "__post_init__", counted)
    return calls


def test_derive_minimize_and_read_skip_the_public_checks(monkeypatch):
    e = parse_expression("(a.b+c)*.d || (e.f)*.g || encap{x}((h+i)*.x)")
    gamma = CommFn([(Action("b"), Action("f"), Action("s"))])
    calls = count_post_init(monkeypatch)
    a = derive_automaton(e, gamma)
    assert calls == []
    m = minimize(a)
    assert calls == []
    loaded = automaton_from_json(automaton_to_json(a))
    assert calls == []
    assert loaded == a and a.n_states == 4 * 4 * 2 and m.n_states < a.n_states
    # The wrapper is live: the public constructor still runs the checks.
    assert Automaton(a.labels, a.initial, a.transitions, a.terminating) == a
    assert len(calls) == 1


def assert_as_public(a: Automaton) -> None:
    """``a`` equals, field for field and type for type, what the public
    constructor builds from its fields, and pickles to the same bytes."""
    public = Automaton(a.labels, a.initial, a.transitions, a.terminating)
    assert a == public
    assert hash(a) == hash(public) and repr(a) == repr(public)
    assert pickle.dumps(a) == pickle.dumps(public)
    assert type(a.labels) is tuple and type(a.transitions) is tuple
    assert type(a.terminating) is frozenset and type(a.initial) is int
    assert all(type(t) is Transition for t in a.transitions)
    assert all(type(t.source) is int and type(t.target) is int for t in a.transitions)
    assert all(type(s) is int for s in a.terminating)


def differential_cases():
    """Derived automata of 300 seeded BPA and PA terms, of 100 ``encap``
    wrapped ACP terms under ``a b -> a``, and of the encodings of 40 random
    connected automata."""
    for i in range(150):
        for theory in (Theory.BPA, Theory.PA):
            yield derive_automaton(generate_random_expression(theory, 5, 31_000 + i))
    for e in random_acp_terms(100, 4, 7_300):
        yield derive_automaton(e, ONE_RULE_GAMMA)
    rng = random.Random(4_040)
    for _ in range(40):
        enc = encode_fa(random_connected_fa(rng, max_states=10))
        yield derive_automaton(enc.expression, enc.gamma)


def test_built_automata_equal_the_public_constructors():
    count = 0
    for a in differential_cases():
        m = minimize(a)
        for built in (a, m, *(automaton_from_json(automaton_to_json(x)) for x in (a, m))):
            assert_as_public(built)
        count += 1
    assert count == 440


def test_reader_normalises_shuffled_and_repeated_transitions():
    rng = random.Random(1_414)
    tried = normalised = 0
    for e in random_acp_terms(200, 4, 5_200):
        a = derive_automaton(e, ONE_RULE_GAMMA)
        obj = json.loads(automaton_to_json(a))
        entries = obj["transitions"]
        if len(entries) < 3:
            continue
        tried += 1
        entries += rng.sample(entries, rng.randint(0, len(entries)))
        rng.shuffle(entries)
        given = [Transition(t["from"], Action(t["action"]), t["to"]) for t in entries]
        public = Automaton(a.labels, a.initial, tuple(given), a.terminating)
        loaded = automaton_from_json(json.dumps(obj))
        assert loaded == public == a
        assert_as_public(loaded)
        normalised += list(loaded.transitions) != given
    assert tried > 80 and normalised > 0.9 * tried
