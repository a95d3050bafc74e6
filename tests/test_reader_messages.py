"""What ``automaton_from_json`` says when it rejects an input: each case is a
JSON text and the exact ``AutomatonFormatError`` message.  Where two entries
are bad, the message must name the one it names here.  The range checks
report the first bad transition in (source, action name, target) order, as
the public ``Automaton`` constructor does."""

import json

import pytest

from starpar import AutomatonFormatError, automaton_from_json
from starpar.semantics import automaton_from_dict

OK = {"from": 0, "action": "a", "to": 1}


def automaton(states=2, initial=0, transitions=()):
    """The JSON text of an automaton object; ``states`` is a count of plain
    states or the list of state entries itself."""
    if isinstance(states, int):
        states = [{"id": i} for i in range(states)]
    return json.dumps({"states": states, "initial": initial, "transitions": list(transitions)})


def edge(source, name, target):
    return {"from": source, "action": name, "to": target}


CASES = {
    # the top level
    "not an object": ("[]", "top level must be an object"),
    "no states": ('{"initial": 0, "transitions": []}', "missing key 'states'"),
    "no initial": ('{"states": [{"id": 0}], "transitions": []}', "missing key 'initial'"),
    "no transitions": ('{"states": [{"id": 0}], "initial": 0}', "missing key 'transitions'"),
    "empty states": (automaton(states=[]), "'states' must be a non-empty array"),
    "states not an array": (automaton(states={"id": 0}), "'states' must be a non-empty array"),
    # state entries
    "state not an object": (
        automaton(states=[{"id": 0}, 5, "x"]),
        "each state needs an integer 'id'",
    ),
    "state id a boolean": (
        automaton(states=[{"id": 0}, {"id": True}, {"id": "2"}]),
        "each state needs an integer 'id'",
    ),
    "state id out of range": (
        automaton(states=[{"id": 0}, {"id": 3}, {"id": 0}]),
        "state ids must be 0..2 without repeats",
    ),
    "state id repeated": (
        automaton(states=[{"id": 1}, {"id": 1}, {"id": 7}]),
        "state ids must be 0..2 without repeats",
    ),
    "label not a string": (
        automaton(states=[{"id": 0}, {"id": 1, "label": 1}, {"id": 2, "label": ["p"]}]),
        "state 1: 'label' must be a string",
    ),
    "terminating not a boolean": (
        automaton(states=[{"id": 0, "terminating": 0}, {"id": 1, "terminating": "yes"}]),
        "state 0: 'terminating' must be true or false",
    ),
    # the initial state
    "initial a string": (automaton(initial="0"), "'initial' must be an integer state id"),
    "initial a boolean": (automaton(initial=False), "'initial' must be an integer state id"),
    "initial too large": (automaton(initial=2), "initial state 2 out of range"),
    "initial negative": (automaton(initial=-1), "initial state -1 out of range"),
    "initial before transitions": (
        automaton(initial=5, transitions=[edge(0, "a", 9)]),
        "initial state 5 out of range",
    ),
    # transition entries
    "transitions not an array": (
        '{"states": [{"id": 0}], "initial": 0, "transitions": {}}',
        "'transitions' must be an array",
    ),
    "transition not an object": (
        '{"states": [{"id": 0}, {"id": 1}], "initial": 0,'
        ' "transitions": [{"from": 0, "action": "a", "to": 1}, 3, [0, "a", 1]]}',
        "each transition must be an object",
    ),
    "transition missing a key": (
        automaton(transitions=[OK, {"from": 0, "to": 1}, {"action": "a", "to": 1}]),
        "transition missing key 'action'",
    ),
    "transition missing every key": (
        automaton(transitions=[OK, {}, {"from": 0}]),
        "transition missing key 'from'",
    ),
    "source a boolean": (
        automaton(transitions=[OK, edge(True, "a", 1), edge(0, "a", "1")]),
        "malformed transition {'from': True, 'action': 'a', 'to': 1}",
    ),
    "target a string": (
        automaton(transitions=[OK, edge(0, "a", "1"), edge(False, "a", 1)]),
        "malformed transition {'from': 0, 'action': 'a', 'to': '1'}",
    ),
    "target a float": (
        automaton(transitions=[edge(0, "a", 1.0), edge(0, 1, 1)]),
        "malformed transition {'from': 0, 'action': 'a', 'to': 1.0}",
    ),
    "action not a string": (
        automaton(transitions=[OK, edge(0, None, 1), edge(0, "a", None)]),
        "malformed transition {'from': 0, 'action': None, 'to': 1}",
    ),
    "invalid action name": (
        automaton(transitions=[OK, edge(0, "1x", 1), edge(0, "b-c", 1)]),
        "invalid action name '1x'",
    ),
    "reserved action name": (
        automaton(transitions=[edge(1, "encap", 0), edge(0, "", 1)]),
        "'encap' is a reserved word and cannot name an action",
    ),
    "invalid name before a malformed entry": (
        automaton(transitions=[edge(1, "x y", 0), edge(0, "a", True)]),
        "invalid action name 'x y'",
    ),
    "malformed entry before an invalid name": (
        automaton(transitions=[edge(0, "a", True), edge(1, "x y", 0)]),
        "malformed transition {'from': 0, 'action': 'a', 'to': True}",
    ),
    # transition ranges, checked after every entry has been read
    "source too large": (
        automaton(transitions=[OK, edge(2, "a", 0)]),
        "transition Transition(source=2, action=Action(name='a'), target=0) out of range",
    ),
    "source negative": (
        automaton(transitions=[edge(-1, "a", 0), OK]),
        "transition Transition(source=-1, action=Action(name='a'), target=0) out of range",
    ),
    "target negative": (
        automaton(transitions=[edge(0, "b", -1), OK]),
        "transition Transition(source=0, action=Action(name='b'), target=-1) out of range",
    ),
    "first out of range in sorted order": (
        automaton(transitions=[edge(1, "a", 0), edge(0, "b", 7), edge(0, "a", 9)]),
        "transition Transition(source=0, action=Action(name='a'), target=9) out of range",
    ),
    "out of range before a malformed entry": (
        automaton(transitions=[edge(0, "a", 9), edge(0, "a", None)]),
        "malformed transition {'from': 0, 'action': 'a', 'to': None}",
    ),
    "out of range before an invalid name": (
        automaton(transitions=[edge(5, "a", 0), edge(0, "9", 1)]),
        "invalid action name '9'",
    ),
    "out of range among duplicates": (
        automaton(transitions=[edge(1, "a", 3), OK, OK, edge(1, "a", 3)]),
        "transition Transition(source=1, action=Action(name='a'), target=3) out of range",
    ),
}


@pytest.mark.parametrize("text, message", list(CASES.values()), ids=list(CASES))
def test_rejection_message(text, message):
    with pytest.raises(AutomatonFormatError) as caught:
        automaton_from_json(text)
    assert type(caught.value) is AutomatonFormatError
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "entry",
    [
        {"from": 0, "action": "a", "to": 1, "extra": 0},
        type("Entry", (dict,), {})(OK),
    ],
    ids=["extra key", "dict subclass"],
)
def test_accepted_entries(entry):
    """Extra keys are ignored and a ``dict`` subclass is an object."""
    obj = {"states": [{"id": 0}, {"id": 1}], "initial": 0, "transitions": [entry]}
    a = automaton_from_dict(obj)
    assert [(t.source, t.action.name, t.target) for t in a.transitions] == [(0, "a", 1)]


def test_mapping_that_is_not_a_dict_is_rejected():
    class Entry:
        def __getitem__(self, key):
            return OK[key]

    obj = {"states": [{"id": 0}, {"id": 1}], "initial": 0, "transitions": [OK, Entry()]}
    with pytest.raises(AutomatonFormatError, match="^each transition must be an object$"):
        automaton_from_dict(obj)
