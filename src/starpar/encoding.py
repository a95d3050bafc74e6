"""Encoding of an arbitrary finite automaton into an expression with
communication and encapsulation, plus verification that the derived automaton
is isomorphic to the input.

The encoding runs one parallel component per state.  Exactly one component is
in control at any time; a transition of the input automaton is simulated by a
communication between the controlling component's leave action and the target
component's enter action, with the original action as the result.  Self-loops
are executed inside the controlling component, which must not release control.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .equivalence import IsoResult, isomorphic
from .semantics import DEFAULT_MAX_STATES, Automaton, _Rules, derive_automaton
from .syntax import (
    DEADLOCK,
    EMPTY,
    EMPTY_COMM,
    Act,
    Action,
    Alt,
    CommFn,
    Encap,
    Expression,
    Par,
    Seq,
    Star,
)


class InvalidAutomaton(ValueError):
    """Input automaton not suitable for encoding."""


@dataclass(frozen=True, eq=False)
class ControlAlphabet:
    """Fresh control actions: one enter per state, one leave per
    (action index, state index) pair."""

    enter: tuple[Action, ...]
    leave: dict[tuple[int, int], Action]
    all_actions: frozenset[Action]


@dataclass(frozen=True, eq=False)
class EncodingResult:
    """Encoded expression with its communication function.

    ``components`` lists the per-state components in state order, followed by
    the primed variant of the initial state's component.  ``expression`` is the
    encapsulated left-associated parallel chain with the initial component
    primed.
    """

    expression: Expression
    gamma: CommFn
    components: tuple[Expression, ...]
    action_index: dict[Action, int]
    control: ControlAlphabet


def _fresh_name(base: str, forbidden: set[str]) -> str:
    name = base
    while name in forbidden:
        name += "_"
    forbidden.add(name)
    return name


def _control_action(name: str) -> Action:
    """``Action(name)`` without ``__post_init__``'s checks, for the names
    ``_fresh_name`` makes: ``enter_{i}`` or ``leave_{k}_{j}`` plus
    underscores, always an identifier and never a reserved word."""
    action = object.__new__(Action)
    object.__setattr__(action, "name", name)
    return action


def _sum(terms: list[Expression]) -> Expression:
    """Left-associated alternative; the empty sum is deadlock."""
    if not terms:
        return DEADLOCK
    return reduce(Alt, terms)


def encode_fa(fa: Automaton) -> EncodingResult:
    """Build the expression and communication function simulating ``fa``.

    Every state must be reachable from the initial state; the derived
    automaton of the result is isomorphic to ``fa`` (see verify_encoding).
    """
    n = fa.n_states
    unreachable = sorted(set(range(n)) - fa.reachable())
    if unreachable:
        raise InvalidAutomaton(f"unreachable states {unreachable}; encode reachable automata only")

    succ, _, _ = fa._rows
    alphabet = fa.actions()
    index_of = {action.name: k for k, action in enumerate(alphabet)}
    action_index = {action: k for k, action in enumerate(alphabet)}
    m = len(alphabet)

    forbidden = {action.name for action in alphabet}
    enter = tuple(_control_action(_fresh_name(f"enter_{i}", forbidden)) for i in range(n))
    leave = {
        (k, j): _control_action(_fresh_name(f"leave_{k}_{j}", forbidden))
        for k in range(m)
        for j in range(n)
    }
    control = ControlAlphabet(
        enter=enter,
        leave=leave,
        all_actions=frozenset(enter) | frozenset(leave.values()),
    )

    components = []
    for i, moves in enumerate(succ):
        loops = sorted(index_of[name] for name, j in moves if j == i)
        leaves = sorted((index_of[name], j) for name, j in moves if j != i)
        self_sum = _sum([Act(alphabet[k]) for k in loops])
        leave_sum = _sum([Act(leave[k, j]) for k, j in leaves])
        if i in fa.terminating:
            leave_sum = Alt(leave_sum, EMPTY)
        # Body left-associated: the a_k loop state then literally repeats
        # itself, so a self-loop of the input stays a single derived state.
        body = Seq(Seq(Act(enter[i]), Star(self_sum)), leave_sum)
        components.append(Seq(EMPTY, Star(body)))

    gamma = CommFn(
        (enter[i], leave[k, i], alphabet[k]) for i in range(n) for k in range(m)
    )

    # The primed component is the unique operational successor of the initial
    # state's component, which guarantees the cycle returns to it exactly.
    # The rules are asked directly: the public ``step`` returns a frozenset,
    # which would hash the move's Action and the successor's whole tree.
    rules = _Rules(EMPTY_COMM)
    initial_steps = rules.step(rules.canonical(components[fa.initial]))
    if len(initial_steps) != 1:  # pragma: no cover - single enter action by construction
        raise RuntimeError("component must have a unique initial step")
    ((enter_action, primed),) = initial_steps
    if enter_action.name != enter[fa.initial].name:  # pragma: no cover
        raise RuntimeError("component's initial step must be its enter action")

    chain = reduce(Par, [primed if i == fa.initial else components[i] for i in range(n)])
    expression = Encap(control.all_actions, chain)
    return EncodingResult(
        expression=expression,
        gamma=gamma,
        components=tuple(components) + (primed,),
        action_index=action_index,
        control=control,
    )


def verify_encoding(fa: Automaton, max_states: int = DEFAULT_MAX_STATES) -> IsoResult:
    """Derive the automaton of the encoded expression and check it is
    isomorphic to the input; the mapping sends input states to derived ones."""
    enc = encode_fa(fa)
    derived = derive_automaton(enc.expression, enc.gamma, max_states)
    return isomorphic(fa, derived)


def encoding_manifest(fa: Automaton, enc: EncodingResult) -> dict:
    """JSON-ready description of the generated control names."""
    actions = sorted(enc.action_index, key=lambda a: enc.action_index[a])
    return {
        "states": fa.n_states,
        "actions": [a.name for a in actions],
        "enter": [a.name for a in enc.control.enter],
        "leave": [
            {"action": k, "state": j, "name": enc.control.leave[k, j].name}
            for (k, j) in sorted(enc.control.leave)
        ],
    }
