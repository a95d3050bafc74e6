"""Graph and syntax analyses: SCCs, normedness, exit structure, the OC measure,
and the necessary-condition checks for expressibility with and without
interleaving."""

from __future__ import annotations

import random
from dataclasses import dataclass

from .semantics import Automaton
from .syntax import (
    DEADLOCK,
    EMPTY,
    Act,
    Action,
    Alt,
    Deadlock,
    Empty,
    Encap,
    Expression,
    Par,
    Seq,
    Star,
    Theory,
    subterms,
)


class UnsupportedExpression(ValueError):
    """Raised when an operation is applied outside its expression class."""


@dataclass(frozen=True)
class SccDecomposition:
    """Partition of an automaton's states into strongly connected components.

    Component ids are assigned in reverse topological order of the
    condensation: a component only reaches components with ids no larger than
    its own.  A component is trivial when it is a single state without a
    self-loop.
    """

    component_of: tuple[int, ...]
    members: tuple[tuple[int, ...], ...]
    trivial: tuple[bool, ...]

    @property
    def count(self) -> int:
        return len(self.members)

    def non_trivial(self) -> tuple[int, ...]:
        return tuple(cid for cid in range(self.count) if not self.trivial[cid])


def scc_decompose(a: Automaton) -> SccDecomposition:
    """The strongly connected components of ``a``, computed on the first call
    for an automaton and shared with the two checks; callers must not rely on
    getting a fresh object."""
    return a._scc


def _tarjan(a: Automaton) -> SccDecomposition:
    """Tarjan's single-pass algorithm, iterative, with deterministic ids."""
    n = a.n_states
    adjacency = a._rows[0]
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0

    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        # One frame per state on the search path: the state and an iterator
        # over its successors, which resumes where it stopped.
        work = [(root, iter(adjacency[root]))]
        while work:
            v, successors = work[-1]
            for _, w in successors:
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(adjacency[w])))
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if low[v] == index[v]:
                    component = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        component.append(w)
                        if w == v:
                            break
                    components.append(sorted(component))
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])

    component_of = [0] * n
    trivial = []
    for cid, members in enumerate(components):
        for s in members:
            component_of[s] = cid
        trivial.append(len(members) == 1 and all(t != members[0] for _, t in adjacency[members[0]]))
    return SccDecomposition(
        component_of=tuple(component_of),
        members=tuple(tuple(m) for m in components),
        trivial=tuple(trivial),
    )


def normed_states(a: Automaton) -> frozenset[int]:
    """States from which some terminating state is reachable, walked once
    per automaton and kept beside its cached rows."""
    return a._normed


@dataclass(frozen=True, order=True)
class ExitTransition:
    """A transition leaving the SCC of its source state."""

    action: Action
    target: int


def exit_transitions(a: Automaton, d: SccDecomposition, s: int) -> frozenset[ExitTransition]:
    """All (action, target) pairs from ``s`` whose target lies outside SCC(s)."""
    cid = d.component_of[s]
    succ, _, action_of = a._rows
    return frozenset(
        ExitTransition(action_of[name], t) for name, t in succ[s] if d.component_of[t] != cid
    )


def normed_exit_transitions(
    a: Automaton,
    d: SccDecomposition,
    s: int,
    normed: frozenset[int] | None = None,
) -> frozenset[ExitTransition]:
    """Exit transitions of ``s`` restricted to normed targets."""
    if normed is None:
        normed = normed_states(a)
    return frozenset(e for e in exit_transitions(a, d, s) if e.target in normed)


def alive_exit_states(
    a: Automaton,
    d: SccDecomposition,
    scc: int,
    normed: frozenset[int] | None = None,
) -> frozenset[int]:
    """Members of the SCC that terminate or have a normed exit transition."""
    if normed is None:
        normed = normed_states(a)
    return frozenset(
        s
        for s in d.members[scc]
        if s in a.terminating or normed_exit_transitions(a, d, s, normed)
    )


def exit_equivalent(e1: ExitTransition, e2: ExitTransition, d: SccDecomposition) -> bool:
    """Exit transitions are equivalent when their actions are equal and their
    targets share a strongly connected component."""
    return e1.action == e2.action and d.component_of[e1.target] == d.component_of[e2.target]


def oc_measure(e: Expression) -> int:
    """Structural measure that never increases along transitions.

    Constants 0 and 1 measure 0, an action measures 1, a star measures 1, a
    parallel composition measures 0, an alternative measures one more than its
    larger side, and a sequential composition measures 0 when its right side
    is a star and one more than the right side's measure otherwise.  Defined
    only on encapsulation-free expressions: an ``encap`` raises
    UnsupportedExpression, and a node that is no expression TypeError,
    wherever it sits in the tree.
    """
    # Reversed pre-order puts every node after its descendants.  ``e`` keeps
    # every node alive, so ids are not reused while this runs.
    measure: dict[int, int] = {}
    for node in reversed(list(subterms(e))):
        kind = type(node)
        if kind is Act or kind is Star:
            value = 1
        elif kind is Seq:
            value = 0 if type(node.right) is Star else measure[id(node.right)] + 1
        elif kind is Alt:
            value = max(measure[id(node.left)], measure[id(node.right)]) + 1
        elif kind is Par or kind is Empty or kind is Deadlock:
            value = 0
        elif kind is Encap:
            raise UnsupportedExpression("measure is undefined on encapsulation")
        else:
            raise TypeError(f"not an expression: {node!r}")
        measure[id(node)] = value
    return measure[id(e)]


# ---------------------------------------------------------------------------
# Necessary-condition checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Witness:
    scc: int
    states: tuple[int, ...]
    details: str


@dataclass(frozen=True)
class PropertyReport:
    """Verdict of a structural check, with re-checkable witnesses on failure."""

    property: str
    verdict: str
    witnesses: tuple[Witness, ...]

    @property
    def holds(self) -> bool:
        return self.verdict == "pass"

    def to_dict(self) -> dict:
        return {
            "property": self.property,
            "verdict": self.verdict,
            "witnesses": [
                {"scc": w.scc, "states": list(w.states), "details": w.details}
                for w in self.witnesses
            ],
        }


def _exit_structure(
    a: Automaton,
) -> tuple[tuple[tuple[int, ...], ...], tuple[frozenset[tuple[str, int]], ...]]:
    """Each SCC's alive exit states in increasing order, and each state's
    normed exit set, from one pass over the successor rows.  Kept on the
    automaton as ``a._exits``, so both are tuples.

    Equal to ``alive_exit_states`` and ``normed_exit_transitions`` called on
    every component and state, with exits as (action name, target) pairs.
    """
    d = a._scc
    normed = a._normed
    component_of = d.component_of
    extn = tuple([
        frozenset((x, t) for x, t in row if t in normed and component_of[t] != component_of[s])
        for s, row in enumerate(a._rows[0])
    ])
    terminating = a.terminating
    alive = tuple([
        tuple([s for s in members if s in terminating or extn[s]]) for members in d.members
    ])
    return alive, extn


def _state_name(a: Automaton, s: int) -> str:
    label = a.labels[s]
    return f"{s} ({label})" if label is not None else str(s)


def _render_exits(a: Automaton, exits: frozenset[tuple[str, int]], names: dict[int, str]) -> str:
    """``names`` holds each target's ``_state_name`` once it is rendered, so a
    state in many exit sets is rendered once."""
    return "{" + ", ".join(
        f"({name}, {names.get(t) or names.setdefault(t, _state_name(a, t))})"
        for name, t in sorted(exits)
    ) + "}"


def check_bpa_property(a: Automaton) -> PropertyReport:
    """Necessary condition for expressibility without interleaving: within each
    non-trivial SCC, all alive exit states have identical sets of normed exit
    transitions, and agree on the termination flag."""
    d = scc_decompose(a)
    alive_of, extn = a._exits
    names: dict[int, str] = {}
    witnesses = []
    for cid in d.non_trivial():
        alive = alive_of[cid]
        if len(alive) < 2:
            continue
        if len({extn[s] for s in alive}) > 1:
            details = "normed exit sets differ: " + "; ".join(
                f"Extn({_state_name(a, s)}) = {_render_exits(a, extn[s], names)}" for s in alive
            )
            witnesses.append(Witness(cid, tuple(alive), details))
        flags = {s: s in a.terminating for s in alive}
        if len(set(flags.values())) > 1:
            details = "termination flags differ among alive exit states: " + "; ".join(
                f"{_state_name(a, s)} {'terminates' if flag else 'does not terminate'}"
                for s, flag in flags.items()
            )
            witnesses.append(Witness(cid, tuple(alive), details))
    verdict = "pass" if not witnesses else "fail"
    return PropertyReport("bpa", verdict, tuple(witnesses))


def check_pa_property(a: Automaton) -> PropertyReport:
    """Necessary condition for expressibility with pure interleaving: every SCC
    with an alive exit state has a maximal one, covering all alive exit states'
    normed exits up to action-plus-target-SCC equivalence."""
    d = scc_decompose(a)
    alive_of, extn = a._exits
    witnesses = []
    for cid, alive in enumerate(alive_of):
        if not alive:
            continue
        classes = {
            s: frozenset((name, d.component_of[t]) for name, t in extn[s]) for s in alive
        }
        required: set[tuple[str, int]] = set()
        for c in classes.values():
            required |= c
        if not any(classes[s] >= required for s in alive):
            details = (
                "no maximal alive exit state; required exit classes (action, target scc) = "
                + str(sorted(required))
                + "; "
                + "; ".join(f"{_state_name(a, s)} covers " + str(sorted(classes[s])) for s in alive)
            )
            witnesses.append(Witness(cid, tuple(alive), details))
    verdict = "pass" if not witnesses else "fail"
    return PropertyReport("pa", verdict, tuple(witnesses))


# ---------------------------------------------------------------------------
# Random expression generation
# ---------------------------------------------------------------------------

_LEAVES = (
    DEADLOCK,
    EMPTY,
    Act(Action("a")),
    Act(Action("b")),
    Act(Action("c")),
    Act(Action("d")),
)
_BPA_OPS = ("seq", "alt", "star")
_PA_OPS = ("seq", "alt", "star", "par")
_BINARY_OPS = {"seq": Seq, "alt": Alt, "par": Par}


def generate_random_expression(theory: Theory, max_depth: int, seed: int) -> Expression:
    """Deterministic pseudo-random expression over the alphabet {a, b, c, d}.

    Leaves and operators are drawn 50/50 at every level below ``max_depth``;
    the small alphabet maximises state collisions, which is what the SCC
    analyses stress.  Only the encapsulation-free theories are supported.
    """
    if theory not in (Theory.BPA, Theory.PA):
        raise ValueError(f"unsupported theory for generation: {theory}")
    ops = _BPA_OPS if theory is Theory.BPA else _PA_OPS
    rng = random.Random(seed)
    # Depth-first with an explicit stack: an int is a subtree of that depth
    # still to draw, an operator name builds its node from the finished
    # operands on ``done``.  A node's draws come before its left subtree's,
    # and the left subtree's before the right's.
    done: list[Expression] = []
    todo: list = [max_depth]
    while todo:
        item = todo.pop()
        if type(item) is str:
            if item == "star":
                done.append(Star(done.pop()))
            else:
                right = done.pop()
                done.append(_BINARY_OPS[item](done.pop(), right))
        elif item <= 0 or rng.random() < 0.5:
            done.append(rng.choice(_LEAVES))
        else:
            op = rng.choice(ops)
            todo += [op, item - 1] if op == "star" else [op, item - 1, item - 1]
    return done[0]
