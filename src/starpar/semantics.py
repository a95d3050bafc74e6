"""Operational semantics: termination predicate, single-step relation, automaton derivation.

States of a derived automaton are literal expressions; no simplification such
as ``1.p -> p`` is applied, so two states are identical exactly when their
ASTs are structurally equal.  Within one derivation every node is taken from
a table of canonical nodes, one object per distinct subterm, so the rules
recognise equal states by identity and never hash or compare a tree.
"""

from __future__ import annotations

import json
import operator
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property, partial
from json.encoder import encode_basestring_ascii as _quote
from typing import TYPE_CHECKING, NamedTuple

from .syntax import (
    DEADLOCK,
    EMPTY,
    EMPTY_COMM,
    Act,
    Action,
    Alt,
    CommFn,
    Deadlock,
    Empty,
    Encap,
    Expression,
    Par,
    Seq,
    Star,
    parse_expression,
    render_expression,  # noqa: F401 - perfbench/tracing.py wraps the name here
    render_memoised,
)

if TYPE_CHECKING:
    from .analysis import SccDecomposition

DEFAULT_MAX_STATES = 100_000


class StateLimitExceeded(RuntimeError):
    """Raised when a derivation reaches more distinct states than allowed.
    Of the ``limit`` states reached, ``expanded`` had left the breadth-first
    queue (the last one partly explored) and ``queued`` were still in it."""

    def __init__(self, limit: int, expanded: int, queued: int):
        super().__init__(f"state limit of {limit} exceeded: {expanded} expanded, {queued} queued")
        self.limit = limit
        self.expanded = expanded
        self.queued = queued


class AutomatonFormatError(ValueError):
    """Malformed automaton JSON."""


class _Rules:
    """The SOS rules over canonical nodes, for one call.

    An instance serves one ``derive_automaton`` call, or one call of the
    public ``step`` or ``terminates``, and nothing outlives it.  ``canonical``
    maps the input tree to nodes of the instance's table, bottom-up and
    without recursion, and every node the rules build goes through the same
    table.  Its key is (node type, id of each canonical child); ``Act`` nodes
    are keyed by action name, ``Encap`` nodes by (blocked set, id of the
    body) and ``0``/``1`` by type.  Structurally equal terms are therefore one
    object, and ``terminating`` and ``step``, the render memo and derive's
    state index are keyed by ``id()`` without hashing or comparing a tree.

    ``canonical`` and ``step`` dispatch on ``type(node)``, most frequent kind
    first, and the lifting loops of ``.``, ``*``, ``||`` and ``encap`` look
    the table up inline, one dict lookup per move and no call.  ``||`` reads
    a child's memo entry before it recurses into the child.

    Invariant: the table holds every canonical node until the instance is
    dropped, so no id used as a key is reused while the call runs.  A node's
    termination flag is set in ``terminating`` once, as the node joins the
    table, from the flags of its children, which joined it before; nothing
    computes it later.  A node's moves are a tuple of (action, canonical
    target) pairs, no two with the same action name and target.  Each
    child's moves already are, so only moves from different sources can
    collide, and only three rules deduplicate: ``+`` and ``.`` when its left
    side terminates, whose two sides may offer the same move, and ``||``,
    but only when a communication fired or each side has a move back to
    itself.  Without communication a left lift ``(a, l' || R)`` equals a
    right lift ``(a, L || r')`` only when ``l'`` is ``L`` and ``r'`` is
    ``R``, and the lifts of one side differ in their targets.  The step
    memo only ever sees the one communication function it was built with.
    Only ``step`` recurses, one frame per nesting level.
    """

    __slots__ = ("_comm", "_table", "terminating", "_steps")

    def __init__(self, comm: CommFn):
        # gamma keyed by action names: a lookup hashes two strings, not two Actions
        self._comm = {(a.name, b.name): c for (a, b), c in comm._table.items()}
        self._table: dict[tuple, Expression] = {(Deadlock,): DEADLOCK, (Empty,): EMPTY}
        self.terminating: dict[int, bool] = {id(DEADLOCK): False, id(EMPTY): True}
        self._steps: dict[int, tuple[tuple[Action, Expression], ...]] = {}

    def canonical(self, e: Expression) -> Expression:
        """The table's node structurally equal to ``e``.  An input node whose
        children are already canonical joins the table as it is."""
        table = self._table
        terminating = self.terminating
        canon: dict[int, Expression] = {}
        stack = [e]
        while stack:
            node = stack[-1]
            if id(node) in canon:
                stack.pop()
                continue
            kind = type(node)
            if kind is Par or kind is Seq or kind is Alt:
                left = canon.get(id(node.left))
                right = canon.get(id(node.right))
                if left is None or right is None:
                    if left is None:
                        stack.append(node.left)
                    if right is None:
                        stack.append(node.right)
                    continue
                key = (kind, id(left), id(right))
                found = table.get(key)
                if found is None:
                    if left is node.left and right is node.right:
                        found = table[key] = node
                    else:
                        found = table[key] = kind(left, right)
                    if kind is Alt:
                        terminating[id(found)] = terminating[id(left)] or terminating[id(right)]
                    else:
                        terminating[id(found)] = terminating[id(left)] and terminating[id(right)]
            elif kind is Star or kind is Encap:
                body = canon.get(id(node.body))
                if body is None:
                    stack.append(node.body)
                    continue
                key = (Star, id(body)) if kind is Star else (Encap, node.blocked, id(body))
                found = table.get(key)
                if found is None:
                    if body is node.body:
                        found = table[key] = node
                    elif kind is Star:
                        found = table[key] = Star(body)
                    else:
                        found = table[key] = Encap(node.blocked, body)
                    terminating[id(found)] = kind is Star or terminating[id(body)]
            elif kind is Act:
                key = (Act, node.action.name)
                found = table.get(key)
                if found is None:
                    found = table[key] = node
                    terminating[id(found)] = False
            elif kind is Empty or kind is Deadlock:
                found = table[(kind,)]
            else:
                raise TypeError(f"not an expression: {node!r}")
            stack.pop()
            canon[id(node)] = found
        return canon[id(e)]

    def step(self, e: Expression) -> tuple[tuple[Action, Expression], ...]:
        steps = self._steps
        moves = steps.get(id(e))
        if moves is not None:
            return moves
        kind = type(e)
        table = self._table
        terminating = self.terminating
        if kind is Par:
            left = e.left
            right = e.right
            lsteps = steps.get(id(left))
            if lsteps is None:
                lsteps = self.step(left)
            rsteps = steps.get(id(right))
            if rsteps is None:
                rsteps = self.step(right)
            found = []
            right_id = id(right)
            right_ends = terminating[right_id]
            left_loops = right_loops = False
            for a, left2 in lsteps:
                if left2 is left:
                    left_loops = True
                key = (Par, id(left2), right_id)
                node = table.get(key)
                if node is None:
                    node = table[key] = Par(left2, right)
                    terminating[id(node)] = terminating[id(left2)] and right_ends
                found.append((a, node))
            left_id = id(left)
            left_ends = terminating[left_id]
            for b, right2 in rsteps:
                if right2 is right:
                    right_loops = True
                key = (Par, left_id, id(right2))
                node = table.get(key)
                if node is None:
                    node = table[key] = Par(left, right2)
                    terminating[id(node)] = left_ends and terminating[id(right2)]
                found.append((b, node))
            lifts = len(found)
            comm = self._comm
            if comm:
                for a, left2 in lsteps:
                    for b, right2 in rsteps:
                        c = comm.get((a.name, b.name))
                        if c is None:
                            continue
                        key = (Par, id(left2), id(right2))
                        node = table.get(key)
                        if node is None:
                            node = table[key] = Par(left2, right2)
                            terminating[id(node)] = (
                                terminating[id(left2)] and terminating[id(right2)]
                            )
                        found.append((c, node))
            if len(found) > lifts or (left_loops and right_loops):
                moves = _distinct(found)
            else:
                moves = tuple(found)
        elif kind is Seq:
            left = e.left
            right = e.right
            found = []
            right_id = id(right)
            right_ends = terminating[right_id]
            for a, left2 in self.step(left):
                key = (Seq, id(left2), right_id)
                node = table.get(key)
                if node is None:
                    node = table[key] = Seq(left2, right)
                    terminating[id(node)] = terminating[id(left2)] and right_ends
                found.append((a, node))
            if terminating[id(left)]:
                found += self.step(right)
                moves = _distinct(found)
            else:
                moves = tuple(found)
        elif kind is Alt:
            moves = _distinct(self.step(e.left) + self.step(e.right))
        elif kind is Star:
            found = []
            e_id = id(e)
            for a, body2 in self.step(e.body):
                key = (Seq, id(body2), e_id)
                node = table.get(key)
                if node is None:
                    node = table[key] = Seq(body2, e)
                    terminating[id(node)] = terminating[id(body2)]
                found.append((a, node))
            moves = tuple(found)
        elif kind is Act:
            moves = ((e.action, EMPTY),)
        elif kind is Encap:
            blocked = e.blocked
            found = []
            for a, body2 in self.step(e.body):
                if a not in blocked:
                    key = (Encap, blocked, id(body2))
                    node = table.get(key)
                    if node is None:
                        node = table[key] = Encap(blocked, body2)
                        terminating[id(node)] = terminating[id(body2)]
                    found.append((a, node))
            moves = tuple(found)
        else:  # 0 and 1
            moves = ()
        steps[id(e)] = moves
        return moves


def _distinct(moves) -> tuple[tuple[Action, Expression], ...]:
    """Canonical moves without repeats, in first-seen order."""
    return tuple({(a.name, id(target)): (a, target) for a, target in moves}.values())


def terminates(e: Expression) -> bool:
    """Decide the termination predicate on expressions.  The flag is set as
    each node joins the node table, so ``e`` is walked only by the iterative
    ``canonical`` and any depth is answered."""
    rules = _Rules(EMPTY_COMM)
    return rules.terminating[id(rules.canonical(e))]


def step(e: Expression, comm: CommFn = EMPTY_COMM) -> frozenset[tuple[Action, Expression]]:
    """All derivable single steps of ``e`` as (action, successor) pairs.

    A parallel composition interleaves its components and, when ``comm`` is
    defined on a pair of simultaneously enabled actions, also offers the
    communication step labelled with the result.  Passing the empty
    communication function gives the pure interleaving semantics.  The
    node table and the memos live for this one call only.
    """
    rules = _Rules(comm)
    return frozenset(rules.step(rules.canonical(e)))


class Transition(NamedTuple):
    """One labelled edge, as a named tuple: ``repr``, hash and ordering are
    those of a frozen ordered dataclass with the same fields, at half the
    construction cost and 64 bytes against 152.  Being a tuple, it is
    iterable and equal to the plain tuple ``(source, action, target)``."""

    source: int
    action: Action
    target: int


# Transition(s, a, t) runs the named tuple's Python-level __new__; derive and
# the JSON reader build the same value in C, at about 0.6 of the cost per edge.
_transition = partial(tuple.__new__, Transition)


def _is_state_id(value: object) -> bool:
    # A plain int only: JSON true/false load as bool, a subclass of int, and
    # an int subclass may print otherwise than json writes it.
    return type(value) is int


@dataclass(frozen=True)
class Automaton:
    """A finite labelled transition system with a termination predicate.

    States are the indices ``0 .. n_states - 1``, each with an optional text
    label.  As in the JSON form, an id is a plain ``int`` (not a ``bool``) and
    a label a ``str`` or ``None``.  Transitions are stored deduplicated and
    sorted by (source, action name, target).

    What the analyses read is computed once per automaton, on first use, and
    kept outside the fields: the successor and predecessor rows, the normed
    states, the SCC decomposition and the exit structure of the two checks.
    ``==``, ``hash``, ``repr``, pickles and copies see the fields only.
    """

    labels: tuple[str | None, ...]
    initial: int
    transitions: tuple[Transition, ...]
    terminating: frozenset[int]

    def __post_init__(self):
        # The types first, so that sorting and range checks compare integers only.
        labels = tuple(self.labels)
        if not all(label is None or isinstance(label, str) for label in labels):
            raise ValueError("each state label must be a string or None")
        terminating = frozenset(self.terminating)
        for s in (self.initial, *terminating):
            if not _is_state_id(s):
                raise ValueError(f"state id {s!r} is not an integer")
        transitions = tuple(self.transitions)
        for t in transitions:  # _is_state_id inlined: a call per id doubles this loop's cost
            if type(t.source) is not int or type(t.target) is not int:
                raise ValueError(f"transition {t} needs integer state ids")
        object.__setattr__(self, "labels", labels)
        # Deduplicated by key tuple: set() would hash every Action in Python.
        by_key = {(t.source, t.action.name, t.target): t for t in transitions}
        object.__setattr__(self, "transitions", tuple(by_key[k] for k in sorted(by_key)))
        object.__setattr__(self, "terminating", terminating)
        n = len(self.labels)
        if n == 0:
            raise ValueError("an automaton needs at least one state")
        if not 0 <= self.initial < n:
            raise ValueError(f"initial state {self.initial} out of range")
        for t in self.transitions:
            if not (0 <= t.source < n and 0 <= t.target < n):
                raise ValueError(f"transition {t} out of range")
        for s in self.terminating:
            if not 0 <= s < n:
                raise ValueError(f"terminating state {s} out of range")

    @property
    def n_states(self) -> int:
        return len(self.labels)

    def actions(self) -> tuple[Action, ...]:
        """Distinct transition labels, sorted by name."""
        return tuple(sorted(self._rows[2].values()))

    def out(self) -> list[list[tuple[Action, int]]]:
        """Adjacency by source state, in stored transition order."""
        succ, _, action_of = self._rows
        return [[(action_of[name], t) for name, t in row] for row in succ]

    @cached_property
    def _rows(
        self,
    ) -> tuple[list[list[tuple[str, int]]], list[list[tuple[str, int]]], dict[str, Action]]:
        """``(succ, pred, action_of)`` from one scan of the transitions: rows of
        (action name, target) and (action name, source) per state in stored
        order, and each name's ``Action``.  Callers must not modify them."""
        succ: list[list[tuple[str, int]]] = [[] for _ in range(self.n_states)]
        pred: list[list[tuple[str, int]]] = [[] for _ in range(self.n_states)]
        action_of: dict[str, Action] = {}
        for source, action, target in self.transitions:
            name = action.name
            action_of[name] = action
            succ[source].append((name, target))
            pred[target].append((name, source))
        return succ, pred, action_of

    @cached_property
    def _normed(self) -> frozenset[int]:
        """States from which some terminating state is reachable."""
        return _closure(self._rows[1], self.terminating)

    @cached_property
    def _scc(self) -> SccDecomposition:
        """The SCC decomposition, from the one Tarjan pass that
        ``analysis.scc_decompose`` and both checks share."""
        from .analysis import _tarjan  # analysis imports this module: bind at first use

        return _tarjan(self)

    @cached_property
    def _exits(self) -> tuple[tuple[tuple[int, ...], ...], tuple[frozenset[tuple[str, int]], ...]]:
        """Each SCC's alive exit states and each state's normed exits, as
        ``analysis._exit_structure`` builds them for both checks."""
        from .analysis import _exit_structure

        return _exit_structure(self)

    def __getstate__(self) -> dict:
        """Pickle and copy the fields only, not the cached properties
        (``_rows``, ``_normed``, ``_scc``, ``_exits``); a copy rebuilds them
        on first use."""
        return {k: v for k, v in self.__dict__.items() if not k.startswith("_")}

    def reachable(self) -> frozenset[int]:
        """States reachable from the initial state."""
        return _closure(self._rows[0], (self.initial,))


def _closure(rows: list[list[tuple[str, int]]], start: Iterable[int]) -> frozenset[int]:
    """States reachable from ``start`` along ``rows``, breadth first."""
    seen = set(start)
    queue = deque(seen)
    while queue:
        for _, s in rows[queue.popleft()]:
            if s not in seen:
                seen.add(s)
                queue.append(s)
    return frozenset(seen)


def derive_automaton(
    e: Expression,
    comm: CommFn = EMPTY_COMM,
    max_states: int = DEFAULT_MAX_STATES,
) -> Automaton:
    """Breadth-first closure of the step relation from ``e``.

    States are numbered in discovery order, with each state's successors
    explored sorted by (action name, rendered successor); labels carry the
    rendered expressions.  Raises StateLimitExceeded once more than
    ``max_states`` distinct expressions have been reached.  The canonical
    node table with its termination flags, and the step and label memos
    keyed by node id, live for this call only and are dropped when it returns.
    """
    if max_states < 1:
        raise ValueError("max_states must be positive")
    rules = _Rules(comm)
    e = rules.canonical(e)
    rendered: dict[int, str] = {}
    index: dict[int, int] = {id(e): 0}
    labels: list[str] = [render_memoised(e, rendered)]
    queue: deque[Expression] = deque([e])
    transitions: list[Transition] = []
    terminating: set[int] = set()
    by_name_and_label = operator.itemgetter(0, 1)
    while queue:
        current = queue.popleft()
        source = index[id(current)]
        if rules.terminating[id(current)]:
            terminating.add(source)
        successors = []
        for action, target in rules.step(current):
            label = rendered.get(id(target))
            if label is None:
                label = render_memoised(target, rendered)
            successors.append((action.name, label, action, target))
        successors.sort(key=by_name_and_label)
        for _, label, action, target in successors:
            target_index = index.get(id(target))
            if target_index is None:
                if len(index) >= max_states:
                    raise StateLimitExceeded(max_states, len(index) - len(queue), len(queue))
                target_index = index[id(target)] = len(index)
                labels.append(label)
                queue.append(target)
            transitions.append(_transition((source, action, target_index)))
    return Automaton(
        labels=tuple(labels),
        initial=0,
        transitions=tuple(transitions),
        terminating=frozenset(terminating),
    )


def state_expressions(a: Automaton) -> tuple[Expression, ...]:
    """Recover the state expressions of a derived automaton from its labels."""
    if any(label is None for label in a.labels):
        raise ValueError("automaton has unlabelled states")
    return tuple(parse_expression(label) for label in a.labels)


# ---------------------------------------------------------------------------
# Serialisation
# ---------------------------------------------------------------------------


def automaton_to_json(a: Automaton) -> str:
    """Byte-stable JSON rendering of an automaton: the text ``json.dumps(...,
    indent=2)`` writes for it, built directly, since ``indent`` sends ``json``
    to its pure-Python encoder.  Labels are quoted by ``json``'s C string
    encoder; action names are identifiers and need no escaping."""
    term = a.terminating
    states = ",\n".join([
        f'    {{\n      "id": {i},\n      "terminating": {"true" if i in term else "false"}\n    }}'
        if label is None
        else f'    {{\n      "id": {i},\n      "label": {_quote(label)},\n'
        f'      "terminating": {"true" if i in term else "false"}\n    }}'
        for i, label in enumerate(a.labels)
    ])
    transitions = ",\n".join([
        f'    {{\n      "from": {source},\n      "action": "{action.name}",\n'
        f'      "to": {target}\n    }}'
        for source, action, target in a.transitions
    ])
    head = f'{{\n  "states": [\n{states}\n  ],\n  "initial": {a.initial},\n  "transitions": '
    return f"{head}[\n{transitions}\n  ]\n}}\n" if transitions else f"{head}[]\n}}\n"


def automaton_from_dict(obj: object) -> Automaton:
    if not isinstance(obj, dict):
        raise AutomatonFormatError("top level must be an object")
    try:
        raw_states = obj["states"]
        initial = obj["initial"]
        raw_transitions = obj["transitions"]
    except KeyError as exc:
        raise AutomatonFormatError(f"missing key {exc.args[0]!r}") from exc
    if not isinstance(raw_states, list) or not raw_states:
        raise AutomatonFormatError("'states' must be a non-empty array")
    labels: list[str | None] = [None] * len(raw_states)
    terminating = set()
    seen_ids = set()
    for entry in raw_states:
        if not isinstance(entry, dict) or not _is_state_id(entry.get("id")):
            raise AutomatonFormatError("each state needs an integer 'id'")
        i = entry["id"]
        if not 0 <= i < len(raw_states) or i in seen_ids:
            raise AutomatonFormatError(f"state ids must be 0..{len(raw_states) - 1} without repeats")
        seen_ids.add(i)
        label = entry.get("label")
        if label is not None and not isinstance(label, str):
            raise AutomatonFormatError(f"state {i}: 'label' must be a string")
        labels[i] = label
        flag = entry.get("terminating", False)
        if not isinstance(flag, bool):
            raise AutomatonFormatError(f"state {i}: 'terminating' must be true or false")
        if flag:
            terminating.add(i)
    if not _is_state_id(initial):
        raise AutomatonFormatError("'initial' must be an integer state id")
    if not isinstance(raw_transitions, list):
        raise AutomatonFormatError("'transitions' must be an array")
    transitions = []
    actions: dict[str, Action] = {}  # one Action, and one name check, per distinct name
    for entry in raw_transitions:
        if not isinstance(entry, dict):
            raise AutomatonFormatError("each transition must be an object")
        try:
            source, name, target = entry["from"], entry["action"], entry["to"]
        except KeyError as exc:
            raise AutomatonFormatError(f"transition missing key {exc.args[0]!r}") from exc
        if not _is_state_id(source) or not _is_state_id(target) or not isinstance(name, str):
            raise AutomatonFormatError(f"malformed transition {entry!r}")
        action = actions.get(name)
        if action is None:
            try:
                action = actions[name] = Action(name)
            except ValueError as exc:
                raise AutomatonFormatError(str(exc)) from exc
        transitions.append(_transition((source, action, target)))
    try:
        return Automaton(
            labels=tuple(labels),
            initial=initial,
            transitions=tuple(transitions),
            terminating=frozenset(terminating),
        )
    except ValueError as exc:
        raise AutomatonFormatError(str(exc)) from exc


def automaton_from_json(text: str) -> Automaton:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise AutomatonFormatError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise AutomatonFormatError("invalid JSON: nested too deeply") from exc
    return automaton_from_dict(obj)


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def automaton_to_dot(a: Automaton) -> str:
    """GraphViz rendering: terminating states double-circled, initial marked
    by an arrow from an unlabelled point node."""
    lines = ["digraph automaton {", "  rankdir=LR;", '  __initial__ [shape=point, label=""];']
    for i in range(a.n_states):
        shape = "doublecircle" if i in a.terminating else "circle"
        label = a.labels[i] if a.labels[i] is not None else str(i)
        lines.append(f'  s{i} [shape={shape}, label="{_dot_escape(label)}"];')
    lines.append(f"  __initial__ -> s{a.initial};")
    for t in a.transitions:
        lines.append(f'  s{t.source} -> s{t.target} [label="{_dot_escape(t.action.name)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
