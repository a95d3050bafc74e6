"""Operational semantics: termination predicate, single-step relation, automaton derivation.

States of a derived automaton are literal expressions; no simplification such
as ``1.p -> p`` is applied, so two states are identical exactly when their
ASTs are structurally equal.  Within one derivation every node is taken from
a table of canonical nodes, one object per distinct subterm, so the rules
recognise equal states by identity and never hash or compare a tree.

A root that is ``||`` or ``encap`` is derived as a product of leaf states
(see ``_derive_product``); every other root state by state through the
rules.  Both derivations hand each state's moves to one numbering step,
``_number``, which orders, numbers and limits the new states.
"""

from __future__ import annotations

import json
import operator
from collections import Counter, deque
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from functools import partial
from itertools import accumulate
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
    _flatten_spine,
    _wrap,
    parse_expression,
    render_expression,  # noqa: F401 - perfbench/tracing.py wraps the name here
    render_memoised,
    subterms,
)

if TYPE_CHECKING:
    from .analysis import SccDecomposition

DEFAULT_MAX_STATES = 100_000


class StateLimitExceeded(RuntimeError):
    """Raised when a derivation would reach more distinct states than
    allowed: a state whose new states do not all fit raises before any of
    them is numbered or ordered, so the spine product joins none of their
    labels.  ``expanded`` counts the states that left the breadth-first
    queue, that one included, and ``queued`` is ``limit - expanded``."""

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
    table.  A node is keyed by (node type, id of each canonical child);
    ``Act`` nodes by action name, ``Encap`` nodes by (blocked names, id of
    the body) and ``0``/``1`` by type.  Structurally equal terms are therefore
    one object, and ``terminating`` and ``step``, the render memo and
    derive's state index are keyed by ``id()`` without hashing or comparing
    a tree.

    ``step`` gives the moves of every node outside the spine of a ``||`` or
    ``encap`` root (see ``_derive_product``): the states of any other root,
    the states of a spine's leaves, ``||`` below ``.``, ``+`` or ``*`` among
    them, and the argument of the public ``step``.  ``canonical`` and
    ``step`` dispatch on ``type(node)``, most frequent kind first.  The
    rules for ``.``, ``*`` and ``||`` lift a premise's moves through
    ``_lift``, one call per list of moves, which looks each lifted node up
    in the table or adds it with its termination flag; ``encap`` filters
    its body's moves and interns the survivors inline, keyed by its blocked
    names.  The communication function is indexed by action name, each
    name mapping its partners' names to the result, so a left move whose
    name has no partner skips the right side's moves.  An ``encap`` tests
    its moves' names against its blocked names, which ``_blocked`` keeps
    per ``id()`` of each blocked set the table holds, so no rule hashes or
    compares an ``Action``.

    Invariant: the table holds every canonical node until the instance is
    dropped, so no id used as a key is reused while the call runs.  A node's
    termination flag is set in ``terminating`` once, as the node joins the
    table, from the flags of its children, which joined before it; nothing
    computes it later.  ``canonical`` records beside it, in ``bound``, an
    upper bound on the number of states reachable from the node: 2 for an
    action, the sum of the operands' bounds for ``.`` and ``+``, the body's
    plus one for ``*``, the product for ``||``, the body's for ``encap`` and
    1 for ``0`` and ``1``.  Only the nodes ``canonical`` adds have one, and
    every call canonicalises its input before its first step, so each child
    ``canonical`` meets has its bound.  A node's moves are a tuple of
    (action, canonical target) pairs, no two with the same action name and
    target.  Each child's moves already are, so only moves from different
    sources can collide, and only three rules deduplicate, each always:
    ``+`` and ``.`` when its left side terminates, whose two sides may offer
    the same move, and ``||``, where a left lift ``(a, l' || R)`` equals a
    right lift ``(a, L || r')`` when each side has an ``a`` move back to
    itself and a communication may equal a lift or another communication.
    The step memo only ever sees the one communication function it was
    built with.  Only ``step`` recurses, one frame per nesting level.
    """

    __slots__ = ("_partners", "_table", "_blocked", "terminating", "bound", "_steps")

    def __init__(self, comm: CommFn):
        partners: dict[str, dict[str, Action]] = {}
        for (a, b), c in comm._table.items():
            partners.setdefault(a, {})[b] = c
        self._partners = partners
        self._blocked: dict[int, frozenset[str]] = {}
        self._table: dict[tuple, Expression] = {(Deadlock,): DEADLOCK, (Empty,): EMPTY}
        self.terminating: dict[int, bool] = {id(DEADLOCK): False, id(EMPTY): True}
        self.bound: dict[int, int] = {id(DEADLOCK): 1, id(EMPTY): 1}
        self._steps: dict[int, tuple[tuple[Action, Expression], ...]] = {}

    def canonical(self, e: Expression) -> Expression:
        """The table's node structurally equal to ``e``.  An input node whose
        children are already canonical joins the table as it is.  Reversed
        ``subterms`` order puts every child before its parent, so one pass
        finds each child in ``canon``.  A subtree shared in ``e`` is visited
        once per occurrence: the cost is linear in the size of the tree, not
        of the DAG, as for ``==`` and ``hash``."""
        table = self._table
        terminating = self.terminating
        bound = self.bound
        canon: dict[int, Expression] = {}
        for node in reversed(list(subterms(e))):
            kind = type(node)
            if kind is Par or kind is Seq or kind is Alt:
                left = canon[id(node.left)]
                right = canon[id(node.right)]
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
                    if kind is Par:
                        bound[id(found)] = bound[id(left)] * bound[id(right)]
                    else:
                        bound[id(found)] = bound[id(left)] + bound[id(right)]
            elif kind is Star or kind is Encap:
                body = canon[id(node.body)]
                if kind is Star:
                    key = (Star, id(body))
                else:
                    blocked = node.blocked
                    names = self._blocked.get(id(blocked))
                    if names is None:
                        names = self._blocked[id(blocked)] = frozenset(a.name for a in blocked)
                    key = (Encap, names, id(body))
                found = table.get(key)
                if found is None:
                    if body is node.body:
                        found = table[key] = node
                    elif kind is Star:
                        found = table[key] = Star(body)
                    else:
                        found = table[key] = Encap(node.blocked, body)
                    terminating[id(found)] = kind is Star or terminating[id(body)]
                    bound[id(found)] = bound[id(body)] + (kind is Star)
            elif kind is Act:
                key = (Act, node.action.name)
                found = table.get(key)
                if found is None:
                    found = table[key] = node
                    terminating[id(found)] = False
                    bound[id(found)] = 2
            elif kind is Empty or kind is Deadlock:
                found = table[(kind,)]
            else:
                raise TypeError(f"not an expression: {node!r}")
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
            lsteps = self.step(left)
            rsteps = self.step(right)
            found = self._lift(lsteps, Par, None, right)
            found += self._lift(rsteps, Par, left, None)
            all_partners = self._partners
            if all_partners:
                for a, left2 in lsteps:
                    partners = all_partners.get(a.name)
                    if partners is not None:
                        synced = [(c, right2) for b, right2 in rsteps
                                  if (c := partners.get(b.name)) is not None]
                        found += self._lift(synced, Par, left2, None)
            moves = _distinct(found)
        elif kind is Seq:
            found = self._lift(self.step(e.left), Seq, None, e.right)
            if terminating[id(e.left)]:
                found += self.step(e.right)
                moves = _distinct(found)
            else:
                moves = tuple(found)
        elif kind is Alt:
            moves = _distinct(self.step(e.left) + self.step(e.right))
        elif kind is Star:
            moves = tuple(self._lift(self.step(e.body), Seq, None, e))
        elif kind is Act:
            moves = ((e.action, EMPTY),)
        elif kind is Encap:
            blocked = e.blocked
            names = self._blocked[id(blocked)]  # named when its first node joined the table
            found = []
            for a, body2 in self.step(e.body):
                if a.name not in names:
                    key = (Encap, names, id(body2))
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

    def _lift(
        self, moves, kind: type, left: Expression | None, right: Expression | None
    ) -> list[tuple[Action, Expression]]:
        """The premise moves ``moves`` of one operand, lifted into a ``kind``
        node whose other operand stays fixed: ``left`` or ``right`` is that
        operand, and None marks the side the moves fill.  Each (action,
        operand') becomes (action, the canonical node of that kind over
        operand' and the fixed operand); a node not yet in the table joins
        it, terminating when both its operands do."""
        table = self._table
        terminating = self.terminating
        fixed = left if right is None else right
        fixed_id = id(fixed)
        ends = terminating[fixed_id]
        lifted = []
        for a, moved in moves:
            key = (kind, fixed_id, id(moved)) if right is None else (kind, id(moved), fixed_id)
            node = table.get(key)
            if node is None:
                node = table[key] = kind(fixed, moved) if right is None else kind(moved, fixed)
                terminating[id(node)] = ends and terminating[id(moved)]
            lifted.append((a, node))
        return lifted


def _distinct(moves) -> tuple[tuple[Action, Expression], ...]:
    """Canonical moves without repeats, in first-seen order."""
    return tuple({(a.name, id(target)): (a, target) for a, target in moves}.values())


def terminates(e: Expression) -> bool:
    """Decide the termination predicate on expressions.  The flag is set as
    each node joins the node table, so ``e`` is walked only by the iterative
    ``canonical``, once per node of its tree, and any depth is answered."""
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
# Derive orders the moves to new states by (action name, label).
_by_name_and_label = operator.itemgetter(0, 1)
_by_name = operator.itemgetter(0)


class _cached:
    """``functools.cached_property`` without its lock, as Python 3.12 has it.
    A non-data descriptor: the first read computes the value and stores it
    in the instance ``__dict__`` under the attribute's name, where every
    later read finds it without calling ``__get__``."""

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


@dataclass(frozen=True)
class Automaton:
    """A finite labelled transition system with a termination predicate.

    States are the indices ``0 .. n_states - 1``, each with an optional text
    label.  As in the JSON form, an id is a plain ``int`` and a label a
    ``str`` or ``None``; ids are tested with ``type(id) is int``, since JSON
    ``true``/``false`` load as ``bool``, a subclass of ``int``, and an ``int``
    subclass may print otherwise than ``json`` writes it.  Transitions are
    stored deduplicated and sorted by (source, action name, target).  The
    public constructor checks every field, and deduplicates and sorts them.
    ``derive_automaton``, ``equivalence.minimize`` and, for input in the
    writer's own order, the JSON reader build their fields in that form and
    hand them over through ``_canonical_automaton``, which checks nothing.

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
            if type(s) is not int:
                raise ValueError(f"state id {s!r} is not an integer")
        transitions = tuple(self.transitions)
        for t in transitions:
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
        action_of = self._rows[2]
        return tuple([action_of[name] for name in sorted(action_of)])

    def out(self) -> list[list[tuple[Action, int]]]:
        """Adjacency by source state, in stored transition order."""
        succ, _, action_of = self._rows
        return [[(action_of[name], t) for name, t in row] for row in succ]

    @_cached
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

    @_cached
    def _normed(self) -> frozenset[int]:
        """States from which some terminating state is reachable."""
        return _closure(self._rows[1], self.terminating)

    @_cached
    def _scc(self) -> SccDecomposition:
        """The SCC decomposition, from the one Tarjan pass that
        ``analysis.scc_decompose`` and both checks share."""
        from .analysis import _tarjan  # analysis imports this module: bind at first use

        return _tarjan(self)

    @_cached
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


def _canonical_automaton(
    labels: tuple[str | None, ...],
    initial: int,
    transitions: tuple[Transition, ...],
    terminating: frozenset[int],
) -> Automaton:
    """An ``Automaton`` from fields already in the form ``__post_init__``
    leaves them: at least one label, each ``str`` or ``None``; ids plain
    ``int`` and in range; the transitions ``Transition`` values strictly
    increasing by (source, action name, target).  The fields are set in
    declaration order, as the public constructor sets them, so pickles are
    the same; nothing is checked."""
    a = object.__new__(Automaton)
    object.__setattr__(a, "labels", labels)
    object.__setattr__(a, "initial", initial)
    object.__setattr__(a, "transitions", transitions)
    object.__setattr__(a, "terminating", terminating)
    return a


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
    rendered expressions.  A move to a state already numbered numbers
    nothing, so it goes straight into the row, and only the moves to new
    states are sorted and numbered.  Each state's row is then
    sorted by (action name, target index).  A state's moves are distinct
    and states are expanded in index order, so the transitions come out
    deduplicated and sorted.  Raises StateLimitExceeded once more than
    ``max_states`` distinct expressions would be reached.  The canonical
    node table with its termination flags, and the step and label memos
    keyed by node id, live for this call only and are dropped when it returns.

    A ``||`` or ``encap`` root takes ``_derive_product``.  Every other root
    takes the loop below, which asks ``_Rules.step`` for each state's moves,
    keys a state by its node's id and renders each new target through the
    render memo, so a target reached twice is rendered once.  Both loops
    split each state's moves into known and new targets and hand them to
    ``_number``, the one step that numbers, labels, limits and orders.
    """
    if max_states < 1:
        raise ValueError("max_states must be positive")
    rules = _Rules(comm)
    e = rules.canonical(e)
    if type(e) is Par or type(e) is Encap:
        return _derive_product(rules, e, max_states)
    rendered: dict[int, str] = {}
    index: dict[int, int] = {id(e): 0}
    labels: list[str] = [render_memoised(e, rendered)]
    pending: list[Expression] = [e]  # each state, in index order
    transitions: list[Transition] = []
    terminating: set[int] = set()
    for source, current in enumerate(pending):  # the loop sees states appended below
        if rules.terminating[id(current)]:
            terminating.add(source)
        row = []
        new = []
        for action, target in rules.step(current):
            target_index = index.get(id(target))
            if target_index is None:
                label = render_memoised(target, rendered)
                new.append((action.name, label, action, id(target), target))
            else:
                row.append((action.name, target_index, action))
        transitions += _number(source, row, new, index, labels, pending, max_states)
    return _canonical_automaton(tuple(labels), 0, tuple(transitions), frozenset(terminating))


def _number(
    source: int,
    row: list[tuple[str, int, Action]],
    new: list[tuple[str, str | None, Action, int, object]],
    index: dict[int, int],
    labels: list[str | None],
    pending: list,
    max_states: int,
    label_of: Callable[[object], str] | None = None,
) -> list[Transition]:
    """The numbering step that both derive loops share: the transitions of
    state ``source``, whose moves to states already numbered are ``row``, as
    (name, target index, action), and whose others are ``new``, as (name,
    label, action, target key, entry).  The limit is decided first, once per
    state: if the distinct keys of ``new`` do not all fit in ``max_states``,
    StateLimitExceeded is raised before any is numbered or ordered, with
    ``source + 1`` states expanded and the rest queued.  The count stops at
    the first key that does not fit, so the wide int keys of a spine
    product are hashed at most once per free slot, plus one.  The new moves
    are numbered in (name, label) order: a target not yet in ``index`` gets
    the next index, its label goes to ``labels`` and its entry to
    ``pending``, where states wait in index order.  A move may come without
    its label (None), which the caller then renders when it takes the state
    from ``pending``; only where two new moves share a name does
    ``label_of(entry)`` render their labels here, for the order.  Two new
    moves may share a target, so each looks ``index`` up again."""
    room = max_states - len(index)
    if len(new) > room:
        distinct = set()
        for move in new:
            distinct.add(move[3])
            if len(distinct) > room:
                raise StateLimitExceeded(max_states, source + 1, max_states - source - 1)
    if len(new) > 1:
        if label_of is not None and len(set(map(_by_name, new))) < len(new):
            count = Counter(map(_by_name, new))
            for i, (name, _, action, key, entry) in enumerate(new):
                if count[name] > 1:
                    new[i] = (name, label_of(entry), action, key, entry)
        new.sort(key=_by_name_and_label)  # a label is compared only between moves of one name
    for name, label, action, key, entry in new:
        target = index.get(key)
        if target is None:
            target = index[key] = len(index)
            labels.append(label)
            pending.append(entry)
        row.append((name, target, action))
    row.sort()  # the (name, target index) pairs are distinct, so no Action is compared
    return [_transition((source, action, t)) for _, t, action in row]


def _derive_product(rules: _Rules, root: Expression, max_states: int) -> Automaton:
    """``derive_automaton`` of a canonical ``||`` or ``encap`` root, as the
    product of its spine's leaves.  The spine is the maximal ``||``/``encap``
    part of the tree at the root, and its leaves are the maximal subterms
    that are neither (see ``_flatten_spine``).

    No rule removes a ``||`` or ``encap`` node, so every state has the
    root's spine over one state of each leaf.  A leaf's states are numbered
    0, 1, ... as they are reached, and a state is the list of its leaves'
    numbers, keyed by one int in mixed radix: leaf ``i``'s digit has the
    stride of the product of the state bounds of the leaves before it,
    which ``_Rules.canonical`` recorded as the leaves joined the table.  A
    move's target key is the state's key plus the move's delta, so no
    target is built below the root.

    The spine is compiled once into synchronisation vectors: each
    ``encap`` and ``||`` holds a range of leaves, and a move passes the
    ``encap`` nodes that hold its leaves.  A leaf's moves come from
    ``_Rules.step``, memoised per leaf state in two lists.  The alone
    moves, (name, action, key delta, ((leaf, new number),)), are those no
    ``encap`` above the leaf blocks.  The sync candidates are the moves
    whose name the communication function relates, as (name, action, key
    delta, changes, first leaf, end leaf, reach's first leaf, reach's end
    leaf, nearest ``||`` above).  The reach is the range of the lowest
    ``encap`` that holds the leaves and blocks the name, or the whole
    spine: leaf ``i``'s move meets leaf ``j``'s at their lowest common
    ``||`` when no ``encap`` that holds ``i`` but not ``j`` blocks it.  A
    state's moves are its leaves' alone moves, then the communications:
    each candidate, in turn, is paired through a name index with the
    earlier candidates that are enabled now, hold other leaves and reach
    it.  The ranges nest, so one walk up the ``encap`` chain of the
    earlier candidate's first leaf, to the first that holds the later
    one's first leaf and blocks the result, decides each pair.  A result
    that is itself an argument joins the candidates, placed at the ``||``
    where it formed, so that it can communicate again.  Each pair is met
    once.

    A leaf's moves are distinct, and two leaves change different digits,
    so two moves can repeat only when a communication fired or two leaves
    have alone moves back to themselves; only then are they deduplicated.
    A move to a new state carries only its source's leaf numbers and label
    pieces and its changes.  The state's own, its source's with the moved
    leaves' swapped in, are built when it leaves ``pending``, and its label,
    the spine's text with each leaf's text in its slot, is joined then, or
    by ``_number`` when two new moves of one name need their labels for the
    order.  A state that is never numbered is never rendered."""
    rendered: dict[int, str] = {}
    leaves, minimum, parts, slots, encaps, inner, pars, up = _flatten_spine(root, rendered)
    width = len(leaves)
    bound = rules.bound
    bounds = [bound[id(leaf)] for leaf in leaves[:-1]]  # the last leaf's digit has nothing above it
    strides = list(accumulate(bounds, operator.mul, initial=1))
    partners = rules._partners
    flags = rules.terminating
    numbers: list[dict[int, int]] = []  # per leaf: the number of each state's node id
    memo: list[list] = []  # per leaf and state: the node, then (alone, sync, loops)
    texts: list[list[str]] = []  # per leaf and state: the wrapped text
    ends: list[list[bool]] = []  # per leaf and state: the termination flag
    for leaf, slot in zip(leaves, slots):
        numbers.append({id(leaf): 0})
        memo.append([leaf])
        texts.append([parts[slot]])
        ends.append([flags[id(leaf)]])

    def leaf_moves(i: int, x: int) -> tuple[list, list, bool]:
        known = numbers[i]
        states = memo[i]
        stride = strides[i]
        alone = []
        sync = []
        loops = False
        for action, target in rules.step(states[x]):
            y = known.get(id(target))
            if y is None:
                y = known[id(target)] = len(states)
                if i < len(bounds) and y >= bounds[i]:  # a wrong bound would merge two keys
                    raise RuntimeError(f"leaf {i} exceeds its state bound {bounds[i]}")
                states.append(target)
                texts[i].append(_wrap(render_memoised(target, rendered), target, minimum[i]))
                ends[i].append(flags[id(target)])
            name = action.name
            move = (name, action, (y - x) * stride, ((i, y),))
            block = inner[i]
            while block >= 0 and name not in encaps[block][0]:
                block = encaps[block][3]
            if block < 0:
                alone.append(move)
                if y == x:
                    loops = True
            if name in partners:
                reach = (0, width) if block < 0 else encaps[block][1:3]
                if reach[1] - reach[0] > 1:  # it can meet another leaf
                    sync.append((*move, i, i + 1, *reach, up[i]))
        entry = states[x] = (alone, sync, loops)
        return entry

    def label_of(entry: tuple) -> str:
        _, _, pieces, changes = entry
        filled = pieces.copy()
        for i, y in changes:
            filled[slots[i]] = texts[i][y]
        return "".join(filled)

    getitem = operator.getitem
    index: dict[int, int] = {0: 0}
    labels: list[str | None] = ["".join(parts)]
    # Each state, in index order, as its key, then its source's leaf numbers
    # and label pieces and the changes of the move that reached it.
    pending: list[tuple[int, list[int], list[str], tuple]] = [(0, [0] * width, parts, ())]
    transitions: list[Transition] = []
    terminating: set[int] = set()
    for source, (key, state, pieces, changes) in enumerate(pending):  # sees states appended below
        if changes:
            state = state.copy()
            pieces = pieces.copy()
            for i, y in changes:
                state[i] = y
                pieces[slots[i]] = texts[i][y]
            if labels[source] is None:
                labels[source] = "".join(pieces)
        if all(map(getitem, ends, state)):
            terminating.add(source)
        moves = []
        waiting = []
        looping = 0
        for i, x in enumerate(state):
            entry = memo[i][x]
            if type(entry) is not tuple:
                entry = leaf_moves(i, x)
            alone, sync, loops = entry
            if alone:
                moves += alone
                looping += loops
            if sync:
                waiting += sync
        fired = False
        if len(waiting) > 1:
            enabled: dict[str, list[tuple]] = {}
            for late in waiting:  # the loop sees candidates appended below
                name = late[0]
                first = late[4]
                for partner, c in partners[name].items():
                    for early in enabled.get(partner, ()):
                        if (
                            (early[5] <= first or late[5] <= early[4])
                            and early[6] <= first < early[7]
                            and late[6] <= early[4] < late[7]
                        ):
                            fired = True
                            result = c.name
                            delta = early[2] + late[2]
                            changes = early[3] + late[3]
                            block = inner[early[4]]
                            while block >= 0 and not (
                                result in encaps[block][0] and encaps[block][1] <= first < encaps[block][2]
                            ):
                                block = encaps[block][3]
                            if block < 0:
                                moves.append((result, c, delta, changes))
                            if result in partners:
                                par = early[8]
                                while not pars[par][0] <= first < pars[par][1]:
                                    par = pars[par][2]
                                start, end, above = pars[par]
                                reach = (0, width) if block < 0 else encaps[block][1:3]
                                waiting.append((result, c, delta, changes, start, end, *reach, above))
                group = enabled.get(name)
                if group is None:
                    enabled[name] = [late]
                else:
                    group.append(late)
        if fired or looping > 1:
            moves = {(move[0], move[2]): move for move in moves}.values()
        row = []
        new = []
        for name, action, delta, changes in moves:
            target = key + delta
            target_index = index.get(target)
            if target_index is None:
                new.append((name, None, action, target, (target, state, pieces, changes)))
            else:
                row.append((name, target_index, action))
        transitions += _number(source, row, new, index, labels, pending, max_states, label_of)
    return _canonical_automaton(tuple(labels), 0, tuple(transitions), frozenset(terminating))


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
        if not isinstance(entry, dict) or type(entry.get("id")) is not int:
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
    if type(initial) is not int:
        raise AutomatonFormatError("'initial' must be an integer state id")
    if not isinstance(raw_transitions, list):
        raise AutomatonFormatError("'transitions' must be an array")
    transitions, ordered = _scan_transitions(raw_transitions, len(labels))
    if ordered and 0 <= initial < len(labels):
        return _canonical_automaton(tuple(labels), initial, transitions, frozenset(terminating))
    try:  # unsorted, repeated or out of range: the public constructor normalises or rejects
        return Automaton(
            labels=tuple(labels),
            initial=initial,
            transitions=transitions,
            terminating=frozenset(terminating),
        )
    except ValueError as exc:
        raise AutomatonFormatError(str(exc)) from exc


def _scan_transitions(raw: list, n: int) -> tuple[tuple[Transition, ...], bool]:
    """The transitions of ``raw`` entry by entry, in input order, and
    whether they are in the writer's order: strictly increasing by (source,
    action name, target), with every id in ``0 .. n - 1``.  Raises
    AutomatonFormatError at the first entry that is malformed or names an
    invalid action."""
    transitions = []
    actions: dict[str, Action] = {}  # one Action, and one name check, per distinct name
    ordered = True
    last = (0, "", -1)  # below every valid key, and above every key with a negative source
    for entry in raw:
        if not isinstance(entry, dict):
            raise AutomatonFormatError("each transition must be an object")
        try:
            source, name, target = entry["from"], entry["action"], entry["to"]
        except KeyError as exc:
            raise AutomatonFormatError(f"transition missing key {exc.args[0]!r}") from exc
        if type(source) is not int or type(target) is not int or not isinstance(name, str):
            raise AutomatonFormatError(f"malformed transition {entry!r}")
        action = actions.get(name)
        if action is None:
            action = actions[name] = _action(name)
        transitions.append(_transition((source, action, target)))
        if ordered:
            key = (source, name, target)
            ordered = last < key and source < n and 0 <= target < n
            last = key
    return tuple(transitions), ordered


def _action(name: str) -> Action:
    try:
        return Action(name)
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
