"""Expression syntax: AST, concrete grammar, theory classification, communication functions.

The expression language is regular expressions (deadlock ``0``, empty ``1``,
actions, ``.``, ``+``, postfix ``*``) extended with interleaving ``||`` and
encapsulation ``encap{a,b}(p)``.  All values here are immutable; equality on
expressions is structural, node by node, with no rewriting.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_RESERVED_WORDS = frozenset({"encap"})


class ParseError(ValueError):
    """Malformed expression text; ``position`` is a 0-based character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class CommFnError(ValueError):
    """Malformed or inconsistent communication-function table."""


@dataclass(frozen=True, order=True)
class Action:
    """An atomic action, identified by name."""

    name: str

    def __post_init__(self):
        if _IDENT_RE.fullmatch(self.name) is None:
            raise ValueError(f"invalid action name {self.name!r}")
        if self.name in _RESERVED_WORDS:
            raise ValueError(f"{self.name!r} is a reserved word and cannot name an action")

    def __str__(self) -> str:
        return self.name


class Expression:
    """Marker base class of the eight expression variants.

    Each variant is a frozen slotted dataclass, so ``==``, ``hash``, ``repr``,
    pickling and pattern matching are the generated ones and see only the
    node's fields.  Equality and hashing are structural and walk the whole
    tree; derivation avoids both by working on canonical nodes (see
    ``semantics._Rules``).
    """

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Deadlock(Expression):
    """The process with no transitions and no termination, written ``0``."""


@dataclass(frozen=True, slots=True)
class Empty(Expression):
    """The successfully terminated process, written ``1``."""


@dataclass(frozen=True, slots=True)
class Act(Expression):
    action: Action


@dataclass(frozen=True, slots=True)
class Seq(Expression):
    left: Expression
    right: Expression


@dataclass(frozen=True, slots=True)
class Alt(Expression):
    left: Expression
    right: Expression


@dataclass(frozen=True, slots=True)
class Star(Expression):
    body: Expression


@dataclass(frozen=True, slots=True)
class Par(Expression):
    left: Expression
    right: Expression


@dataclass(frozen=True, slots=True)
class Encap(Expression):
    blocked: frozenset[Action]
    body: Expression

    def __post_init__(self):
        object.__setattr__(self, "blocked", frozenset(self.blocked))


DEADLOCK = Deadlock()
EMPTY = Empty()


def act(name: str) -> Act:
    """Shorthand for an action expression."""
    return Act(Action(name))


def subterms(e: Expression) -> Iterator[Expression]:
    """Yield every node of the expression tree in pre-order: a node, then
    its left subtree, then its right.  ``.``, ``+`` and ``||`` have two
    children, ``*`` and ``encap`` one, and ``0``, ``1`` and actions none;
    anything else is yielded as a leaf.  Reversed, the order puts every node
    after its descendants, which the bottom-up passes read.  A subtree that
    occurs twice is walked twice, so the cost is the size of the tree."""
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        kind = type(node)
        if kind is Seq or kind is Alt or kind is Par:
            stack.append(node.right)
            stack.append(node.left)
        elif kind is Star or kind is Encap:
            stack.append(node.body)


class Theory(Enum):
    """The three expression classes, ordered BPA < PA < ACP by syntax inclusion."""

    BPA = "BPA"
    PA = "PA"
    ACP = "ACP"


def classify_theory(e: Expression) -> Theory:
    """Smallest theory containing ``e``: BPA without Par/Encap, PA adds Par, ACP adds Encap."""
    kinds = set(map(type, subterms(e)))
    if Encap in kinds:
        return Theory.ACP
    return Theory.PA if Par in kinds else Theory.BPA


# ---------------------------------------------------------------------------
# Tokeniser and parser
# ---------------------------------------------------------------------------

# Operator precedence, loosest to tightest, read by the parser and the renderer.
_PREC = {Alt: 1, Par: 2, Seq: 3, Star: 4}
_PREC_ATOM = 5
_INFIX = {Alt: "+", Par: "||", Seq: "."}
_BINARY = {text: kind for kind, text in _INFIX.items()}


def _tokenize(text: str) -> list[tuple[str, int]]:
    """The tokens of ``text`` as ``(text, position)`` pairs, ending in
    ``("", len(text))``."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "01*.+(){},":
            tokens.append((c, i))
            i += 1
            continue
        if c == "|":
            if text.startswith("||", i):
                tokens.append(("||", i))
                i += 2
                continue
            raise ParseError("single '|' is not an operator, use '||'", i)
        m = _IDENT_RE.match(text, i)
        if m is not None:
            tokens.append((m.group(), i))
            i = m.end()
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("", n))
    return tokens


def _error(value: str, position: int, expected: str = "") -> ParseError:
    """The error for token ``value`` where ``expected`` (or any operand) must be."""
    if not value:
        return ParseError("unexpected end of input", position)
    if expected:
        return ParseError(f"expected {expected}, found {value!r}", position)
    return ParseError(f"unexpected {value!r}", position)


def parse_expression(text: str) -> Expression:
    """Parse concrete syntax into an AST.

    Grammar, loosest to tightest: ``+``, ``||``, ``.`` (all left associative),
    postfix ``*``.  Atoms are ``0``, ``1``, action names, ``encap{...}(p)`` and
    parenthesised expressions.

    One loop with an explicit stack, so parentheses nest to any depth.  The
    stack holds each open ``(`` or ``encap{..}(`` as ``(0, blocked set or
    None)`` and each left operand that waits for its right operand as
    ``(precedence, operator, operand)``.
    """
    tokens = iter(_tokenize(text))
    stack: list[tuple] = []
    e = None  # the operand just finished, or None where one must start
    while True:
        value, position = next(tokens)
        if e is None:
            if value == "(":
                stack.append((0, None))
            elif value == "encap":
                value, position = next(tokens)
                if value != "{":
                    raise _error(value, position, "'{'")
                names = []
                value, position = next(tokens)
                if value != "}":
                    while True:
                        if not value.isidentifier() or value == "encap":
                            raise _error(value, position, "action name")
                        names.append(Action(value))
                        value, position = next(tokens)
                        if value != ",":
                            break
                        value, position = next(tokens)
                    if value != "}":
                        raise _error(value, position, "'}'")
                value, position = next(tokens)
                if value != "(":
                    raise _error(value, position, "'('")
                stack.append((0, frozenset(names)))
            elif value.isidentifier():
                e = Act(Action(value))
            elif value == "0":
                e = DEADLOCK
            elif value == "1":
                e = EMPTY
            else:
                raise _error(value, position)
            continue
        if value == "*":
            e = Star(e)
            continue
        # Apply the waiting operators that bind at least as tightly as this
        # token; a token other than an operator binds as loosely as ``+``.
        kind = _BINARY.get(value)
        precedence = _PREC[kind] if kind is not None else _PREC[Alt]
        while stack and stack[-1][0] >= precedence:
            _, operator, left = stack.pop()
            e = operator(left, e)
        if kind is not None:
            stack.append((precedence, kind, e))
            e = None
        elif not stack:
            if value:
                raise _error(value, position)
            return e
        elif value == ")":
            blocked = stack.pop()[1]
            if blocked is not None:
                e = Encap(blocked, e)
        else:
            raise _error(value, position, "')'")


# ---------------------------------------------------------------------------
# Rendering with minimal parenthesisation
# ---------------------------------------------------------------------------


def _wrap(text: str, node: Expression, minimum: int) -> str:
    return f"({text})" if _PREC.get(type(node), _PREC_ATOM) < minimum else text


def render_expression(e: Expression) -> str:
    """Concrete syntax with minimal parentheses; ``parse(render(e)) == e``.
    A ``||`` or ``encap`` root is rendered through ``_flatten_spine``, so a
    spine of any width renders and only its leaves recurse."""
    if type(e) is Par or type(e) is Encap:
        return "".join(_flatten_spine(e, {})[2])
    return render_memoised(e, {})


def render_memoised(e: Expression, memo: dict[int, str]) -> str:
    """``render_expression`` of ``e``, reusing and extending ``memo``, which
    maps the ``id()`` of every subterm rendered so far to its text without
    outer parentheses.  The caller keeps every node it renders alive while it
    uses the memo, so no id in it is reused.

    States derived from one expression share most of their subterms, and
    derivation makes structurally equal subterms one object, so one memo per
    derivation renders each distinct subterm once.
    """
    text = memo.get(id(e))
    if text is not None:
        return text
    kind = type(e)
    if kind in _INFIX:
        left = render_memoised(e.left, memo)
        right = render_memoised(e.right, memo)
        precedence = _PREC[kind]
        text = _wrap(left, e.left, precedence) + _INFIX[kind] + _wrap(right, e.right, precedence + 1)
    elif kind is Star:
        text = _wrap(render_memoised(e.body, memo), e.body, _PREC[Star]) + "*"
    elif kind is Act:
        text = e.action.name
    elif kind is Empty:
        text = "1"
    elif kind is Deadlock:
        text = "0"
    elif kind is Encap:
        blocked = ",".join(sorted(a.name for a in e.blocked))
        text = f"encap{{{blocked}}}({render_memoised(e.body, memo)})"
    else:  # pragma: no cover
        raise TypeError(f"not an expression: {e!r}")
    memo[id(e)] = text
    return text


_PAR, _ENCAP = 0, 1  # _flatten_spine's end-of-node markers


def _flatten_spine(
    root: Expression, rendered: dict[int, str]
) -> tuple[
    list[Expression], list[int], list[str], list[int], list[list], list[int], list[list], list[int]
]:
    """The maximal ``||``/``encap`` spine under ``root``, walked once, left
    to right, with an explicit stack.  The leaves are the maximal subterms
    that are neither ``||`` nor ``encap``; each spine node holds a range of
    them, ``[first, end)``, and the ranges nest.  Returns:

    - the leaves, and the precedence each leaf's text is wrapped against;
    - the root's text as a list of pieces, which ``render_expression``
      and the spine product's labels join: ``render_memoised``'s pieces
      around the leaves (``||``, the parentheses of a ``||`` right operand,
      ``encap{..}(`` and its ``)``) with each leaf's wrapped text in a slot
      of its own, and the slots' positions;
    - each ``encap`` as ``[blocked names, first, end, enclosing encap]`` and
      each leaf's innermost ``encap``;
    - each ``||`` as ``[first, end, enclosing ||]`` and each leaf's nearest
      ``||``.

    An enclosing node is an index into its list, and -1 stands for none."""
    leaves: list[Expression] = []
    minimum: list[int] = []
    parts: list[str] = []
    slots: list[int] = []
    encaps: list[list] = []
    inner: list[int] = []
    pars: list[list] = []
    up: list[int] = []
    encap = par = -1  # the innermost encap and || around the walk
    stack: list = [(root, 0)]  # (node, precedence to wrap against), an end marker, or literal text
    while stack:
        item = stack.pop()
        if type(item) is str:
            parts.append(item)
            continue
        node, arg = item
        kind = type(node)
        if kind is int:  # (marker, record): the node's leaves are done
            arg[-2] = len(leaves)
            if node == _PAR:
                par = arg[-1]
            else:
                encap = arg[-1]
        elif kind is Par:
            record = [len(leaves), 0, par]
            par = len(pars)
            pars.append(record)
            prec = _PREC[Par]
            operands = [(_PAR, record), (node.right, prec + 1), _INFIX[Par], (node.left, prec)]
            stack += [")", *operands, "("] if arg > prec else operands
        elif kind is Encap:
            names = frozenset(a.name for a in node.blocked)
            record = [names, len(leaves), 0, encap]
            encap = len(encaps)
            encaps.append(record)
            stack += [")", (_ENCAP, record), (node.body, 0), f"encap{{{','.join(sorted(names))}}}("]
        else:
            leaves.append(node)
            minimum.append(arg)
            inner.append(encap)
            up.append(par)
            slots.append(len(parts))
            parts.append(_wrap(render_memoised(node, rendered), node, arg))
    return leaves, minimum, parts, slots, encaps, inner, pars, up


# ---------------------------------------------------------------------------
# Communication functions
# ---------------------------------------------------------------------------


class CommFn:
    """Finite commutative partial communication function on actions.

    The table is keyed by action name, like the derive and refinement
    kernels: a ``str`` caches its hash, while the dataclass ``Action``
    hashes and compares in Python.  Every rule is stored under both
    orderings of its name pair, so commutativity holds by construction and a
    lookup is one tuple key; ``_table`` maps ``(name, name)`` to the result
    ``Action`` and ``_arguments`` maps each argument name to its ``Action``.
    ``Action`` objects appear only at the API boundary.  Associativity and
    handshaking are checked separately by :func:`validate_comm_fn`.
    Instances are immutable.
    """

    __slots__ = ("_table", "_arguments")

    def __init__(self, rules: Iterable[tuple[Action, Action, Action]] = ()):
        table: dict[tuple[str, str], Action] = {}
        arguments: dict[str, Action] = {}
        for a, b, result in rules:
            x, y = a.name, b.name
            previous = table.get((x, y))
            if previous is not None and previous.name != result.name:
                raise CommFnError(
                    f"conflicting rules for {{{a}, {b}}}: {previous} vs {result}"
                )
            table[x, y] = table[y, x] = result
            arguments[x] = a
            arguments[y] = b
        self._table = table
        self._arguments = arguments

    def lookup(self, a: Action, b: Action) -> Action | None:
        return self._table.get((a.name, b.name))

    def _named_pairs(self) -> list[tuple[str, str, Action]]:
        """All rules as (name of a, name of b, result) with a <= b, sorted."""
        table = self._table
        return [(a, b, table[a, b]) for a, b in sorted(k for k in table if k[0] <= k[1])]

    def pairs(self) -> list[tuple[Action, Action, Action]]:
        """All rules as (a, b, result) with a <= b, sorted."""
        arguments = self._arguments
        return [(arguments[a], arguments[b], c) for a, b, c in self._named_pairs()]

    def arguments(self) -> frozenset[Action]:
        return frozenset(self._arguments.values())

    def results(self) -> frozenset[Action]:
        return frozenset(self._table.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CommFn):
            return NotImplemented
        theirs = other._table
        return len(self._table) == len(theirs) and all(
            key in theirs and theirs[key].name == c.name for key, c in self._table.items()
        )

    def __repr__(self) -> str:
        body = ", ".join(f"({a},{b})->{c.name}" for a, b, c in self._named_pairs())
        return f"CommFn({body})"


EMPTY_COMM = CommFn()


@dataclass(frozen=True)
class CommValidation:
    """Outcome of the associativity and handshaking checks on a CommFn."""

    commutative: bool
    associative: bool
    handshaking: bool
    associativity_violations: tuple[tuple[Action, Action, Action], ...]
    handshaking_violations: tuple[Action, ...]

    @property
    def violations(self) -> tuple[str, ...]:
        messages = []
        for a, b, c in self.associativity_violations:
            messages.append(f"associativity fails on ({a}, {b}, {c})")
        for a in self.handshaking_violations:
            messages.append(f"{a} is both a result and an argument")
        return tuple(messages)


def validate_comm_fn(g: CommFn) -> CommValidation:
    """Check associativity over the finite table closure, and handshaking.

    Associativity holds when gamma(gamma(a,b),c) and gamma(a,gamma(b,c)) are
    both undefined or both defined and equal, for all triples over the actions
    mentioned in the table.  Handshaking holds when no result of gamma occurs
    as an argument of a defined pair.

    Only triples with a defined side are evaluated: the left side needs (a, b)
    defined and c a partner of gamma(a,b), the right side (b, c) defined and
    a a partner of gamma(b,c).  So for each defined ordered pair (x, y) and
    each partner z of gamma(x,y), the candidates are (x, y, z) and (z, x, y).
    The cost is the sum, over defined pairs, of the partners of their result:
    linear in the table size for a handshaking table, where results have no
    partners.  The check runs on action names and maps the violations back
    to the table's ``Action`` objects, sorted, in the order a scan of every
    triple of the closure would list them.
    """
    named = {key: c.name for key, c in g._table.items()}
    partners: dict[str, list[str]] = {}
    for a, b in named:
        partners.setdefault(a, []).append(b)
    candidates = set()
    for (x, y), result in named.items():
        for z in partners.get(result, ()):
            candidates.add((x, y, z))
            candidates.add((z, x, y))
    assoc_violations = []
    for a, b, c in candidates:
        ab = named.get((a, b))
        left = named.get((ab, c)) if ab is not None else None
        bc = named.get((b, c))
        right = named.get((a, bc)) if bc is not None else None
        if left != right:
            assoc_violations.append((a, b, c))
    # Sorting names sorts their Actions, which order by name.
    arguments = g._arguments
    assoc_violations = [
        (arguments[a], arguments[b], arguments[c]) for a, b, c in sorted(assoc_violations)
    ]
    shared = set(named.values()).intersection(arguments)
    handshake_violations = [arguments[a] for a in sorted(shared)]
    return CommValidation(
        commutative=True,
        associative=not assoc_violations,
        handshaking=not handshake_violations,
        associativity_violations=tuple(assoc_violations),
        handshaking_violations=tuple(handshake_violations),
    )


_RULE_RE = re.compile(
    r"([A-Za-z_][A-Za-z0-9_]*)\s+([A-Za-z_][A-Za-z0-9_]*)\s*->\s*([A-Za-z_][A-Za-z0-9_]*)\Z"
)


def load_comm_fn(text: str) -> CommFn:
    """Parse a gamma table, one ``a b -> c`` rule per line.

    ``#`` starts a comment and blank lines are ignored.  Repeating a rule is
    fine; mapping the same pair to two different results is an error.
    """
    actions: dict[str, Action] = {}
    seen: dict[tuple[str, str], tuple[str, int]] = {}
    rules = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _RULE_RE.match(line)
        if m is None:
            raise CommFnError(f"line {lineno}: expected 'a b -> c', got {line!r}")
        x, y, z = m.groups()
        for name in (x, y, z):
            if name not in actions:
                try:
                    actions[name] = Action(name)
                except ValueError as exc:
                    raise CommFnError(f"line {lineno}: {exc}") from exc
        key = (x, y) if x <= y else (y, x)
        if key in seen and seen[key][0] != z:
            raise CommFnError(
                f"line {lineno}: rule for {{{x}, {y}}} conflicts with line {seen[key][1]}"
            )
        seen[key] = (z, lineno)
        rules.append((actions[x], actions[y], actions[z]))
    return CommFn(rules)


def dump_comm_fn(g: CommFn) -> str:
    """Render a gamma table in the file format accepted by load_comm_fn."""
    return "".join(f"{a} {b} -> {c.name}\n" for a, b, c in g._named_pairs())
