"""A seeded differential corpus: derive, encoding, refinement and
rejection output on generated inputs, one text record per input, grouped
in families.

``tests/test_corpus.py`` pins one sha256 per family.  Each digest was
computed once, by the code before the change the family was added to
guard, and is never edited to fit the code: a change whose output differs
needs a decision of its own.  Every record is built from
``automaton_to_json``, rendered expressions, error texts and plain ints,
never from the ``repr`` of a set, so no digest depends on
``PYTHONHASHSEED``.  The generators here use only ``random.Random`` with
fixed seeds and import nothing from ``perfbench/``, so the corpus does not
move with the bench.

Families:

- ``spines``: random ``||``/``encap`` spines (left, right, balanced and
  random nesting, ``encap`` at the root, mid-spine and around leaves,
  looping leaves) under four communication functions and several state
  limits; a record is the automaton's JSON or the ``StateLimitExceeded``
  fields.
- ``roots``: random terms whose root is ``.``, ``+`` or ``*``, with ``||``
  and ``encap`` below it, under the same tables.
- ``encodings``: encodings of 16- to 60-state automata from
  ``connected_fa``: the derived automaton's JSON and ``verify_encoding``'s
  mapping.
- ``refinement``: automata of at most 40 states, from ``connected_fa`` and
  derived from spine and root terms, each paired with a shuffled copy, with
  a copy that has one edge's action or target changed, and with its
  ``minimize``; a record is the pair, ``bisimilar``'s verdict, partition
  and sorted witness pairs, the second automaton's ``minimize`` and
  ``isomorphic``'s verdict and mapping.
- ``terms``: random BPA, PA and ACP terms, and ``||``/``encap`` roots of
  up to 60 leaves nested left, right and balanced; a record is the term's
  rendering, ``terminates``, ``classify_theory``, ``oc_measure`` (or the
  text of its ``UnsupportedExpression``) and the public ``step`` under one
  of the tables, sorted as (action name, rendered target) pairs.
- ``rejections``: ``validate_comm_fn``'s flags and violation texts on
  handshaking, three-party and non-associative tables; ``load_comm_fn``'s
  ``CommFnError`` texts on mutated table text; and ``automaton_from_json``'s
  ``AutomatonFormatError`` texts on mutations of ``automaton_to_json``
  output.  A mutation that still loads (a repeated rule, shuffled or
  repeated transitions) records what was loaded.  The ``invalid JSON``
  texts are left out: ``json`` words them differently between Python
  versions.
- ``relays``: random ``||``/``encap`` spines of 3 to 6 leaves under two
  tables of their own, in which one communication's result meets another
  result or a leaf and communicates again; ``encap`` nodes block the
  result names more often than the leaf actions.  A record is the
  automaton's JSON or the ``StateLimitExceeded`` fields.
- ``parses``: ``parse_expression`` on seeded strings of up to 14 tokens,
  drawn from the grammar's tokens and a few characters it rejects, and on
  rendered ACP terms with up to three subterms wrapped in extra
  parentheses and then one character dropped or inserted.  A record is
  the text, then the tree's ``repr`` (each blocked set's items sorted) and
  its rendering, or the ``ParseError`` message and position.  Nesting
  stays below 100 levels.

``python -m tests.corpus`` prints each family's digest and record count.
``python -m tests.corpus --write`` adds to ``tests/corpus_fingerprints.json``
a short hash per record of each family not in it yet, which lets a failing
test name the first record that moved; a family already there is kept.  ``python -m tests.corpus --diff
CHECKOUT`` rebuilds the records with the ``src/`` of another checkout and
prints the first record of each family that differs from this one's.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import subprocess
import sys
from functools import reduce
from pathlib import Path

from starpar import (
    DEADLOCK,
    EMPTY,
    EMPTY_COMM,
    Action,
    Alt,
    Automaton,
    AutomatonFormatError,
    CommFn,
    CommFnError,
    Encap,
    Par,
    ParseError,
    Seq,
    Star,
    StateLimitExceeded,
    Theory,
    Transition,
    UnsupportedExpression,
    act,
    automaton_from_json,
    automaton_to_json,
    derive_automaton,
    bisimilar,
    classify_theory,
    dump_comm_fn,
    encode_fa,
    isomorphic,
    load_comm_fn,
    minimize,
    oc_measure,
    parse_expression,
    render_expression,
    step,
    subterms,
    terminates,
    validate_comm_fn,
    verify_encoding,
)
from tests.oracles import permute_automaton

FINGERPRINTS = Path(__file__).with_name("corpus_fingerprints.json")

ALPHABET = "abcde"


def _rules(*triples: str) -> CommFn:
    return CommFn(tuple(Action(name) for name in triple.split()) for triple in triples)


# id -> communication function; "a b -> a" feeds its result back as an
# argument, and "a b -> c", "c d -> e" lets a result communicate again.
GAMMAS = {
    "none": EMPTY_COMM,
    "b_e_s": _rules("b e s"),
    "a_b_a": _rules("a b a"),
    "a_b_c_d_e": _rules("a b c", "c d e"),
}
BLOCKABLE = ALPHABET + "s"
LIMITS = (6, 40, 400)


def _blocked(rng: random.Random) -> frozenset[Action]:
    return frozenset(Action(name) for name in BLOCKABLE if rng.random() < 0.35)


def _term(rng: random.Random, depth: int, inner: bool = False):
    """A random term over ``ALPHABET``: ``.``, ``+`` and ``*`` everywhere,
    and ``||`` or ``encap`` only when ``inner`` (below one of the first
    three), so that the term is a spine leaf unless ``inner``."""
    if depth == 0 or rng.random() < 0.3:
        r = rng.random()
        if r < 0.05:
            return DEADLOCK
        if r < 0.1:
            return EMPTY
        return act(rng.choice(ALPHABET))
    op = rng.choice(("seq", "seq", "alt", "alt", "star", "loop", "par", "encap") if inner else
                    ("seq", "seq", "alt", "alt", "star", "loop"))
    if op == "loop":  # an action, or a choice of two, under a star: a looping state
        body = act(rng.choice(ALPHABET))
        if rng.random() < 0.5:
            body = Alt(body, act(rng.choice(ALPHABET)))
        return Star(body)
    if op == "star":
        return Star(_term(rng, depth - 1, True))
    if op == "encap":
        return Encap(_blocked(rng), _term(rng, depth - 1, True))
    left, right = _term(rng, depth - 1, True), _term(rng, depth - 1, True)
    return {"seq": Seq, "alt": Alt, "par": Par}[op](left, right)


def _spine(rng: random.Random, leaves: list, shape: str, encaps: float, blocked=_blocked):
    """``leaves`` joined by ``||`` in the given shape, with an ``encap`` of a
    ``blocked(rng)`` set around each spine node with probability ``encaps``."""
    def wrap(node):
        return Encap(blocked(rng), node) if rng.random() < encaps else node

    nodes = [wrap(leaf) for leaf in leaves]
    if shape == "left":
        return reduce(lambda left, right: wrap(Par(left, right)), nodes)
    if shape == "right":
        return reduce(lambda right, left: wrap(Par(left, right)), reversed(nodes))
    while len(nodes) > 1:
        if shape == "balanced":
            nodes = [wrap(Par(*nodes[i:i + 2])) if i + 1 < len(nodes) else nodes[i]
                     for i in range(0, len(nodes), 2)]
        else:
            i = rng.randrange(len(nodes) - 1)
            nodes[i:i + 2] = [wrap(Par(nodes[i], nodes[i + 1]))]
    return nodes[0]


def _derive_record(e, gamma_id: str, limit: int, tables: dict[str, CommFn] = GAMMAS) -> str:
    head = f"{render_expression(e)} / {gamma_id} / {limit}\n"
    try:
        return head + automaton_to_json(derive_automaton(e, tables[gamma_id], limit))
    except StateLimitExceeded as exc:
        return head + f"limit {exc.limit} expanded {exc.expanded} queued {exc.queued}\n"


def spine_records() -> list[str]:
    rng = random.Random(20261020)
    records = []
    for i in range(400):
        shape = ("left", "right", "balanced", "random")[i % 4]
        leaves = [_term(rng, rng.choice((0, 1, 2, 2, 3, 3))) for _ in range(rng.randint(2, 5))]
        e = _spine(rng, leaves, shape, rng.choice((0.0, 0.2, 0.4)))
        if i % 5 == 0 and type(e) is not Encap:
            e = Encap(_blocked(rng), e)
        limit = rng.choice(LIMITS)
        records += [_derive_record(e, gamma_id, limit) for gamma_id in GAMMAS]
    return records


# id -> a table in which two results meet ("c s -> t") or a result of a
# result meets a leaf ("e a -> s"); GAMMAS has neither.
RELAYS = {
    "a_b_c_d_e_s_c_s_t": _rules("a b c", "d e s", "c s t"),
    "a_b_c_c_d_e_e_a_s": _rules("a b c", "c d e", "e a s"),
}


def _relay_blocked(rng: random.Random) -> frozenset[Action]:
    return frozenset(Action(name) for name in "abcdest" if rng.random() < (0.45 if name in "cest" else 0.1))


def relay_records() -> list[str]:
    """Two results can meet only if they formed in disjoint subtrees, which
    a left or right chain has none of, so balanced and random shapes come
    twice as often here; half the spines get an ``encap`` at the root."""
    rng = random.Random(20261027)
    records = []
    for i in range(300):
        shape = ("left", "right", "balanced", "random", "balanced", "random")[i % 6]
        leaves = [_term(rng, rng.choice((1, 2))) for _ in range(rng.randint(3, 6))]
        e = _spine(rng, leaves, shape, rng.choice((0.0, 0.3, 0.5)), _relay_blocked)
        if rng.random() < 0.5 and type(e) is not Encap:
            e = Encap(_relay_blocked(rng), e)
        limit = rng.choice((40, 400))
        records += [_derive_record(e, table_id, limit, RELAYS) for table_id in RELAYS]
    return records


def root_records() -> list[str]:
    rng = random.Random(20261021)
    records = []
    for _ in range(150):
        e = _term(rng, 4)
        while type(e) not in (Seq, Alt, Star):
            e = _term(rng, 4)
        limit = rng.choice(LIMITS)
        records += [_derive_record(e, gamma_id, limit) for gamma_id in GAMMAS]
    return records


def connected_fa(rng: random.Random, n: int, m: int) -> Automaton:
    """``n`` states, all reachable from state 0, ``2n - 1`` edges before
    deduplication (a random tree towards each state, then ``n`` random
    edges), every one of the actions ``a0 .. a{m-1}`` used, and each state
    terminating with probability 0.4."""
    actions = [Action(f"a{k}") for k in range(m)]
    edges = [(rng.randrange(t), t) for t in range(1, n)]
    edges += [(rng.randrange(n), rng.randrange(n)) for _ in range(n)]
    transitions = [
        Transition(source, actions[i] if i < m else rng.choice(actions), target)
        for i, (source, target) in enumerate(edges)
    ]
    terminating = frozenset(s for s in range(n) if rng.random() < 0.4)
    return Automaton(
        labels=(None,) * n, initial=0, transitions=tuple(transitions), terminating=terminating
    )


def encoding_records() -> list[str]:
    rng = random.Random(20261022)
    records = []
    for n in range(16, 61, 4):
        fa = connected_fa(rng, n, rng.randint(1, 3))
        enc = encode_fa(fa)
        derived = automaton_to_json(derive_automaton(enc.expression, enc.gamma))
        result = verify_encoding(fa)
        mapping = list(result.mapping)
        records.append(f"{automaton_to_json(fa)}isomorphic {result.isomorphic} mapping {mapping}\n{derived}")
    return records


REFINEMENT_STATES = 40


def _refinement_inputs() -> list[Automaton]:
    """Automata of at most ``REFINEMENT_STATES`` states with at least one
    transition: ``connected_fa`` draws, then spine and root terms derived
    under a random table that fit the bound."""
    rng = random.Random(20261023)
    inputs = [connected_fa(rng, rng.randint(2, REFINEMENT_STATES), rng.randint(1, 3)) for _ in range(100)]
    while len(inputs) < 200:
        if len(inputs) % 2:
            leaves = [_term(rng, rng.choice((1, 2, 3))) for _ in range(rng.randint(2, 3))]
            e = _spine(rng, leaves, "random", 0.2)
        else:
            e = _term(rng, 4)
        try:
            a = derive_automaton(e, GAMMAS[rng.choice(list(GAMMAS))], REFINEMENT_STATES)
        except StateLimitExceeded:
            continue
        if a.transitions:
            inputs.append(a)
    return inputs


def _mutated(rng: random.Random, a: Automaton) -> Automaton:
    """``a`` with one transition's target, or else its action, changed."""
    transitions = list(a.transitions)
    i = rng.randrange(len(transitions))
    t = transitions[i]
    if a.n_states > 1 and rng.random() < 0.5:
        transitions[i] = t._replace(target=rng.choice([s for s in range(a.n_states) if s != t.target]))
    else:
        names = sorted(({u.action.name for u in transitions} | {"z"}) - {t.action.name})
        transitions[i] = t._replace(action=Action(rng.choice(names)))
    return Automaton(a.labels, a.initial, tuple(transitions), a.terminating)


def _pair_record(kind: str, a: Automaton, b: Automaton) -> str:
    bisim = bisimilar(a, b)
    witness = None if bisim.witness_relation is None else sorted(bisim.witness_relation)
    iso = isomorphic(a, b)
    mapping = None if iso.mapping is None else list(iso.mapping)
    return (
        f"{kind}\n{automaton_to_json(a)}{automaton_to_json(b)}"
        f"bisimilar {bisim.bisimilar} partition {list(bisim.partition)}\nwitness {witness}\n"
        f"minimize {automaton_to_json(minimize(b))}"
        f"isomorphic {iso.isomorphic} mapping {mapping}\n"
    )


def refinement_records() -> list[str]:
    rng = random.Random(20261024)
    records = []
    for a in _refinement_inputs():
        perm = list(range(a.n_states))
        rng.shuffle(perm)
        records.append(_pair_record("shuffled", a, permute_automaton(a, perm)))
        records.append(_pair_record("mutated", a, _mutated(rng, a)))
        records.append(_pair_record("minimized", a, minimize(a)))
    return records


# The operators each theory's terms draw from, besides the leaves.
THEORY_OPS = {
    Theory.BPA: ("seq", "alt", "star"),
    Theory.PA: ("seq", "alt", "star", "par"),
    Theory.ACP: ("seq", "alt", "star", "par", "encap"),
}


def _theory_term(rng: random.Random, depth: int, ops: tuple[str, ...]):
    """A random term over ``ALPHABET`` built from the operators ``ops``."""
    if depth == 0 or rng.random() < 0.3:
        r = rng.random()
        if r < 0.1:
            return DEADLOCK if r < 0.05 else EMPTY
        return act(rng.choice(ALPHABET))
    op = rng.choice(ops)
    if op == "star":
        return Star(_theory_term(rng, depth - 1, ops))
    if op == "encap":
        return Encap(_blocked(rng), _theory_term(rng, depth - 1, ops))
    left, right = _theory_term(rng, depth - 1, ops), _theory_term(rng, depth - 1, ops)
    return {"seq": Seq, "alt": Alt, "par": Par}[op](left, right)


def _term_record(e, gamma_id: str) -> str:
    try:
        oc = str(oc_measure(e))
    except UnsupportedExpression as exc:
        oc = f"unsupported: {exc}"
    moves = sorted((a.name, render_expression(target)) for a, target in step(e, GAMMAS[gamma_id]))
    return (
        f"{render_expression(e)}\nterminates {terminates(e)} theory {classify_theory(e).value}"
        f" oc {oc}\nstep {gamma_id} {moves}\n"
    )


def term_records() -> list[str]:
    rng = random.Random(20261025)
    gamma_ids = list(GAMMAS)
    records = []
    for i in range(1500):
        theory = (Theory.BPA, Theory.PA, Theory.ACP)[i % 3]
        ops = THEORY_OPS[theory]
        gamma_id = gamma_ids[i % len(gamma_ids)]
        if i % 10 >= 8:  # a ||/encap root over BPA leaves, one in four up to 60 wide
            width = rng.randint(13, 60) if i % 40 >= 38 else rng.randint(2, 12)
            bpa = THEORY_OPS[Theory.BPA]
            leaves = [_theory_term(rng, rng.choice((0, 0, 1)), bpa) for _ in range(width)]
            shape = ("left", "right", "balanced")[i // 10 % 3]
            e = _spine(rng, leaves, shape, 0.15 if theory is Theory.ACP else 0.0)
            if width > 12:  # a table would pair most of its leaves' moves
                gamma_id = "none"
        else:
            e = _theory_term(rng, rng.randint(0, 5), ops)
        records.append(_term_record(e, gamma_id))
    return records


def _random_table(rng: random.Random, kind: str) -> CommFn:
    """A table of one of three kinds: ``handshaking`` (no result is an
    argument), ``three_party`` (chains ``x y -> z``, ``z w -> v``, whose
    results communicate again) or ``mixed`` (results drawn from the
    arguments, so associativity and handshaking mostly fail)."""
    names = [f"a{k}" for k in range(rng.randint(2, 6))]
    triples = {}
    for _ in range(rng.randint(1, 8)):
        x, y = rng.choice(names), rng.choice(names)
        if kind == "handshaking":
            z = f"r{rng.randrange(3)}"
        elif kind == "three_party":
            z = f"c{len(triples)}"
            names.append(z)
        else:
            z = rng.choice(names)
        triples.setdefault(tuple(sorted((x, y))), z)
    return CommFn((Action(x), Action(y), Action(z)) for (x, y), z in triples.items())


def _validation_record(kind: str, g: CommFn) -> str:
    v = validate_comm_fn(g)
    return (
        f"validate {kind}\n{dump_comm_fn(g)}associative {v.associative}"
        f" handshaking {v.handshaking}\n" + "".join(f"{m}\n" for m in v.violations)
    )


def _loaded_table(text: str) -> str:
    try:
        return "ok\n" + dump_comm_fn(load_comm_fn(text))
    except CommFnError as exc:
        return f"error {exc}\n"


# Ways to spoil one line ``x y -> z`` of a table; each takes the rng and
# the line's three names.
_TABLE_LINE_MUTATIONS = {
    "no arrow": lambda rng, x, y, z: f"{x} {y} {z}",
    "extra name": lambda rng, x, y, z: f"{x} {y} {z} -> {z}",
    "one argument": lambda rng, x, y, z: f"{x} -> {z}",
    "two results": lambda rng, x, y, z: f"{x} {y} -> {z} {x}",
    "reserved argument": lambda rng, x, y, z: f"encap {y} -> {z}",
    "reserved result": lambda rng, x, y, z: f"{x} {y} -> encap",
    "bad character": lambda rng, x, y, z: f"{x}-{rng.randrange(9)} {y} -> {z}",
    "leading digit": lambda rng, x, y, z: f"{x} {y} -> {rng.randrange(9)}{z}",
    "conflict": lambda rng, x, y, z: f"{y} {x} -> {z}_{rng.randrange(9)}",
    "repeated swapped": lambda rng, x, y, z: f"{y}\t{x}->{z}",
    "comment": lambda rng, x, y, z: f"  # {x} {y} -> nothing",
    "trailing comment": lambda rng, x, y, z: f"{x} {y} -> {z} # again",
}


def _table_text_records(rng: random.Random, g: CommFn) -> list[str]:
    lines = dump_comm_fn(g).splitlines()
    records = []
    for name, mutate in _TABLE_LINE_MUTATIONS.items():
        i = rng.randrange(len(lines))
        x, y, _, z = lines[i].split()
        spoiled = lines.copy()
        spoiled.insert(rng.randint(i + 1, len(lines)) if name == "conflict" else i, mutate(rng, x, y, z))
        if rng.random() < 0.3:
            spoiled.insert(rng.randint(0, len(spoiled)), "")
        text = "\n".join(spoiled) + "\n"
        records.append(f"load {name}\n{text}-> {_loaded_table(text)}")
    return records


def _loaded_automaton(obj) -> str:
    try:
        return "ok\n" + automaton_to_json(automaton_from_json(json.dumps(obj)))
    except AutomatonFormatError as exc:
        return f"error {exc}\n"


# Values of the wrong type for a state id or an action name.
_WRONG = ("1", 1.0, True, None, [0], {"id": 0})


def _automaton_mutations(rng: random.Random, obj: dict) -> dict[str, object]:
    """Named mutations of the JSON object of an automaton, each of a copy."""
    n = len(obj["states"])
    s = rng.randrange(n)
    mutations: dict[str, object] = {}

    def put(name: str, change) -> None:
        copy = json.loads(json.dumps(obj))
        change(copy)
        mutations[name] = copy

    for key in ("states", "initial", "transitions"):
        put(f"drop {key}", lambda o, key=key: o.pop(key))
    mutations["top level array"] = [obj]
    put("states empty", lambda o: o.update(states=[]))
    put("states an object", lambda o: o.update(states=o["states"][0]))
    put("state not an object", lambda o: o["states"].__setitem__(s, rng.choice((s, "s", None))))
    put("state id dropped", lambda o: o["states"][s].pop("id"))
    put("state id wrong type", lambda o: o["states"][s].update(id=rng.choice(_WRONG)))
    put("state id out of range", lambda o: o["states"][s].update(id=rng.choice((n, -1, 10 * n))))
    if n > 1:
        put("state id repeated", lambda o: o["states"][s].update(id=(s + 1) % n))
    put("label wrong type", lambda o: o["states"][s].update(label=rng.choice((7, ["p"], True))))
    put("label dropped", lambda o: o["states"][s].pop("label", None))
    put("terminating wrong type", lambda o: o["states"][s].update(terminating=rng.choice((0, 1, "yes"))))
    put("terminating null", lambda o: o["states"][s].update(terminating=None))
    put("initial wrong type", lambda o: o.update(initial=rng.choice(_WRONG)))
    put("initial out of range", lambda o: o.update(initial=rng.choice((n, -1))))
    put("transitions an object", lambda o: o.update(transitions={"from": 0}))
    if obj["transitions"]:
        t = rng.randrange(len(obj["transitions"]))

        def edge(change):
            return lambda o: change(o["transitions"][t])

        put("transition keys replaced", edge(lambda e: e.clear() or e.update(x=[0])))
        put("transition a list", lambda o: o["transitions"].__setitem__(t, [0, "a", 0]))
        for key in ("from", "action", "to"):
            put(f"transition {key} dropped", edge(lambda e, key=key: e.pop(key)))
            put(f"transition {key} wrong type", edge(lambda e, key=key: e.update({key: rng.choice(_WRONG)})))
        for key in ("from", "to"):
            put(f"transition {key} out of range", edge(lambda e, key=key: e.update({key: rng.choice((n, -1))})))
        for bad in ("", "1a", "a b", "encap", "a-b"):
            put(f"action {bad!r}", edge(lambda e, bad=bad: e.update(action=bad)))
        put("transitions shuffled", lambda o: rng.shuffle(o["transitions"]))
        put("transition repeated", lambda o: o["transitions"].insert(
            rng.randint(0, len(o["transitions"])), dict(o["transitions"][t])))
        put("transitions reversed", lambda o: o["transitions"].reverse())
    return mutations


def rejection_records() -> list[str]:
    rng = random.Random(20261026)
    records = []
    tables = []
    for i in range(150):
        kind = ("handshaking", "three_party", "mixed")[i % 3]
        g = _random_table(rng, kind)
        tables.append(g)
        records.append(_validation_record(kind, g))
    for g in tables[:60]:
        records += _table_text_records(rng, g)
    for k in range(40):
        if k % 2:
            a = connected_fa(rng, rng.randint(1, 6), rng.randint(1, 2))
        else:
            e = _term(rng, 3)
            try:
                a = derive_automaton(e, GAMMAS[rng.choice(list(GAMMAS))], 8)
            except StateLimitExceeded:
                a = derive_automaton(act(rng.choice(ALPHABET)))
        obj = json.loads(automaton_to_json(a))
        for name, mutated in _automaton_mutations(rng, obj).items():
            records.append(f"read {name}\n{json.dumps(mutated)}\n-> {_loaded_automaton(mutated)}")
    return records


# Every token of the grammar, and text that the tokenizer rejects.
PARSE_TOKENS = (
    "0", "1", "*", ".", "+", "(", ")", "{", "}", ",", "||", "encap", "a", "b",
    "|", "#", "é", " ", "x_1",
)
_FROZENSET_RE = re.compile(r"frozenset\(\{(.*?)\}\)")


def _parse_record(text: str) -> str:
    try:
        e = parse_expression(text)
    except ParseError as exc:
        return f"{text}\n-> {exc} {exc.position}"
    tree = _FROZENSET_RE.sub(
        lambda m: "frozenset({" + ", ".join(sorted(m.group(1).split(", "))) + "})", repr(e)
    )
    return f"{text}\n-> {tree}\n{render_expression(e)}"


def parse_records() -> list[str]:
    rng = random.Random(20261027)
    records = []
    for _ in range(2000):
        tokens = rng.choices(PARSE_TOKENS, k=rng.randint(0, 14))
        records.append(_parse_record("".join(tokens)))
    characters = "01*.+(){},|ab #"
    for _ in range(2000):
        e = _theory_term(rng, rng.randint(0, 5), THEORY_OPS[Theory.ACP])
        text = render_expression(e)
        nodes = list(subterms(e))
        for _ in range(rng.randint(0, 3)):
            part = render_expression(rng.choice(nodes))
            i = text.find(part)  # gone if a wrap above cut through it
            if i >= 0:
                text = f"{text[:i]}({part}){text[i + len(part):]}"
        i = rng.randint(0, len(text))
        if text and rng.random() < 0.5:
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + rng.choice(characters) + text[i:]
        records.append(_parse_record(text))
    return records


FAMILIES = {
    "spines": spine_records,
    "roots": root_records,
    "encodings": encoding_records,
    "refinement": refinement_records,
    "terms": term_records,
    "rejections": rejection_records,
    "relays": relay_records,
    "parses": parse_records,
}


def digest(records: list[str]) -> str:
    h = hashlib.sha256()
    for record in records:
        h.update(record.encode())
        h.update(b"\0")
    return h.hexdigest()


def fingerprint(record: str) -> str:
    return hashlib.sha256(record.encode()).hexdigest()[:12]


def first_difference(family: str, records: list[str]) -> str:
    """A message naming the first record of ``family`` whose fingerprint
    differs from the pinned one, with that record's text as it is now."""
    pinned = json.loads(FINGERPRINTS.read_text())[family]
    for i, record in enumerate(records):
        if i >= len(pinned) or fingerprint(record) != pinned[i]:
            return f"{family}: record {i} of {len(records)} differs; it now reads:\n{record[:4000]}"
    return f"{family}: {len(records)} records where {len(pinned)} were pinned"


def _diff(checkout: Path) -> None:
    """Print, per family, the first record that differs between this
    checkout's ``src/`` and ``checkout``'s."""
    here = Path(__file__).resolve()
    for family, build in FAMILIES.items():
        ours = build()
        script = (
            "import sys, json; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
            "from tests import corpus\n"
            f"json.dump(corpus.FAMILIES[{family!r}](), sys.stdout)\n"
        )
        theirs = json.loads(subprocess.run(
            [sys.executable, "-c", script, str(checkout / "src"), str(here.parents[1])],
            check=True, capture_output=True, text=True,
        ).stdout)
        for i, (mine, other) in enumerate(zip(ours, theirs)):
            if mine != other:
                print(f"{family}: record {i} differs\n--- {checkout}\n{other}\n--- here\n{mine}")
                break
        else:
            print(f"{family}: {len(ours)} records here, {len(theirs)} there, none differs")


def main(argv: list[str]) -> None:
    if argv[:1] == ["--diff"] and len(argv) == 2:
        _diff(Path(argv[1]))
        return
    families = {family: build() for family, build in FAMILIES.items()}
    for family, records in families.items():
        print(f"{family} {len(records)} {digest(records)}")
    if argv == ["--write"]:
        pinned = json.loads(FINGERPRINTS.read_text()) if FINGERPRINTS.exists() else {}
        for family, records in families.items():
            pinned.setdefault(family, [fingerprint(r) for r in records])
        FINGERPRINTS.write_text(json.dumps(pinned, indent=0) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
