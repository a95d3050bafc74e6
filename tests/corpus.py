"""A seeded differential corpus: derive and encoding output on generated
inputs, one text record per input, grouped in families.

``tests/test_corpus.py`` pins one sha256 per family.  The digests were
computed once, by the code before the spine product was rewritten around
synchronisation vectors, and are never edited to fit the code: a change
whose output differs needs a decision of its own.  Every record is built
from ``automaton_to_json``, rendered expressions and plain ints, never from
the ``repr`` of a set, so no digest depends on ``PYTHONHASHSEED``.  The
generators here use only ``random.Random`` with fixed seeds and import
nothing from ``perfbench/``, so the corpus does not move with the bench.

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
    CommFn,
    Encap,
    Par,
    Seq,
    Star,
    StateLimitExceeded,
    Transition,
    act,
    automaton_to_json,
    derive_automaton,
    bisimilar,
    encode_fa,
    isomorphic,
    minimize,
    render_expression,
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


def _spine(rng: random.Random, leaves: list, shape: str, encaps: float):
    """``leaves`` joined by ``||`` in the given shape, with an ``encap`` of a
    random blocked set around each spine node with probability ``encaps``."""
    def wrap(node):
        return Encap(_blocked(rng), node) if rng.random() < encaps else node

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


def _derive_record(e, gamma_id: str, limit: int) -> str:
    head = f"{render_expression(e)} / {gamma_id} / {limit}\n"
    try:
        return head + automaton_to_json(derive_automaton(e, GAMMAS[gamma_id], limit))
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


FAMILIES = {
    "spines": spine_records,
    "roots": root_records,
    "encodings": encoding_records,
    "refinement": refinement_records,
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
