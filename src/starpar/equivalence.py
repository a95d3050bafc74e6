"""Strong bisimilarity via partition refinement, bisimulation checking,
quotient minimisation, and automaton isomorphism."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Hashable, Iterable

from .semantics import Automaton, Transition
from .syntax import Action


def _coarsest_partition(
    out: list[list[tuple[Hashable, int]]], seed: list[Hashable], counted: bool = False
) -> list[int]:
    """Relational coarsest partition refining the ``seed`` colouring.

    ``seed[i]`` is any hashable colour of state ``i``; states with unequal
    colours never share a block.  Simple splitter style: states are repeatedly
    regrouped by their one-step signature (current block plus the set of
    (label, successor block) pairs) until the number of blocks stops growing.
    Block ids are assigned by first occurrence in state order, so the result
    depends only on the partition the seed induces, not on its colour values.
    Seeded by the termination flag this is strong bisimilarity.  With
    ``counted`` the signature holds the multiset of those pairs instead of
    the set, which is colour refinement: run over labelled out- and in-edges
    it is finer than bisimilarity and still preserved by every isomorphism.
    """
    block = seed
    count = len(set(block))
    while True:
        remap: dict[tuple[Hashable, frozenset], int] = {}
        new = []
        for i, moves in enumerate(out):
            pairs = ((a, block[t]) for a, t in moves)
            step = frozenset(Counter(pairs).items()) if counted else frozenset(pairs)
            new.append(remap.setdefault((block[i], step), len(remap)))
        if len(remap) == count:
            return new
        block = new
        count = len(remap)


@dataclass(frozen=True)
class BisimResult:
    """Outcome of the bisimilarity check on two automata.

    ``partition`` maps states of the disjoint union (first automaton's states,
    then the second's) to blocks of the coarsest partition.  When the initial
    states share a block, ``witness_relation`` holds every cross-automaton
    pair of states in a common block; that relation is itself a bisimulation
    relating the initial states.
    """

    bisimilar: bool
    partition: tuple[int, ...]
    witness_relation: frozenset[tuple[int, int]] | None


def _union_out(a: Automaton, b: Automaton) -> list[list[tuple[Action, int]]]:
    out = a.out()
    shifted: list[list[tuple[Action, int]]] = [
        [(action, target + a.n_states) for action, target in row] for row in b.out()
    ]
    return out + shifted


def _second_by_block(block: list[int], offset: int) -> dict[int, list[int]]:
    """States of the second automaton of a union, in increasing order, per block."""
    groups: dict[int, list[int]] = {}
    for j, bid in enumerate(block[offset:]):
        groups.setdefault(bid, []).append(j)
    return groups


def bisimilar(a: Automaton, b: Automaton) -> BisimResult:
    """Decide strong bisimilarity of the two initial states."""
    seed = [s in m.terminating for m in (a, b) for s in range(m.n_states)]
    block = _coarsest_partition(_union_out(a, b), seed)
    related = block[a.initial] == block[a.n_states + b.initial]
    witness = None
    if related:
        second = _second_by_block(block, a.n_states)
        witness = frozenset(
            (i, j) for i in range(a.n_states) for j in second.get(block[i], ())
        )
    return BisimResult(bisimilar=related, partition=tuple(block), witness_relation=witness)


def check_bisimulation(a: Automaton, b: Automaton, relation: Iterable[tuple[int, int]]) -> bool:
    """Verify that ``relation`` is a bisimulation relating the initial states.

    Checks the two transfer clauses and termination agreement for every pair,
    plus membership of the initial pair.
    """
    pairs = set(relation)
    for s1, s2 in pairs:
        if not (0 <= s1 < a.n_states and 0 <= s2 < b.n_states):
            raise ValueError(f"pair ({s1}, {s2}) references invalid states")
    if (a.initial, b.initial) not in pairs:
        return False
    a_out = a.out()
    b_out = b.out()
    for s1, s2 in pairs:
        if (s1 in a.terminating) != (s2 in b.terminating):
            return False
        for action, t1 in a_out[s1]:
            if not any(
                action == action2 and (t1, t2) in pairs for action2, t2 in b_out[s2]
            ):
                return False
        for action, t2 in b_out[s2]:
            if not any(
                action == action1 and (t1, t2) in pairs for action1, t1 in a_out[s1]
            ):
                return False
    return True


def minimize(a: Automaton) -> Automaton:
    """Quotient of the automaton by bisimilarity, restricted to the part
    reachable from the initial state.

    The result is bisimilar to the input and no two of its states are
    bisimilar to each other.  State numbering is breadth-first from the
    initial block for determinism.
    """
    out = a.out()
    block = _coarsest_partition(out, [s in a.terminating for s in range(a.n_states)])
    first: dict[int, int] = {}
    for s, bid in enumerate(block):
        first.setdefault(bid, s)
    # The partition is stable, so every member of a block has the same
    # (action, block) moves: the quotient is read off each block's
    # lowest-numbered state.  ``members`` grows while it is walked, which makes
    # it the breadth-first queue; its i-th entry is the state read for new id i.
    order = {block[a.initial]: 0}
    members = [first[block[a.initial]]]
    transitions = []
    for source, member in enumerate(members):
        moves = {(action, block[t]) for action, t in out[member]}
        for action, target in sorted(moves, key=lambda x: (x[0].name, x[1])):
            if target not in order:
                order[target] = len(order)
                members.append(first[target])
            transitions.append(Transition(source, action, order[target]))
    return Automaton(
        labels=tuple(a.labels[s] for s in members),
        initial=0,
        transitions=tuple(transitions),
        terminating=frozenset(i for i, s in enumerate(members) if s in a.terminating),
    )


# ---------------------------------------------------------------------------
# Isomorphism
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IsoResult:
    """Outcome of the isomorphism check; ``mapping[i]`` is the image of the
    first automaton's state ``i`` when isomorphic."""

    isomorphic: bool
    mapping: tuple[int, ...] | None


def _edge_labels(m: Automaton) -> dict[tuple[int, int], frozenset[Action]]:
    labels: dict[tuple[int, int], set[Action]] = {}
    for t in m.transitions:
        labels.setdefault((t.source, t.target), set()).add(t.action)
    return {k: frozenset(v) for k, v in labels.items()}


def isomorphic(a: Automaton, b: Automaton) -> IsoResult:
    """Exact isomorphism on finite automata.

    Every isomorphism preserving the initial state maps each state into its
    own block of the counted refinement (colour refinement) of the disjoint
    union over labelled out- and in-edges, seeded by (is initial,
    terminates).  The automata are not isomorphic when the two halves' block
    histograms differ; otherwise an iterative backtracking search tries, for
    each state in order, only the second automaton's states of its block,
    lowest index first, so the returned bijection is the lexicographically
    least isomorphism.  Counting edges in both directions tells apart states
    that are bisimilar but differ in fan-out or predecessors, which keeps the
    search from backtracking across them.  The mapping preserves the initial
    state, termination flags, and labelled transitions in both directions.
    """
    if (
        a.n_states != b.n_states
        or len(a.transitions) != len(b.transitions)
        or len(a.terminating) != len(b.terminating)
    ):
        return IsoResult(False, None)
    n = a.n_states
    seed = [(s == m.initial, s in m.terminating) for m in (a, b) for s in range(n)]
    # Labelled out- and in-edges of the union.  The k-th action name labels
    # an out-edge 2k and an in-edge 2k + 1: int labels keep the counted
    # signatures cheap to hash, where an Action hashes in Python.
    edges: list[list[tuple[int, int]]] = [[] for _ in range(2 * n)]
    label: dict[str, int] = {}
    for offset, m in ((0, a), (n, b)):
        for t in m.transitions:
            k = 2 * label.setdefault(t.action.name, len(label))
            edges[offset + t.source].append((k, offset + t.target))
            edges[offset + t.target].append((k + 1, offset + t.source))
    block = _coarsest_partition(edges, seed, counted=True)
    second = _second_by_block(block, n)
    if Counter(block[:n]) != {bid: len(states) for bid, states in second.items()}:
        return IsoResult(False, None)
    candidates = [second[block[s]] for s in range(n)]
    a_edges = _edge_labels(a)
    b_edges = _edge_labels(b)
    mapping: list[int] = [-1] * n
    used = [False] * n
    cursor = [0] * n

    def consistent(s: int, t: int) -> bool:
        for u in range(s + 1):
            v = mapping[u] if u < s else t
            if a_edges.get((u, s)) != b_edges.get((v, t)):
                return False
            if a_edges.get((s, u)) != b_edges.get((t, v)):
                return False
        return True

    # Depth-first over the states of ``a`` in order; ``cursor[s]`` is the next
    # candidate to try for state ``s`` when the search reaches or returns to it.
    s = 0
    while 0 <= s < n:
        if mapping[s] != -1:
            used[mapping[s]] = False
            mapping[s] = -1
        options = candidates[s]
        while cursor[s] < len(options):
            t = options[cursor[s]]
            cursor[s] += 1
            if not used[t] and consistent(s, t):
                mapping[s] = t
                used[t] = True
                break
        if mapping[s] == -1:
            cursor[s] = 0
            s -= 1
        else:
            s += 1
    if s < 0:
        return IsoResult(False, None)
    if mapping[a.initial] != b.initial:  # pragma: no cover - enforced by the seed
        return IsoResult(False, None)
    return IsoResult(True, tuple(mapping))
