"""Strong bisimilarity via partition refinement, bisimulation checking,
quotient minimisation, and automaton isomorphism."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from .semantics import Automaton, Transition, _canonical_automaton, _transition


def _coarsest_partition(
    automata: tuple[Automaton, ...], seed: list, counted: bool = False
) -> list[int]:
    """Relational coarsest partition of the disjoint union of ``automata``
    (one automaton's states after another's) refining the ``seed`` colouring.

    States with unequal ``seed`` colours never share a block.  Simple
    splitter style: states are repeatedly regrouped by their one-step
    signature (current block plus the set of (action name, successor block)
    pairs) until the number of blocks stops growing.  Block ids are assigned
    by first occurrence in state order, so the result depends only on the
    partition the seed induces.  Seeded by the termination flag this is
    strong bisimilarity.  With ``counted`` the signature is the current
    block plus the multiset of (action name, successor block) pairs and the
    multiset of (action name, predecessor block) pairs, each a sorted tuple:
    colour refinement over labelled out- and in-edges, finer than
    bisimilarity and still preserved by every isomorphism; its seed colours
    must order, since the sorts compare them.
    """
    block = seed
    count = len(set(block))
    while True:
        remap: dict[tuple, int] = {}
        new: list[int] = []
        for m in automata:
            succ, pred, _ = m._rows
            local = block[len(new) : len(new) + m.n_states]  # m's states start at len(new)
            for s, moves in enumerate(succ):
                pairs = ((name, local[t]) for name, t in moves)
                if counted:
                    ins = sorted([(name, local[u]) for name, u in pred[s]])
                    key = (local[s], tuple(sorted(pairs)), tuple(ins))
                else:
                    key = (local[s], frozenset(pairs))
                new.append(remap.setdefault(key, len(remap)))
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


def _second_by_block(block: list[int], offset: int) -> dict[int, list[int]]:
    """States of the second automaton of a union, in increasing order, per block."""
    groups: dict[int, list[int]] = {}
    for j, bid in enumerate(block[offset:]):
        groups.setdefault(bid, []).append(j)
    return groups


def bisimilar(a: Automaton, b: Automaton) -> BisimResult:
    """Decide strong bisimilarity of the two initial states."""
    seed = [s in m.terminating for m in (a, b) for s in range(m.n_states)]
    block = _coarsest_partition((a, b), seed)
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
    a_out = a._rows[0]
    b_out = b._rows[0]
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
    out, _, action_of = a._rows
    block = _coarsest_partition((a,), [s in a.terminating for s in range(a.n_states)])
    first: dict[int, int] = {}
    for s, bid in enumerate(block):
        first.setdefault(bid, s)
    # The partition is stable, so every member of a block has the same
    # (action, block) moves: the quotient is read off each block's
    # lowest-numbered state.  ``members`` grows while it is walked, which makes
    # it the breadth-first queue; its i-th entry is the state read for new id i.
    order = {block[a.initial]: 0}
    members = [first[block[a.initial]]]
    # New ids are given in (name, block) order; each row is then sorted by
    # (name, new id), so the transitions are built deduplicated and sorted.
    transitions: list[Transition] = []
    for source, member in enumerate(members):
        moves = sorted({(name, block[t]) for name, t in out[member]})
        for _, target in moves:
            if target not in order:
                order[target] = len(order)
                members.append(first[target])
        transitions += [
            _transition((source, action_of[name], t))
            for name, t in sorted([(name, order[target]) for name, target in moves])
        ]
    return _canonical_automaton(
        tuple([a.labels[s] for s in members]),
        0,
        tuple(transitions),
        frozenset([i for i, s in enumerate(members) if s in a.terminating]),
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


def isomorphic(a: Automaton, b: Automaton) -> IsoResult:
    """Exact isomorphism on finite automata.

    Every isomorphism preserving the initial state maps each state into its
    own block of the counted refinement (colour refinement) of the disjoint
    union over labelled out- and in-edges, seeded by ``2 * is initial +
    terminates``.  The automata are not isomorphic when the two halves' block
    histograms differ; otherwise an iterative backtracking search tries, for
    each state in order, only the second automaton's states of its block,
    lowest index first, so the returned bijection is the lexicographically
    least isomorphism.  Counting edges in both directions tells apart states
    that are bisimilar but differ in fan-out or predecessors, which keeps the
    search from backtracking across them.  A candidate is checked edge-locally,
    as in VF2: only the state's labelled edges to itself and to states already
    mapped are compared with the candidate's edges to assigned images.  The
    mapping preserves the initial state, termination flags, and labelled
    transitions in both directions.
    """
    if (
        a.n_states != b.n_states
        or len(a.transitions) != len(b.transitions)
        or len(a.terminating) != len(b.terminating)
    ):
        return IsoResult(False, None)
    n = a.n_states
    seed = [2 * (s == m.initial) + (s in m.terminating) for m in (a, b) for s in range(n)]
    block = _coarsest_partition((a, b), seed, counted=True)
    second = _second_by_block(block, n)
    if Counter(block[:n]) != {bid: len(states) for bid, states in second.items()}:
        return IsoResult(False, None)
    candidates = [second[block[s]] for s in range(n)]
    a_succ, a_pred, _ = a._rows
    b_succ, b_pred, _ = b._rows
    mapping: list[int] = [-1] * n
    inverse: list[int] = [-1] * n
    cursor = [0] * n

    # Depth-first over the states of ``a`` in order; ``cursor[s]`` is the next
    # candidate to try for state ``s`` when the search reaches or returns to it.
    s = 0
    while 0 <= s < n:
        if mapping[s] != -1:
            inverse[mapping[s]] = -1
            mapping[s] = -1
        options = candidates[s]
        while cursor[s] < len(options):
            t = options[cursor[s]]
            cursor[s] += 1
            if inverse[t] == -1:
                mapping[s], inverse[t] = t, s
                # States 0..s are now mapped: their edges to s in a must be
                # exactly t's edges to the images, in both directions.
                if {(x, mapping[u]) for x, u in a_succ[s] if u <= s} == {
                    (x, v) for x, v in b_succ[t] if inverse[v] != -1
                } and {(x, mapping[u]) for x, u in a_pred[s] if u <= s} == {
                    (x, v) for x, v in b_pred[t] if inverse[v] != -1
                }:
                    break
                mapping[s], inverse[t] = -1, -1
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
