"""Independent oracles and random generators for the test suites.

Everything here deliberately avoids the library's own algorithms: the
bisimilarity oracle deletes violating pairs from the full relation, the step
oracles check a single derivation rule at a time or apply every rule to the
tree as sets, and read termination off the tree with their own predicate,
the communication-function oracle evaluates every triple of the table
closure, the isomorphism oracle tries every permutation, and the automaton
builders assemble states and transitions directly.
"""

from __future__ import annotations

import itertools
import random

from starpar import (
    EMPTY,
    EMPTY_COMM,
    Act,
    Action,
    Alt,
    Automaton,
    CommFn,
    CommValidation,
    Deadlock,
    Empty,
    Encap,
    Expression,
    Par,
    Seq,
    Star,
    Transition,
)


def naive_bisimilar(a: Automaton, b: Automaton) -> bool:
    """Greatest-fixpoint bisimilarity: start from all termination-agreeing
    pairs and delete pairs violating a transfer clause until stable."""
    a_out = a.out()
    b_out = b.out()
    related = {
        (i, j)
        for i in range(a.n_states)
        for j in range(b.n_states)
        if (i in a.terminating) == (j in b.terminating)
    }
    changed = True
    while changed:
        changed = False
        for i, j in list(related):
            ok = all(
                any(act == act2 and (t1, t2) in related for act2, t2 in b_out[j])
                for act, t1 in a_out[i]
            ) and all(
                any(act == act1 and (t1, t2) in related for act1, t1 in a_out[i])
                for act, t2 in b_out[j]
            )
            if not ok:
                related.discard((i, j))
                changed = True
    return (a.initial, b.initial) in related


def naive_validate_comm_fn(g: CommFn) -> CommValidation:
    """Associativity over every triple of the closure, in sorted closure
    order, and handshaking: the cubic reference for validate_comm_fn."""
    closure = sorted(g.arguments() | g.results())
    assoc_violations = []
    for a in closure:
        for b in closure:
            ab = g.lookup(a, b)
            for c in closure:
                left = g.lookup(ab, c) if ab is not None else None
                bc = g.lookup(b, c)
                right = g.lookup(a, bc) if bc is not None else None
                if left != right:
                    assoc_violations.append((a, b, c))
    handshake_violations = sorted(g.results() & g.arguments())
    return CommValidation(
        commutative=True,
        associative=not assoc_violations,
        handshaking=not handshake_violations,
        associativity_violations=tuple(assoc_violations),
        handshaking_violations=tuple(handshake_violations),
    )


def _terminates(e: Expression) -> bool:
    """The termination predicate read off the tree: ``1`` and every star
    terminate, ``+`` needs either side, ``.`` and ``||`` both, ``encap`` its
    body."""
    if isinstance(e, (Empty, Star)):
        return True
    if isinstance(e, Alt):
        return _terminates(e.left) or _terminates(e.right)
    if isinstance(e, (Seq, Par)):
        return _terminates(e.left) and _terminates(e.right)
    if isinstance(e, Encap):
        return _terminates(e.body)
    if isinstance(e, (Deadlock, Act)):
        return False
    raise TypeError(f"not an expression: {e!r}")


def rule_derivable(e: Expression, action: Action, target: Expression, comm: CommFn) -> bool:
    """Check one claimed transition by matching the applicable rules, one at a
    time, against the shapes of the source and target expressions."""
    if isinstance(e, (Deadlock, Empty)):
        return False
    if isinstance(e, Act):
        return action == e.action and target == EMPTY
    if isinstance(e, Alt):
        return rule_derivable(e.left, action, target, comm) or rule_derivable(
            e.right, action, target, comm
        )
    if isinstance(e, Seq):
        via_left = (
            isinstance(target, Seq)
            and target.right == e.right
            and rule_derivable(e.left, action, target.left, comm)
        )
        via_right = _terminates(e.left) and rule_derivable(e.right, action, target, comm)
        return via_left or via_right
    if isinstance(e, Star):
        return (
            isinstance(target, Seq)
            and target.right == e
            and rule_derivable(e.body, action, target.left, comm)
        )
    if isinstance(e, Par):
        if isinstance(target, Par):
            if target.right == e.right and rule_derivable(e.left, action, target.left, comm):
                return True
            if target.left == e.left and rule_derivable(e.right, action, target.right, comm):
                return True
            # communication: some pair of component actions results in `action`
            for a in _enabled_actions(e.left, comm):
                for b in _enabled_actions(e.right, comm):
                    if comm.lookup(a, b) == action and rule_derivable(
                        e.left, a, target.left, comm
                    ) and rule_derivable(e.right, b, target.right, comm):
                        return True
        return False
    if isinstance(e, Encap):
        return (
            action not in e.blocked
            and isinstance(target, Encap)
            and target.blocked == e.blocked
            and rule_derivable(e.body, action, target.body, comm)
        )
    raise TypeError(f"not an expression: {e!r}")


def _enabled_actions(e: Expression, comm: CommFn) -> set[Action]:
    if isinstance(e, (Deadlock, Empty)):
        return set()
    if isinstance(e, Act):
        return {e.action}
    if isinstance(e, (Alt,)):
        return _enabled_actions(e.left, comm) | _enabled_actions(e.right, comm)
    if isinstance(e, Seq):
        enabled = _enabled_actions(e.left, comm)
        if _terminates(e.left):
            enabled |= _enabled_actions(e.right, comm)
        return enabled
    if isinstance(e, Star):
        return _enabled_actions(e.body, comm)
    if isinstance(e, Par):
        left = _enabled_actions(e.left, comm)
        right = _enabled_actions(e.right, comm)
        comms = {
            comm.lookup(a, b) for a in left for b in right if comm.lookup(a, b) is not None
        }
        return left | right | comms
    if isinstance(e, Encap):
        return {a for a in _enabled_actions(e.body, comm) if a not in e.blocked}
    raise TypeError(f"not an expression: {e!r}")


def interleaving_step(e: Expression) -> frozenset[tuple[Action, Expression]]:
    """Step relation of the communication-free rule subset; an oracle for the
    claim that the empty communication function never fires the
    communication rule."""
    if isinstance(e, (Deadlock, Empty)):
        return frozenset()
    if isinstance(e, Act):
        return frozenset({(e.action, EMPTY)})
    if isinstance(e, Alt):
        return interleaving_step(e.left) | interleaving_step(e.right)
    if isinstance(e, Seq):
        moves = {(a, Seq(l2, e.right)) for a, l2 in interleaving_step(e.left)}
        if _terminates(e.left):
            moves |= interleaving_step(e.right)
        return frozenset(moves)
    if isinstance(e, Star):
        return frozenset({(a, Seq(b2, e)) for a, b2 in interleaving_step(e.body)})
    if isinstance(e, Par):
        moves = {(a, Par(l2, e.right)) for a, l2 in interleaving_step(e.left)}
        moves |= {(a, Par(e.left, r2)) for a, r2 in interleaving_step(e.right)}
        return frozenset(moves)
    raise TypeError(f"interleaving oracle does not cover {e!r}")


def acp_step(e: Expression, comm: CommFn) -> frozenset[tuple[Action, Expression]]:
    """Step relation of the full rule set, read off the tree as sets: an
    action steps to ``1``; ``+`` takes either side's steps; ``p.q`` lifts
    ``p``'s steps and, when ``p`` terminates, takes ``q``'s; ``p*`` steps to
    ``p'.p*``; ``p || q`` lifts either side's steps and, for every pair with
    ``comm(a, b) = c``, steps by ``c`` to ``p' || q'``; ``encap_H(p)``
    keeps ``p``'s steps whose action is not in ``H``, under ``encap_H``.
    Moves that two rules derive alike are one element of the set."""
    if isinstance(e, (Deadlock, Empty)):
        return frozenset()
    if isinstance(e, Act):
        return frozenset({(e.action, EMPTY)})
    if isinstance(e, Alt):
        return acp_step(e.left, comm) | acp_step(e.right, comm)
    if isinstance(e, Seq):
        moves = {(a, Seq(l2, e.right)) for a, l2 in acp_step(e.left, comm)}
        if _terminates(e.left):
            moves |= acp_step(e.right, comm)
        return frozenset(moves)
    if isinstance(e, Star):
        return frozenset({(a, Seq(b2, e)) for a, b2 in acp_step(e.body, comm)})
    if isinstance(e, Par):
        left = acp_step(e.left, comm)
        right = acp_step(e.right, comm)
        moves = {(a, Par(l2, e.right)) for a, l2 in left}
        moves |= {(b, Par(e.left, r2)) for b, r2 in right}
        for a, l2 in left:
            for b, r2 in right:
                c = comm.lookup(a, b)
                if c is not None:
                    moves.add((c, Par(l2, r2)))
        return frozenset(moves)
    if isinstance(e, Encap):
        return frozenset(
            (a, Encap(e.blocked, b2)) for a, b2 in acp_step(e.body, comm) if a not in e.blocked
        )
    raise TypeError(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# Random structures
# ---------------------------------------------------------------------------


def random_automaton(rng: random.Random, max_states: int = 12, alphabet: str = "ab") -> Automaton:
    n = rng.randint(1, max_states)
    transitions = []
    for source in range(n):
        for _ in range(rng.randint(0, 3)):
            transitions.append(
                Transition(source, Action(rng.choice(alphabet)), rng.randrange(n))
            )
    terminating = frozenset(s for s in range(n) if rng.random() < 0.3)
    return Automaton(
        labels=(None,) * n,
        initial=0,
        transitions=tuple(transitions),
        terminating=terminating,
    )


def random_connected_fa(
    rng: random.Random, max_states: int = 8, n_actions: int = 4
) -> Automaton:
    """Random finite automaton with every state reachable from the initial."""
    n = rng.randint(1, max_states)
    actions = [Action(f"a{k}") for k in range(rng.randint(1, n_actions))]
    transitions = []
    for target in range(1, n):
        transitions.append(Transition(rng.randrange(target), rng.choice(actions), target))
    for _ in range(rng.randint(0, 2 * n)):
        transitions.append(
            Transition(rng.randrange(n), rng.choice(actions), rng.randrange(n))
        )
    terminating = frozenset(s for s in range(n) if rng.random() < 0.4)
    return Automaton(
        labels=(None,) * n,
        initial=0,
        transitions=tuple(transitions),
        terminating=terminating,
    )


def permute_automaton(a: Automaton, perm: list[int]) -> Automaton:
    """Relabel states by ``perm`` (old index -> new index)."""
    labels: list[str | None] = [None] * a.n_states
    for old, new in enumerate(perm):
        labels[new] = a.labels[old]
    return Automaton(
        labels=tuple(labels),
        initial=perm[a.initial],
        transitions=tuple(
            Transition(perm[t.source], t.action, perm[t.target]) for t in a.transitions
        ),
        terminating=frozenset(perm[s] for s in a.terminating),
    )


def is_isomorphism(a: Automaton, b: Automaton, mapping: tuple[int, ...]) -> bool:
    """Independent validation of a claimed isomorphism."""
    if sorted(mapping) != list(range(a.n_states)) or a.n_states != b.n_states:
        return False
    if mapping[a.initial] != b.initial:
        return False
    if {mapping[s] for s in a.terminating} != set(b.terminating):
        return False
    image = {Transition(mapping[t.source], t.action, mapping[t.target]) for t in a.transitions}
    return image == set(b.transitions)


def naive_least_isomorphism(a: Automaton, b: Automaton) -> tuple[int, ...] | None:
    """The lexicographically least isomorphism from ``a`` to ``b``, found by
    trying every permutation of ``a``'s states in lexicographic order; None
    when there is none.  Brute force, so limited to 7 states."""
    if a.n_states > 7:
        raise ValueError("naive_least_isomorphism takes at most 7 states")
    if a.n_states != b.n_states:
        return None
    for perm in itertools.permutations(range(a.n_states)):
        if perm[a.initial] == b.initial and is_isomorphism(a, b, perm):
            return perm
    return None
