import random
import time
from collections import Counter
from itertools import chain

import pytest

from starpar import (
    Action,
    Automaton,
    Transition,
    bisimilar,
    check_bisimulation,
    derive_automaton,
    isomorphic,
    minimize,
    parse_expression,
    scc_decompose,
)
from starpar.equivalence import _coarsest_partition
from tests.samples import TWO_EXIT_LOOP_EXPR, two_exit_loop_automaton
from tests.oracles import (
    is_isomorphism,
    naive_bisimilar,
    naive_least_isomorphism,
    permute_automaton,
    random_automaton,
    random_connected_fa,
)


class TestBisimilar:
    def test_duplicate_summand(self):
        result = bisimilar(
            derive_automaton(parse_expression("a+a")), derive_automaton(parse_expression("a"))
        )
        assert result.bisimilar
        assert result.witness_relation is not None

    def test_branching_counterexample(self):
        result = bisimilar(
            derive_automaton(parse_expression("a.(b+c)")),
            derive_automaton(parse_expression("a.b + a.c")),
        )
        assert not result.bisimilar
        assert result.witness_relation is None

    def test_loop_derivation_matches_hand_built(self):
        result = bisimilar(derive_automaton(parse_expression(TWO_EXIT_LOOP_EXPR)), two_exit_loop_automaton())
        assert result.bisimilar

    def test_termination_matters(self):
        result = bisimilar(
            derive_automaton(parse_expression("a")), derive_automaton(parse_expression("a.0"))
        )
        assert not result.bisimilar

    def test_partition_covers_disjoint_union(self):
        a = derive_automaton(parse_expression("a+a"))
        b = derive_automaton(parse_expression("a"))
        result = bisimilar(a, b)
        assert len(result.partition) == a.n_states + b.n_states

    def test_witness_is_a_bisimulation(self):
        a = derive_automaton(parse_expression(TWO_EXIT_LOOP_EXPR))
        b = two_exit_loop_automaton()
        result = bisimilar(a, b)
        assert check_bisimulation(a, b, result.witness_relation)


class TestCheckBisimulation:
    def test_identity_relation(self):
        a = two_exit_loop_automaton()
        identity = {(s, s) for s in range(a.n_states)}
        assert check_bisimulation(a, a, identity)

    def test_empty_relation_fails_on_initials(self):
        a = two_exit_loop_automaton()
        assert not check_bisimulation(a, a, set())

    def test_wrong_relation_rejected(self):
        a = derive_automaton(parse_expression("a"))
        b = derive_automaton(parse_expression("b"))
        assert not check_bisimulation(a, b, {(0, 0), (1, 1)})

    def test_termination_disagreement_rejected(self):
        a = derive_automaton(parse_expression("1"))
        b = derive_automaton(parse_expression("0"))
        assert not check_bisimulation(a, b, {(0, 0)})

    def test_unmatched_move_of_the_second_rejected(self):
        # Every move of ``a`` is matched; only b's extra b-move is not.
        a = derive_automaton(parse_expression("a"))
        b = derive_automaton(parse_expression("a+b"))
        assert not check_bisimulation(a, b, {(0, 0), (1, 1)})

    def test_invalid_pairs_raise(self):
        a = two_exit_loop_automaton()
        with pytest.raises(ValueError):
            check_bisimulation(a, a, {(0, 9)})


class TestMinimize:
    def test_duplicate_summand_already_minimal(self):
        m = minimize(derive_automaton(parse_expression("a+a")))
        assert m.n_states == 2

    def test_loop_states_collapse(self):
        a = derive_automaton(parse_expression(TWO_EXIT_LOOP_EXPR))
        m = minimize(a)
        assert m.n_states == 2
        assert bisimilar(a, m).bisimilar

    def test_idempotent_up_to_isomorphism(self):
        a = derive_automaton(parse_expression(TWO_EXIT_LOOP_EXPR))
        m = minimize(a)
        assert isomorphic(m, minimize(m)).isomorphic

    def test_quotient_states_pairwise_distinct(self):
        rng = random.Random(5)
        for _ in range(25):
            a = random_automaton(rng)
            m = minimize(a)
            assert bisimilar(a, m).bisimilar
            for i in range(m.n_states):
                shifted = Automaton(
                    labels=m.labels, initial=i, transitions=m.transitions, terminating=m.terminating
                )
                for j in range(i + 1, m.n_states):
                    other = Automaton(
                        labels=m.labels,
                        initial=j,
                        transitions=m.transitions,
                        terminating=m.terminating,
                    )
                    assert not bisimilar(shifted, other).bisimilar

    def test_drops_unreachable_states(self):
        a = Automaton(
            labels=(None, None, None),
            initial=0,
            transitions=(Transition(0, Action("a"), 1), Transition(2, Action("b"), 0)),
            terminating=frozenset({1}),
        )
        assert minimize(a).n_states == 2


class TestIsomorphic:
    def test_permuted_copy(self):
        rng = random.Random(11)
        for _ in range(30):
            a = random_automaton(rng)
            perm = list(range(a.n_states))
            rng.shuffle(perm)
            b = permute_automaton(a, perm)
            result = isomorphic(a, b)
            assert result.isomorphic
            assert is_isomorphism(a, b, result.mapping)

    def test_size_mismatch(self):
        a = derive_automaton(parse_expression("a.b"))
        b = derive_automaton(parse_expression("a.b.c"))
        assert not isomorphic(a, b).isomorphic

    def test_same_counts_different_wiring(self):
        a = Automaton(
            labels=(None, None, None),
            initial=0,
            transitions=(Transition(0, Action("a"), 1), Transition(1, Action("b"), 2)),
            terminating=frozenset(),
        )
        b = Automaton(
            labels=(None, None, None),
            initial=0,
            transitions=(Transition(0, Action("a"), 1), Transition(0, Action("b"), 2)),
            terminating=frozenset(),
        )
        assert not isomorphic(a, b).isomorphic

    def test_termination_flags_must_match(self):
        a = Automaton(labels=(None,), initial=0, transitions=(), terminating=frozenset())
        b = Automaton(labels=(None,), initial=0, transitions=(), terminating=frozenset({0}))
        assert not isomorphic(a, b).isomorphic

    def test_bisimilar_but_not_isomorphic(self):
        a = derive_automaton(parse_expression(TWO_EXIT_LOOP_EXPR))  # 3 states
        m = minimize(a)  # 2 states
        assert bisimilar(a, m).bisimilar
        assert not isomorphic(a, m).isomorphic

    def test_wide_fan_out_has_no_recursion_limit(self):
        """A search over 1 101 states stays iterative: a root with 1 100
        terminating a-successors against a shuffled copy of itself."""
        leaves = 1100
        a = Automaton(
            labels=(None,) * (leaves + 1),
            initial=0,
            transitions=tuple(Transition(0, Action("a"), s) for s in range(1, leaves + 1)),
            terminating=frozenset(range(1, leaves + 1)),
        )
        perm = list(range(a.n_states))
        random.Random(41).shuffle(perm)
        b = permute_automaton(a, perm)
        result = isomorphic(a, b)
        assert result.isomorphic
        assert is_isomorphism(a, b, result.mapping)

    def test_bisimilar_fan_out_is_pruned_by_degree(self):
        """Children of one root that are bisimilar but have 1..8 leaves each,
        against the reversed order: counting edges separates every child and
        leaf, so the search never backtracks across them."""

        def fan(leaf_counts):
            transitions, terminating = [], []
            n = 1 + len(leaf_counts)
            for child, leaves in enumerate(leaf_counts, start=1):
                transitions.append(Transition(0, Action("a"), child))
                for leaf in range(n, n + leaves):
                    transitions.append(Transition(child, Action("b"), leaf))
                    terminating.append(leaf)
                n += leaves
            return Automaton(
                labels=(None,) * n,
                initial=0,
                transitions=tuple(transitions),
                terminating=frozenset(terminating),
            )

        a = fan(range(1, 9))
        b = fan(range(8, 0, -1))
        start = time.perf_counter()
        result = isomorphic(a, b)
        assert time.perf_counter() - start < 0.5
        assert result.isomorphic
        assert is_isomorphism(a, b, result.mapping)

    def test_mapping_is_the_least_isomorphism(self):
        """The mapping is exactly the brute-force least isomorphism, on
        permuted copies and one-edge mutations of random, self-looped,
        doubly-labelled and symmetric automata, and on unions of cycles."""
        rng = random.Random(606)
        found = 0
        for i in range(600):
            a = _iso_test_automaton(rng, i % 5)
            perm = list(range(a.n_states))
            rng.shuffle(perm)
            b = permute_automaton(a, perm)
            if i % 3 == 2 and i % 5 == 4:
                # Colour refinement cannot tell cycle unions of one size apart.
                b = _iso_test_automaton(rng, 4, a.n_states)
            elif i % 3 == 2:
                b = _one_edge_mutation(rng, b)
            expected = naive_least_isomorphism(a, b)
            result = isomorphic(a, b)
            assert result.mapping == expected, (a, b)
            assert result.isomorphic == (expected is not None)
            found += expected is not None
        assert 300 < found < 600

    def test_edges_to_later_states_are_checked(self):
        """A looped initial state beside a 6-cycle, against a relabelled copy.
        Colour refinement leaves the cycle in one block, and a search that
        compared only edges towards lower-numbered states would accept the
        bijection (0, 1, 2, 6, 4, 3, 5), which is not an isomorphism."""

        def looped_six_cycle(successor):
            return Automaton(
                labels=(None,) * 7,
                initial=0,
                transitions=tuple(Transition(s, Action("a"), t) for s, t in enumerate(successor)),
                terminating=frozenset(),
            )

        a = looped_six_cycle([0, 6, 3, 5, 2, 1, 4])
        b = looped_six_cycle([0, 6, 3, 1, 2, 4, 5])
        assert isomorphic(a, b).mapping == naive_least_isomorphism(a, b) == (0, 1, 4, 2, 5, 3, 6)

    def test_six_way_interleaving_against_a_shuffled_copy(self):
        """4 096 states whose colour-refinement blocks stay large: the search
        must not compare each candidate with every mapped state."""
        a = derive_automaton(parse_expression(" || ".join(["(a.b+c)*.d"] * 6)))
        perm = list(range(a.n_states))
        random.Random(6).shuffle(perm)
        b = permute_automaton(a, perm)
        start = time.perf_counter()
        result = isomorphic(a, b)
        assert time.perf_counter() - start < 10
        assert result.isomorphic
        assert is_isomorphism(a, b, result.mapping)

    def test_isomorphism_implies_bisimilarity(self):
        rng = random.Random(23)
        for _ in range(20):
            a = random_automaton(rng, max_states=8)
            perm = list(range(a.n_states))
            rng.shuffle(perm)
            b = permute_automaton(a, perm)
            assert isomorphic(a, b).isomorphic
            assert bisimilar(a, b).bisimilar


class TestOracleAgreement:
    def test_against_naive_fixpoint(self):
        rng = random.Random(99)
        agreements = 0
        for i in range(60):
            a = random_automaton(rng, max_states=8)
            if i % 3 == 0:
                b = minimize(a)  # guaranteed-bisimilar pairs as well
            else:
                b = random_automaton(rng, max_states=8)
            expected = naive_bisimilar(a, b)
            result = bisimilar(a, b)
            assert result.bisimilar == expected
            if expected:
                p = result.partition
                assert result.witness_relation == {
                    (i, j)
                    for i in range(a.n_states)
                    for j in range(b.n_states)
                    if p[i] == p[a.n_states + j]
                }
            else:
                assert result.witness_relation is None
            agreements += 1
        assert agreements == 60


class TestEquivalenceLaws:
    def test_reflexive_symmetric_transitive(self):
        rng = random.Random(3)
        for _ in range(15):
            a = random_automaton(rng, max_states=7)
            assert bisimilar(a, a).bisimilar
            m = minimize(a)
            perm = list(range(m.n_states))
            rng.shuffle(perm)
            p = permute_automaton(m, perm)
            assert bisimilar(a, m).bisimilar == bisimilar(m, a).bisimilar
            if bisimilar(a, m).bisimilar and bisimilar(m, p).bisimilar:
                assert bisimilar(a, p).bisimilar


class TestSccLifting:
    def test_components_transfer_to_the_quotient(self):
        """Bisimilar states have matching components: for the component of a
        state, some component reachable from its partner contains a bisimilar
        partner for every member."""
        rng = random.Random(17)
        for _ in range(25):
            a = random_automaton(rng, max_states=9)
            b = minimize(a)
            result = bisimilar(a, b)
            assert result.bisimilar
            partition = result.partition
            d_a = scc_decompose(a)
            d_b = scc_decompose(b)
            b_reach_from = {
                s: {t for t in range(b.n_states) if _reaches(b, s, t)} for s in range(b.n_states)
            }
            for s1 in sorted(a.reachable()):
                partners = [
                    s2 for s2 in range(b.n_states) if partition[s2 + a.n_states] == partition[s1]
                ]
                assert partners
                s2 = partners[0]
                c1 = d_a.members[d_a.component_of[s1]]
                found = False
                for cid in range(d_b.count):
                    members = d_b.members[cid]
                    if not all(m in b_reach_from[s2] for m in members):
                        continue
                    if all(
                        any(partition[x] == partition[y + a.n_states] for y in members) for x in c1
                    ):
                        found = True
                        break
                assert found


def _counted_partition_with_counters(automata, seed):
    """The counted refinement as it was first written: each signature is the
    ``Counter`` of a state's (name, successor block) and ((name,),
    predecessor block) pairs, frozen.  Kept as the reference that the
    sorted-tuple signatures must match block for block."""
    block = seed
    count = len(set(block))
    while True:
        remap = {}
        new = []
        for m in automata:
            succ, pred, _ = m._rows
            local = block[len(new) : len(new) + m.n_states]
            for s, moves in enumerate(succ):
                pairs = ((name, local[t]) for name, t in moves)
                ins = (((name,), local[u]) for name, u in pred[s])
                step = frozenset(Counter(chain(pairs, ins)).items())
                new.append(remap.setdefault((local[s], step), len(remap)))
        if len(remap) == count:
            return new
        block = new
        count = len(remap)


class TestCountedSignature:
    """``_coarsest_partition(counted=True)`` keys each state by sorted
    tuples of its out- and in-pairs; the blocks, numbered by first
    occurrence, are exactly those of the ``Counter`` signatures."""

    @staticmethod
    def assert_same_blocks(a, b):
        seed = [(s == m.initial, s in m.terminating) for m in (a, b) for s in range(m.n_states)]
        expected = _counted_partition_with_counters((a, b), seed)
        assert _coarsest_partition((a, b), seed, counted=True) == expected, (a, b)

    def test_random_pairs(self):
        rng = random.Random(1901)
        for _ in range(150):
            self.assert_same_blocks(random_connected_fa(rng, 12), random_connected_fa(rng, 12))

    def test_shuffled_copies(self):
        rng = random.Random(1902)
        for _ in range(150):
            a = random_connected_fa(rng, 14)
            perm = list(range(a.n_states))
            rng.shuffle(perm)
            self.assert_same_blocks(a, permute_automaton(a, perm))

    def test_non_isomorphic_pairs(self):
        rng = random.Random(1903)
        for i in range(150):
            a = _iso_test_automaton(rng, i % 5)
            perm = list(range(a.n_states))
            rng.shuffle(perm)
            b = _one_edge_mutation(rng, permute_automaton(a, perm))
            self.assert_same_blocks(a, b)


def _iso_test_automaton(rng, kind, n=None):
    """At most 7 states: 0 random, 1 random with self-loops, 2 random with two
    actions between one pair of states, 3 a root with 2 or 3 identical
    branches, so with non-trivial automorphisms, 4 a union of a-cycles on
    ``n`` states, where every state has one a-successor and one a-predecessor."""
    if kind == 4:
        n = n or rng.randint(3, 7)
        successor = list(range(n))
        rng.shuffle(successor)
        return Automaton(
            labels=(None,) * n,
            initial=0,
            transitions=tuple(Transition(s, Action("a"), successor[s]) for s in range(n)),
            terminating=frozenset(),
        )
    if kind == 3:
        copies = rng.choice((2, 3))
        branch = random_automaton(rng, max_states=6 // copies)
        k = branch.n_states
        transitions = []
        for c in range(copies):
            offset = 1 + c * k
            transitions.append(Transition(0, Action("a"), offset + branch.initial))
            transitions += [
                Transition(offset + t.source, t.action, offset + t.target)
                for t in branch.transitions
            ]
        return Automaton(
            labels=(None,) * (1 + copies * k),
            initial=0,
            transitions=tuple(transitions),
            terminating=frozenset(1 + c * k + s for c in range(copies) for s in branch.terminating),
        )
    a = random_automaton(rng, max_states=7)
    n = a.n_states
    extra = []
    if kind == 1:
        extra = [Transition(s, Action(rng.choice("ab")), s) for s in range(n) if rng.random() < 0.5]
    elif kind == 2:
        s, t = rng.randrange(n), rng.randrange(n)
        extra = [Transition(s, Action("a"), t), Transition(s, Action("b"), t)]
    return Automaton(a.labels, a.initial, a.transitions + tuple(extra), a.terminating)


def _one_edge_mutation(rng, a):
    """Retarget, relabel or drop one transition, or add one."""
    transitions = list(a.transitions)
    n = a.n_states
    if not transitions or rng.random() < 0.25:
        transitions.append(Transition(rng.randrange(n), Action(rng.choice("ab")), rng.randrange(n)))
    else:
        i = rng.randrange(len(transitions))
        t = transitions.pop(i)
        choice = rng.randrange(3)
        if choice == 0:
            transitions.append(Transition(t.source, t.action, rng.randrange(n)))
        elif choice == 1:
            other = "b" if t.action.name == "a" else "a"
            transitions.append(Transition(t.source, Action(other), t.target))
    return Automaton(a.labels, a.initial, tuple(transitions), a.terminating)


def _reaches(auto, source, target):
    seen = {source}
    stack = [source]
    adjacency = auto.out()
    while stack:
        s = stack.pop()
        if s == target:
            return True
        for _, t in adjacency[s]:
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return target in seen
