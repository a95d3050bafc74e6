import ast
import copy
import dataclasses
import functools
import itertools
import json
import pickle
import random
import time
import tracemalloc
from pathlib import Path

import pytest

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
    Theory,
    Transition,
    act,
    automaton_from_json,
    automaton_to_dot,
    automaton_to_json,
    bisimilar,
    check_bpa_property,
    check_pa_property,
    derive_automaton,
    encode_fa,
    generate_random_expression,
    isomorphic,
    minimize,
    parse_expression,
    scc_decompose,
    state_expressions,
    step,
    terminates,
)
from tests.samples import TWO_EXIT_LOOP_EXPR, INTERLEAVED_LOOP_EXPR, COMMUNICATING_LOOP_EXPR, communicating_gamma
from starpar import analysis, semantics
from starpar.semantics import _Rules, _state_bounds
from tests.oracles import acp_step, interleaving_step, naive_derive, random_connected_fa, rule_derivable

a, b, c = act("a"), act("b"), act("c")


def terminates_by_rule(e):
    """The termination predicate read off the tree, independently of the library."""
    if isinstance(e, (Seq, Par)):
        return terminates_by_rule(e.left) and terminates_by_rule(e.right)
    if isinstance(e, Alt):
        return terminates_by_rule(e.left) or terminates_by_rule(e.right)
    if isinstance(e, Encap):
        return terminates_by_rule(e.body)
    return e == EMPTY or isinstance(e, Star)


class TestTerminates:
    def test_constants(self):
        assert terminates(EMPTY)
        assert not terminates(DEADLOCK)
        assert not terminates(a)

    def test_star_always_terminates(self):
        assert terminates(Star(Seq(a, b)))
        assert terminates(Star(DEADLOCK))

    def test_compound(self):
        assert not terminates(Seq(a, b))
        assert terminates(Seq(EMPTY, Star(a)))
        assert terminates(Alt(a, EMPTY))
        assert not terminates(Alt(a, b))
        assert terminates(Par(EMPTY, Star(a)))
        assert not terminates(Par(EMPTY, a))
        assert terminates(Encap(frozenset({Action("a")}), EMPTY))
        assert not terminates(Encap(frozenset(), a))

    @pytest.mark.parametrize("kind", [Seq, Par, Alt])
    def test_deep_chain(self, kind):
        """The flags are set as the iterative ``canonical`` builds the node
        table, so the depth of the input does not matter."""
        chain = functools.reduce(kind, (act(f"a{i}") for i in range(5_000)))
        assert not terminates(chain)

    def test_deep_chain_under_star_or_after_one(self):
        chain = functools.reduce(Seq, (act(f"a{i}") for i in range(1_500)))
        assert terminates(Star(chain))
        assert terminates(Alt(EMPTY, chain))


class TestTerminatingFlags:
    """Every derived state's flag agrees with the predicate read off its
    expression, over states the rules built as well as the input."""

    @staticmethod
    def _check(e, comm=EMPTY_COMM):
        auto = derive_automaton(e, comm)
        flags = [s in auto.terminating for s in range(auto.n_states)]
        assert flags == [terminates_by_rule(x) for x in state_expressions(auto)]
        return flags

    def test_random_pa_terms(self):
        flags = []
        for seed in range(120):
            flags += self._check(generate_random_expression(Theory.PA, 5, seed))
        assert 100 < flags.count(True) and 100 < flags.count(False)

    def test_encapsulated_pa_terms_with_one_rule(self):
        gamma = CommFn([(Action("a"), Action("b"), Action("c"))])
        blocked = frozenset({Action("a"), Action("b")})
        flags = []
        for seed in range(60):
            p = generate_random_expression(Theory.PA, 4, 300 + seed)
            q = generate_random_expression(Theory.PA, 4, 600 + seed)
            flags += self._check(Encap(blocked, Par(p, q)), gamma)
            flags += self._check(Seq(Encap(blocked, p), q), gamma)
        assert 20 < flags.count(True) and 20 < flags.count(False)

    def test_communicating_loop_samples(self):
        e = parse_expression(COMMUNICATING_LOOP_EXPR)
        gamma = communicating_gamma()
        flags = self._check(e) + self._check(e, gamma)
        flags += self._check(parse_expression(f"encap{{b,c}}({COMMUNICATING_LOOP_EXPR})"), gamma)
        assert True in flags and False in flags


class TestStep:
    def test_action_steps_to_empty(self):
        assert step(a) == frozenset({(Action("a"), EMPTY)})

    def test_loop_root_has_one_a_and_one_b_step(self):
        e = parse_expression(TWO_EXIT_LOOP_EXPR)
        moves = step(e)
        by_action = {}
        for action, target in moves:
            by_action.setdefault(action.name, set()).add(target)
        assert set(by_action) == {"a", "b"}
        assert by_action["b"] == {EMPTY}
        assert len(by_action["a"]) == 1

    def test_communication_step(self):
        e = parse_expression(COMMUNICATING_LOOP_EXPR)
        gamma = communicating_gamma()
        (p1,) = [t for action, t in step(e, gamma) if action.name == "a"]
        e_steps = {t for action, t in step(p1, gamma) if action.name == "e"}
        (p2,) = [t for action, t in step(e, gamma) if action.name == "c"]
        assert e_steps == {p2}

    def test_encap_blocks(self):
        assert step(Encap(frozenset({Action("c")}), c)) == frozenset()
        blocked = Encap(frozenset({Action("c")}), Alt(a, c))
        assert {action.name for action, _ in step(blocked)} == {"a"}

    def test_empty_gamma_never_fires_communication(self):
        for seed in range(200):
            e = generate_random_expression(Theory.PA, 5, seed)
            assert step(e, EMPTY_COMM) == interleaving_step(e)

    def test_agrees_with_rule_by_rule_checker(self):
        gamma = communicating_gamma()
        rng = random.Random(7)
        for seed in range(150):
            e = generate_random_expression(Theory.PA, 4, 400 + seed)
            moves = step(e, gamma)
            for action, target in moves:
                assert rule_derivable(e, action, target, gamma)
            # and some negative probes
            candidates = {t for _, t in moves} | {e, EMPTY}
            for action_name in "abcde":
                action = Action(action_name)
                target = rng.choice(sorted(candidates, key=str))
                if (action, target) not in moves:
                    assert not rule_derivable(e, action, target, gamma)


ONE_RULE_GAMMA = CommFn([(Action("a"), Action("b"), Action("a"))])
GAMMAS = [ONE_RULE_GAMMA, communicating_gamma()]
GAMMA_IDS = ["a_b_a", "b_c_e"]
BLOCKED_SETS = [
    frozenset(Action(n) for n in names) for names in ("", "a", "b", "ab", "bc", "ce", "abcd")
]


def with_random_encaps(e, rng):
    """``e`` with ``encap`` wrapped around about a quarter of its subterms."""
    if isinstance(e, (Seq, Alt, Par)):
        e = type(e)(with_random_encaps(e.left, rng), with_random_encaps(e.right, rng))
    elif isinstance(e, Star):
        e = Star(with_random_encaps(e.body, rng))
    if rng.random() < 0.25:
        e = Encap(rng.choice(BLOCKED_SETS), e)
    return e


def random_acp_terms(count, depth, seed):
    """``count`` parallel pairs of random PA terms, ``encap`` wrapped at
    random positions, the pair itself included."""
    rng = random.Random(seed)
    return [
        with_random_encaps(
            Par(
                generate_random_expression(Theory.PA, depth, seed + 2 * i),
                generate_random_expression(Theory.PA, depth, seed + 2 * i + 1),
            ),
            rng,
        )
        for i in range(count)
    ]


# Two sides that give the same move, and, under a b -> a, a communication
# that equals a left lift, with and without a move of the left side back to
# itself.
LOOP_PAIR = parse_expression("1.a* || 1.a*")
COMMUNICATING_LOOP_PAIR = parse_expression("1.a* || 1.b*")
COMMUNICATING_PAIR = parse_expression("a || 1.b*")


class TestAcpStep:
    """The public ``step`` against ``oracles.acp_step``, which applies every
    rule, communication and encapsulation included, to the tree as sets."""

    @pytest.mark.parametrize("gamma", GAMMAS, ids=GAMMA_IDS)
    def test_random_acp_terms(self, gamma):
        terms = random_acp_terms(300, 4, 900)
        assert sum(isinstance(e, Encap) for e in terms) > 30
        communicated = 0
        for e in terms:
            expected = acp_step(e, gamma)
            assert step(e, gamma) == expected
            communicated += expected != acp_step(e, EMPTY_COMM)
        assert communicated > 10

    @pytest.mark.parametrize("gamma", GAMMAS, ids=GAMMA_IDS)
    def test_every_derived_state(self, gamma):
        for e in random_acp_terms(40, 3, 1_700):
            for state in state_expressions(derive_automaton(e, gamma)):
                assert step(state, gamma) == acp_step(state, gamma)

    def test_both_sides_give_the_same_move(self):
        (move,) = step(LOOP_PAIR)
        assert move == (Action("a"), LOOP_PAIR)
        assert step(LOOP_PAIR) == acp_step(LOOP_PAIR, EMPTY_COMM)

    def test_communication_equals_a_left_lift(self):
        moves = step(COMMUNICATING_LOOP_PAIR, ONE_RULE_GAMMA)
        assert moves == {(Action(n), COMMUNICATING_LOOP_PAIR) for n in "ab"}
        assert moves == acp_step(COMMUNICATING_LOOP_PAIR, ONE_RULE_GAMMA)
        moves = step(COMMUNICATING_PAIR, ONE_RULE_GAMMA)
        assert moves == {
            (Action("a"), parse_expression("1 || 1.b*")),
            (Action("b"), COMMUNICATING_PAIR),
        }
        assert moves == acp_step(COMMUNICATING_PAIR, ONE_RULE_GAMMA)

    def test_one_name_with_several_partners_and_one_with_none(self):
        # a communicates with itself and with b and c; d with nothing
        gamma = CommFn([
            (Action("a"), Action("a"), Action("s")),
            (Action("a"), Action("b"), Action("t")),
            (Action("a"), Action("c"), Action("u")),
        ])
        results = set()
        for text in ("(d+a)* || (a+b+c+d)*", "a.d || b+c+a+d", "encap{a,b}((a.d+c)* || (b+d)*.a)"):
            auto = derive_automaton(parse_expression(text), gamma)
            for state in state_expressions(auto):
                assert step(state, gamma) == acp_step(state, gamma)
            results |= {t.action.name for t in auto.transitions} & {"s", "t", "u"}
        assert results == {"s", "t", "u"}


class TestMoveInvariant:
    """No node's moves in ``_Rules`` repeat an (action name, target) pair.
    The public ``step`` returns a set and ``Automaton`` deduplicates its
    transitions, so either would hide a repeat; these tests read the rules'
    own move tuples."""

    @staticmethod
    def _stepped(e, comm):
        """The move tuples of every node stepped while deriving ``e``."""
        rules = _Rules(comm)
        start = rules.canonical(e)
        seen = {id(start)}
        queue = [start]
        while queue:
            for _, target in rules.step(queue.pop()):
                if id(target) not in seen:
                    seen.add(id(target))
                    queue.append(target)
        return list(rules._steps.values())

    @staticmethod
    def _repeats(all_moves):
        return [
            moves for moves in all_moves if len({(a.name, id(t)) for a, t in moves}) != len(moves)
        ]

    def test_hand_cases(self):
        for e, comm in (
            (LOOP_PAIR, EMPTY_COMM),
            (LOOP_PAIR, ONE_RULE_GAMMA),
            (COMMUNICATING_LOOP_PAIR, ONE_RULE_GAMMA),
            (COMMUNICATING_PAIR, ONE_RULE_GAMMA),
        ):
            assert self._repeats(self._stepped(e, comm)) == []

    @pytest.mark.parametrize("gamma", [EMPTY_COMM, *GAMMAS], ids=["none", *GAMMA_IDS])
    def test_random_acp_terms(self, gamma):
        stepped = 0
        for e in random_acp_terms(200, 4, 2_500):
            all_moves = self._stepped(e, gamma)
            assert self._repeats(all_moves) == []
            stepped += len(all_moves)
        assert stepped > 2_000


class TestDerive:
    def test_two_exit_loop_counts(self):
        auto = derive_automaton(parse_expression(TWO_EXIT_LOOP_EXPR))
        assert auto.n_states == 3
        assert len(auto.transitions) == 5
        assert auto.terminating == frozenset({2})

    def test_interleaved_loop_counts(self):
        auto = derive_automaton(parse_expression(INTERLEAVED_LOOP_EXPR))
        assert auto.n_states == 4
        assert len(auto.transitions) == 6
        assert len(auto.terminating) == 1

    def test_communicating_loop_counts_and_edge(self):
        auto = derive_automaton(parse_expression(COMMUNICATING_LOOP_EXPR), communicating_gamma())
        assert auto.n_states == 6
        assert len(auto.transitions) == 10
        e_edges = [t for t in auto.transitions if t.action.name == "e"]
        assert e_edges == [Transition(1, Action("e"), 2)]

    def test_deadlock(self):
        auto = derive_automaton(parse_expression("0"))
        assert auto.n_states == 1
        assert auto.transitions == ()
        assert auto.terminating == frozenset()

    def test_deterministic(self):
        e = parse_expression(COMMUNICATING_LOOP_EXPR)
        assert derive_automaton(e, communicating_gamma()) == derive_automaton(e, communicating_gamma())

    def test_breadth_first_numbering_and_labels(self):
        auto = derive_automaton(parse_expression("a+b.c"))
        # successors of the root sorted by action name: a before b
        assert auto.labels == ("a+b.c", "1", "1.c")
        assert Transition(0, Action("a"), 1) in auto.transitions
        assert Transition(0, Action("b"), 2) in auto.transitions

    def test_state_expressions_round_trip(self):
        auto = derive_automaton(parse_expression(TWO_EXIT_LOOP_EXPR))
        exprs = state_expressions(auto)
        assert exprs[0] == parse_expression(TWO_EXIT_LOOP_EXPR)
        assert exprs[auto.initial] == exprs[0]

    def test_state_limit(self):
        with pytest.raises(StateLimitExceeded):
            derive_automaton(parse_expression("a.b.c"), EMPTY_COMM, max_states=2)
        # exactly enough states is fine
        auto = derive_automaton(parse_expression("a.b.c"), EMPTY_COMM, max_states=4)
        assert auto.n_states == 4

    def test_state_limit_reports_progress(self):
        # The initial state's three successors reach the limit of 3 while it
        # is expanded; two of them are queued.
        with pytest.raises(StateLimitExceeded) as info:
            derive_automaton(parse_expression("a || b || c"), max_states=3)
        exc = info.value
        assert (exc.limit, exc.expanded, exc.queued) == (3, 1, 2)
        assert str(exc) == "state limit of 3 exceeded: 1 expanded, 2 queued"
        with pytest.raises(StateLimitExceeded) as info:
            derive_automaton(parse_expression("a.b.c"), max_states=2)
        assert (info.value.expanded, info.value.queued) == (2, 0)

    # A row that mixes targets numbered before the state was expanded with
    # new ones, and the limit hit at a new target after a known one, all
    # under b e -> s.
    @pytest.mark.parametrize(
        "text, limit, expanded, queued",
        [
            ("a* || b", 3, 2, 1),  # state 1: a back to itself, then b
            ("a* || b* || c", 4, 2, 2),  # state 1: a back to itself, then b
            ("(a+b)* || c.d", 5, 4, 1),  # state 3: a and b back to itself, then d
            ("(a.b+c)*.d || (e.f)*", 5, 2, 3),  # state 1: b to state 2, then e
            # state 4: a new, c back to itself, then d
            ("encap{b,e}((a.b+c)*.d || (e.f)*)", 6, 5, 1),
        ],
    )
    def test_state_limit_after_a_known_target(self, text, limit, expanded, queued):
        gamma = CommFn([(Action("b"), Action("e"), Action("s"))])
        with pytest.raises(StateLimitExceeded) as info:
            derive_automaton(parse_expression(text), gamma, max_states=limit)
        exc = info.value
        assert (exc.limit, exc.expanded, exc.queued) == (limit, expanded, queued)
        assert str(exc) == f"state limit of {limit} exceeded: {expanded} expanded, {queued} queued"

    def test_state_limit_raised_in_one_place(self):
        # Both derive loops number their states through one shared step, so
        # the limit and its expanded/queued counts are computed in one place.
        tree = ast.parse(Path(semantics.__file__).read_text(encoding="utf-8"))
        raised = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "StateLimitExceeded"
        ]
        assert len(raised) == 1, raised

    def test_gamma_irrelevant_for_sequential_expressions(self):
        gamma = communicating_gamma()
        for seed in range(100):
            e = generate_random_expression(Theory.BPA, 5, 900 + seed)
            assert derive_automaton(e, gamma) == derive_automaton(e)

    def test_transitions_sorted(self):
        auto = derive_automaton(parse_expression(COMMUNICATING_LOOP_EXPR), communicating_gamma())
        assert list(auto.transitions) == sorted(auto.transitions)


class TestDeriveOracle:
    """``derive_automaton`` against ``oracles.naive_derive``, a breadth-first
    closure of the set-based ``acp_step`` over structurally equal states:
    same states, labels, numbering, termination and transition order."""

    @pytest.mark.parametrize("gamma", [EMPTY_COMM, *GAMMAS], ids=["none", *GAMMA_IDS])
    def test_random_acp_terms(self, gamma):
        terms = random_acp_terms(300, 4, 4_100)
        assert sum(isinstance(e, Encap) for e in terms) > 30
        states = 0
        for e in terms:
            auto = derive_automaton(e, gamma)
            expected = naive_derive(e, gamma)
            assert auto == expected
            assert auto.transitions == expected.transitions
            assert automaton_to_json(auto) == automaton_to_json(expected)
            states += auto.n_states
        assert states > 1_200

    def test_interleavings_with_a_handshake(self):
        gamma = CommFn([(Action("b"), Action("f"), Action("s"))])
        for text in ("(a.b+c)*.d || (e.f)*.g || (h+i)*", "encap{b,f}((a.b+c)*.d || (e.f)*.g || (h+i)*)"):
            e = parse_expression(text)
            assert derive_automaton(e, gamma) == naive_derive(e, gamma)

    # A ``||`` or ``encap`` root is derived as the product of the leaves of
    # its spine; the shapes below vary the spine, the leaves and gamma.

    @staticmethod
    def _check(e, gamma=EMPTY_COMM):
        auto = derive_automaton(e, gamma)
        expected = naive_derive(e, gamma)
        assert auto == expected
        assert auto.transitions == expected.transitions
        assert automaton_to_json(auto) == automaton_to_json(expected)
        return auto

    HANDSHAKE = CommFn([(Action("b"), Action("f"), Action("s"))])

    @pytest.mark.parametrize("gamma", [EMPTY_COMM, HANDSHAKE], ids=["none", "b_f_s"])
    def test_right_nested_and_balanced_trees(self, gamma):
        p, q, r, s = (parse_expression(t) for t in ("(a.b+c)*.d", "(e.f)*.g", "(h+i)*", "b.f+c"))
        trees = [
            Par(p, Par(q, Par(r, s))),
            Par(Par(p, q), Par(r, s)),
            Par(p, Par(Par(q, r), s)),
            Par(Par(p, Par(q, r)), s),
        ]
        for e in trees:
            auto = self._check(e, gamma)
            assert auto.n_states == 4 * 4 * 2 * 3

    @pytest.mark.parametrize(
        "text",
        [
            "encap{b,f}((a.b+c)*.d || (e.f)*.g || b.f)",  # at the root
            "(a.b+c)*.d || encap{c,f}((e.f)*.g || (h+i)*) || b.f",  # mid-spine
            "encap{a}((a.b+c)*.d) || (e.f)*.g || encap{}(b+f)",  # directly around leaves
            "encap{s}(encap{b}((a.b+c)*.d || encap{f}((e.f)*.g)) || (b+f)*)",  # at three levels
            "encap{b}(encap{f}(encap{s}((a.b+c)*.d || (e.f)*.g)))",  # nested at the root
            "encap{a,b,c,d}(a.b.c.d)",  # one leaf
        ],
    )
    def test_encap_at_several_levels(self, text):
        e = parse_expression(text)
        self._check(e, self.HANDSHAKE)
        self._check(e)

    @pytest.mark.parametrize(
        "text",
        [
            "(a || b).c || (c.d || e)*",
            "(a || b)* || encap{a}((a.b || b)*)",
            "(a.(b || c)+d)* || a.b",
        ],
    )
    def test_leaf_holding_a_parallel_composition(self, text):
        gamma = CommFn([(Action("a"), Action("b"), Action("c"))])
        e = parse_expression(text)
        self._check(e, gamma)
        self._check(e)

    def test_a_communication_result_communicates_again(self):
        # a || b communicate to c one level down, and c with d to e above.
        gamma = CommFn([
            (Action("a"), Action("b"), Action("c")),
            (Action("c"), Action("d"), Action("e")),
        ])
        for text in ("a* || b* || d*", "d* || (a* || b*)", "encap{a,b,c,d}(a.a || b.b || d.d)"):
            auto = self._check(parse_expression(text), gamma)
            assert "e" in {t.action.name for t in auto.transitions}

    def test_leaves_looping_on_one_action_name(self):
        # In (1.a*) || (1.a*) both lifts of a lead back to the state itself.
        for text in ("a* || a*", "(a.b)* || (a+c)* || a*", "encap{b}((a+b)* || a*)"):
            e = parse_expression(text)
            self._check(e)
            self._check(e, CommFn([(Action("a"), Action("a"), Action("d"))]))

    def test_encodings_of_seeded_automata(self):
        for seed in range(5):
            fa = random_connected_fa(random.Random(seed), 6, 3)
            enc = encode_fa(fa)
            auto = self._check(enc.expression, enc.gamma)
            assert auto.n_states == fa.n_states

    # The values derive gave before spines were derived as products.
    @pytest.mark.parametrize(
        "limit, expanded, queued", [(1, 1, 0), (17, 3, 14), (100, 44, 56)]
    )
    def test_state_limit_on_a_four_way_chain(self, limit, expanded, queued):
        e = parse_expression("(a.b+c)*.d || (e.f)*.g || (h+i)*.j || (k.l+m)*")
        with pytest.raises(StateLimitExceeded) as info:
            derive_automaton(e, self.HANDSHAKE, max_states=limit)
        assert (info.value.limit, info.value.expanded, info.value.queued) == (limit, expanded, queued)

    def test_state_limit_on_an_encoding(self):
        enc = encode_fa(random_connected_fa(random.Random(0), 12, 3))
        with pytest.raises(StateLimitExceeded) as info:
            derive_automaton(enc.expression, enc.gamma, max_states=5)
        assert (info.value.limit, info.value.expanded, info.value.queued) == (5, 3, 2)


class TestStateBound:
    """The syntactic bound that sizes a leaf's digit in the key of a product
    state is never below the number of states the leaf reaches."""

    @pytest.mark.parametrize("gamma", [EMPTY_COMM, *GAMMAS], ids=["none", *GAMMA_IDS])
    def test_random_terms(self, gamma):
        terms = random_acp_terms(150, 4, 5_100)
        terms += [generate_random_expression(Theory.BPA, 6, 5_400 + i) for i in range(150)]
        shared = [generate_random_expression(Theory.PA, 3, 5_600 + i) for i in range(60)]
        terms += [Par(p, p) for p in shared]  # one object on both sides
        terms += [Encap(BLOCKED_SETS[i % len(BLOCKED_SETS)], Par(p, p)) for i, p in enumerate(shared)]
        for e in terms:
            rules = _Rules(gamma)
            root = rules.canonical(e)
            assert derive_automaton(e, gamma).n_states <= _state_bounds(rules)[id(root)]


class TestAdjacencyCache:
    """The rows every graph walk reads are built once per automaton and kept
    outside its fields: nothing observable about the automaton changes."""

    @staticmethod
    def _build():
        return derive_automaton(parse_expression(COMMUNICATING_LOOP_EXPR), communicating_gamma())

    @staticmethod
    def _walk(auto):
        return (
            scc_decompose(auto),
            check_bpa_property(auto),
            check_pa_property(auto),
            minimize(auto),
            bisimilar(auto, auto),
            isomorphic(auto, auto),
        )

    def test_cache_is_invisible(self):
        used = self._build()
        results = self._walk(used)
        fresh = self._build()
        assert used == fresh
        assert hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)
        assert dataclasses.fields(used) == dataclasses.fields(fresh)
        assert dataclasses.astuple(used) == dataclasses.astuple(fresh)
        copy = pickle.loads(pickle.dumps(used))
        assert copy == used
        assert self._walk(copy) == results == self._walk(fresh)

    def test_pickles_and_copies_leave_the_rows_out(self):
        auto = self._build()
        size = len(pickle.dumps(auto))
        results = self._walk(auto)
        assert len(pickle.dumps(auto)) == size
        fields = {f.name for f in dataclasses.fields(auto)}
        assert {"_rows", "_normed"} <= set(auto.__dict__) - fields
        for dup in (copy.copy(auto), copy.deepcopy(auto), pickle.loads(pickle.dumps(auto))):
            assert dup == auto
            assert set(dup.__dict__) == fields
            assert self._walk(dup) == results

    @pytest.mark.parametrize("walk_first", [False, True])
    def test_mutating_out_rows_changes_nothing(self, walk_first):
        auto = self._build()
        expected = (scc_decompose(auto), minimize(auto))
        auto = self._build()
        if walk_first:
            scc_decompose(auto)
        rows = auto.out()
        for row in rows:
            row.clear()
        rows[0].append((Action("z"), 0))
        assert (scc_decompose(auto), minimize(auto)) == expected


class TestSharedSccPass:
    """Tarjan's pass and the exit-structure pass run once per automaton,
    whichever of ``scc_decompose`` and the two checks comes first, and copies
    start without them."""

    CALLS = {"scc": scc_decompose, "bpa": check_bpa_property, "pa": check_pa_property}
    ORDERS = [
        *itertools.permutations(CALLS, 1),
        *itertools.permutations(CALLS, 2),
        *itertools.permutations(CALLS, 3),
    ]

    @staticmethod
    def _build():
        return derive_automaton(parse_expression(COMMUNICATING_LOOP_EXPR), communicating_gamma())

    @pytest.fixture
    def runs(self, monkeypatch):
        counts = {"_tarjan": 0, "_exit_structure": 0}
        for name in counts:
            original = getattr(analysis, name)

            def counted(a, original=original, name=name):
                counts[name] += 1
                return original(a)

            monkeypatch.setattr(analysis, name, counted)
        return counts

    @pytest.mark.parametrize("order", ORDERS, ids="-".join)
    def test_one_pass_in_every_call_order(self, order, runs):
        expected = {name: call(self._build()) for name, call in self.CALLS.items()}
        runs.update(dict.fromkeys(runs, 0))
        auto = self._build()
        for _ in range(2):
            for name in order:
                assert self.CALLS[name](auto) == expected[name]
        assert runs == {"_tarjan": 1, "_exit_structure": int(order != ("scc",))}
        assert scc_decompose(auto) is scc_decompose(auto)

    def test_copies_carry_neither_cache(self, runs):
        auto = self._build()
        size = len(pickle.dumps(auto))
        reports = (check_bpa_property(auto), check_pa_property(auto))
        assert {"_scc", "_exits"} <= set(auto.__dict__)
        assert len(pickle.dumps(auto)) == size
        for dup in (copy.copy(auto), copy.deepcopy(auto), pickle.loads(pickle.dumps(auto))):
            assert dup == auto
            assert not {"_scc", "_exits"} & set(dup.__dict__)
            assert (check_bpa_property(dup), check_pa_property(dup)) == reports
            assert scc_decompose(dup) == scc_decompose(auto)
            assert scc_decompose(dup) is not scc_decompose(auto)
        assert runs == {"_tarjan": 4, "_exit_structure": 4}


class TestMemoLifetime:
    """Termination, steps and labels are memoised per call, never across calls."""

    def test_comm_does_not_leak_between_derivations(self):
        e = parse_expression(COMMUNICATING_LOOP_EXPR)
        gamma = communicating_gamma()
        plain = derive_automaton(e, EMPTY_COMM)
        communicating = derive_automaton(e, gamma)
        assert plain != communicating
        assert derive_automaton(e, EMPTY_COMM) == plain
        assert derive_automaton(e, gamma) == communicating

    def test_step_agrees_with_a_fresh_derivation_for_each_comm(self):
        e = parse_expression(COMMUNICATING_LOOP_EXPR)
        for comm in (EMPTY_COMM, communicating_gamma(), EMPTY_COMM):
            auto = derive_automaton(e, comm)
            states = state_expressions(auto)
            out = auto.out()
            for source, state in enumerate(states):
                expected = {(action, states[target]) for action, target in out[source]}
                assert step(state, comm) == expected


class TestCanonicalNodes:
    """Derivation makes structurally equal subterms one object.  An input tree
    holding equal subterms as distinct objects derives exactly what the tree
    sharing them derives."""

    @staticmethod
    def _cases():
        p = parse_expression("(a.b+c)*.d")
        q = parse_expression(COMMUNICATING_LOOP_EXPR)
        gamma = communicating_gamma()
        blocked = frozenset({Action("b"), Action("c")})
        # Equal blocked sets, but distinct objects holding distinct Actions.
        blocked_copy = frozenset({Action("c"), Action("b")})
        dup = copy.deepcopy
        return [
            (Par(p, p), Par(p, dup(p)), EMPTY_COMM),
            (Par(q, q), Par(dup(q), dup(q)), gamma),
            (Par(Par(q, q), q), Par(Par(q, dup(q)), dup(q)), gamma),
            (Encap(blocked, Par(q, q)), Encap(blocked_copy, Par(q, dup(q))), gamma),
            (
                Par(Encap(blocked, q), Encap(blocked, q)),
                Par(Encap(blocked, q), Encap(blocked_copy, dup(q))),
                gamma,
            ),
            (Seq(Star(p), Par(p, Star(p))), Seq(Star(dup(p)), Par(p, Star(dup(p)))), EMPTY_COMM),
            (Alt(Seq(p, p), Seq(p, p)), Alt(Seq(p, dup(p)), dup(Seq(p, p))), EMPTY_COMM),
        ]

    def test_copies_derive_what_shared_objects_derive(self):
        for shared, copied, gamma in self._cases():
            assert copied == shared and copied is not shared
            expected = derive_automaton(shared, gamma)
            auto = derive_automaton(copied, gamma)
            assert auto.n_states == expected.n_states
            assert auto.transitions == expected.transitions
            assert auto == expected
            states = state_expressions(auto)
            for t in auto.transitions:
                assert rule_derivable(states[t.source], t.action, states[t.target], gamma)

    def test_lifts_and_canonical_share_one_node_per_term(self):
        gamma = CommFn([(Action("a"), Action("b"), Action("s"))])
        # the rules build the || nodes first, then canonical finds them
        rules = _Rules(gamma)
        targets = {a.name: t for a, t in rules.step(rules.canonical(parse_expression("a || b")))}
        for name, text in (("a", "1 || b"), ("b", "a || 1"), ("s", "1 || 1")):
            assert rules.canonical(parse_expression(text)) is targets[name]
        # canonical builds them first, then the rules find them
        rules = _Rules(gamma)
        e = rules.canonical(parse_expression("(1 || b) + (a || 1) + (1 || 1) + (a || b)"))
        built = {e.left.left.left, e.left.left.right, e.left.right}
        assert {t for _, t in rules.step(e.right)} == built
        assert {id(t) for _, t in rules.step(e.right)} == {id(t) for t in built}

    def test_public_step_and_terminates_on_copied_subterms(self):
        for seed in range(150):
            p = generate_random_expression(Theory.PA, 5, seed)
            for e in (p, Par(p, copy.deepcopy(p)), Seq(copy.deepcopy(p), Alt(p, copy.deepcopy(p)))):
                assert step(e) == interleaving_step(e)
                assert terminates(e) == terminates_by_rule(e)


class TestNonExpression:
    """A node that is no expression is named in the same ``TypeError``
    wherever it sits.  Each case holds one such node, so the message does
    not depend on the order in which the tree is walked."""

    CASES = {
        "|| operand": lambda: Par(act("a"), "junk"),
        ". operand": lambda: Seq("junk", act("a")),
        "under *": lambda: Star("junk"),
        "under encap": lambda: Encap(frozenset({Action("a")}), "junk"),
        "bottom of a 2 000-level . chain": lambda: functools.reduce(
            lambda e, i: Seq(e, act(f"a{i}")), range(2000), "junk"
        ),
    }

    @pytest.mark.parametrize("call", [derive_automaton, terminates, step])
    @pytest.mark.parametrize("case", CASES)
    def test_message(self, case, call):
        with pytest.raises(TypeError) as err:
            call(self.CASES[case]())
        assert str(err.value) == "not an expression: 'junk'"


class TestDeepNesting:
    """Derivation recurses once per nesting level below the root's ``||``
    and ``encap`` spine, as deep as it ever did; the spine itself is walked
    without recursion."""

    @pytest.mark.parametrize("op", [".", "||"])
    def test_long_chain_reaches_the_state_limit(self, op):
        e = parse_expression(op.join(f"a{i}" for i in range(450)))
        with pytest.raises(StateLimitExceeded):
            derive_automaton(e, max_states=10)

    @pytest.mark.parametrize("nesting", ["left", "right"])
    def test_wide_chain_reaches_the_state_limit(self, nesting):
        # A || spine is flattened with an explicit stack, so its width is
        # bounded by the state limit only.
        leaves = [act(f"a{i}") for i in range(3000)]
        if nesting == "left":
            e = functools.reduce(Par, leaves)
        else:
            e = functools.reduce(lambda right, left: Par(left, right), reversed(leaves))
        with pytest.raises(StateLimitExceeded) as info:
            derive_automaton(e, max_states=10)
        assert (info.value.limit, info.value.expanded, info.value.queued) == (10, 1, 9)

    @pytest.mark.parametrize("names", ["tied", "distinct"])
    def test_wide_chain_fails_the_limit_before_labelling(self, names):
        # The limit is decided once per state, before its new states are
        # ordered, so the 3 000 moves of one name are never labelled; doing
        # that first took the tied chain's traced peak to 34 MiB.
        leaves = ["a"] * 3000 if names == "tied" else [f"a{i}" for i in range(3000)]
        e = parse_expression("||".join(leaves))
        tracemalloc.start()
        try:
            with pytest.raises(StateLimitExceeded) as info:
                derive_automaton(e, max_states=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (info.value.limit, info.value.expanded, info.value.queued) == (10, 1, 9)
        assert peak < 16 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"

    def test_long_alternative_derives(self):
        e = parse_expression("+".join(f"a{i}" for i in range(450)))
        auto = derive_automaton(e, max_states=10)
        assert auto.n_states == 2 and len(auto.transitions) == 450


class TestAutomatonValue:
    def test_validation(self):
        with pytest.raises(ValueError):
            Automaton(labels=(), initial=0, transitions=(), terminating=frozenset())
        with pytest.raises(ValueError):
            Automaton(labels=(None,), initial=1, transitions=(), terminating=frozenset())
        with pytest.raises(ValueError):
            Automaton(
                labels=(None,),
                initial=0,
                transitions=(Transition(0, Action("a"), 3),),
                terminating=frozenset(),
            )
        with pytest.raises(ValueError):
            Automaton(labels=(None,), initial=0, transitions=(), terminating=frozenset({9}))

    @pytest.mark.parametrize(
        "fields",
        [
            {"initial": True, "transitions": (Transition(False, Action("a"), True),), "terminating": {True}},
            {"initial": True},
            {"initial": 0.0},
            {"transitions": (Transition(False, Action("a"), 1),)},
            {"transitions": (Transition(0, Action("a"), True),)},
            {"transitions": (Transition(0, Action("a"), 1.0),)},
            {"terminating": frozenset({True})},
            {"terminating": frozenset({1.0})},
            {"initial": type("StateId", (int,), {})(0)},
            {"labels": (None, 3)},
            {"labels": (b"x", None)},
        ],
        ids=[
            "all-booleans",
            "initial-bool",
            "initial-float",
            "from-bool",
            "to-bool",
            "to-float",
            "terminating-bool",
            "terminating-float",
            "initial-int-subclass",
            "label-int",
            "label-bytes",
        ],
    )
    def test_rejects_what_its_json_reader_rejects(self, fields):
        base = {
            "labels": (None, "x"),
            "initial": 0,
            "transitions": (Transition(0, Action("a"), 1),),
            "terminating": frozenset({1}),
        }
        Automaton(**base)
        with pytest.raises(ValueError):
            Automaton(**{**base, **fields})

    def test_duplicate_transitions_collapse(self):
        auto = Automaton(
            labels=(None, None),
            initial=0,
            transitions=(Transition(0, Action("a"), 1), Transition(0, Action("a"), 1)),
            terminating=frozenset(),
        )
        assert len(auto.transitions) == 1


# The frozen ordered dataclass that Transition was before it became a named
# tuple, with the same class name, so that its generated repr reads the same.
_DataclassTransition = dataclasses.make_dataclass(
    "Transition", [("source", int), ("action", Action), ("target", int)], frozen=True, order=True
)


class TestTransitionContract:
    """``Transition`` is a named tuple that keeps the repr, hash, ordering and
    equality between edges of the dataclass it replaced."""

    @staticmethod
    def _fields(rng, count):
        return [
            (rng.randrange(5), Action(rng.choice(("a", "b", "ab", "a_1"))), rng.randrange(5))
            for _ in range(count)
        ]

    def test_matches_the_dataclass_it_replaced(self):
        rng = random.Random(2024)
        fields = self._fields(rng, 400)
        new = [Transition(*f) for f in fields]
        old = [_DataclassTransition(*f) for f in fields]
        for t, ref in zip(new, old):
            assert repr(t) == repr(ref)
            assert hash(t) == hash(ref)
            assert (t.source, t.action, t.target) == (ref.source, ref.action, ref.target)
        pairs = [(rng.randrange(len(new)), rng.randrange(len(new))) for _ in range(4000)]
        pairs += [(i, i) for i in range(len(new))]
        for i, j in pairs:
            assert (new[i] < new[j]) == (old[i] < old[j])
            assert (new[i] <= new[j]) == (old[i] <= old[j])
            assert (new[i] == new[j]) == (old[i] == old[j])
            assert (new[i] != new[j]) == (old[i] != old[j])
        order = sorted(range(len(new)), key=new.__getitem__)
        assert [old[i] for i in order] == sorted(old)

    def test_is_a_tuple(self):
        t = Transition(0, Action("a"), 1)
        assert t == (0, Action("a"), 1)
        assert tuple(t) == (0, Action("a"), 1)
        assert not dataclasses.is_dataclass(t)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        for t in (Transition(*f) for f in self._fields(random.Random(protocol), 50)):
            back = pickle.loads(pickle.dumps(t, protocol))
            assert back == t and type(back) is Transition

    def test_automaton_deduplicates_and_sorts(self):
        rng = random.Random(77)
        duplicated = 0
        for _ in range(500):
            n = rng.randint(1, 5)
            edges = [
                Transition(rng.randrange(n), Action(rng.choice("abc")), rng.randrange(n))
                for _ in range(rng.randint(0, 10))
            ]
            # Repeats, some of them equal but distinct objects.
            given = edges + [
                Transition(t.source, Action(t.action.name), t.target) if rng.random() < 0.5 else t
                for t in rng.sample(edges, rng.randint(0, len(edges)))
            ]
            rng.shuffle(given)
            duplicated += len(set(given)) < len(given)
            auto = Automaton((None,) * n, 0, tuple(given), frozenset())
            expected = sorted(set(given), key=lambda t: (t.source, t.action.name, t.target))
            assert list(auto.transitions) == expected
            assert all(type(t) is Transition for t in auto.transitions)
        assert duplicated >= 300


class TestSerialisation:
    def test_json_round_trip(self):
        auto = derive_automaton(parse_expression(COMMUNICATING_LOOP_EXPR), communicating_gamma())
        text = automaton_to_json(auto)
        assert automaton_from_json(text) == auto
        assert automaton_to_json(auto) == text  # byte stable

    def test_json_unlabelled(self):
        auto = Automaton(
            labels=(None, "x"),
            initial=0,
            transitions=(Transition(0, Action("a"), 1),),
            terminating=frozenset({1}),
        )
        again = automaton_from_json(automaton_to_json(auto))
        assert again == auto

    def test_json_rejects_garbage(self):
        from starpar import AutomatonFormatError

        for bad in (
            "[]",
            "{}",
            '{"states": [], "initial": 0, "transitions": []}',
            '{"states": [{"id": 0}], "initial": 0, "transitions": [{"from": 0, "to": 0}]}',
            '{"states": [{"id": 1}], "initial": 0, "transitions": []}',
            "not json",
        ):
            with pytest.raises(AutomatonFormatError):
                automaton_from_json(bad)

    @pytest.mark.parametrize(
        "text",
        [
            '{"states": [{"id": false}], "initial": 0, "transitions": []}',
            '{"states": [{"id": 0, "terminating": "no"}], "initial": 0, "transitions": []}',
            '{"states": [{"id": 0}, {"id": 1}], "initial": true, "transitions": []}',
            '{"states": [{"id": 0}], "initial": 0,'
            ' "transitions": [{"from": false, "action": "a", "to": 0}]}',
            '{"states": [{"id": 0}, {"id": 1}], "initial": 0,'
            ' "transitions": [{"from": 0, "action": "a", "to": true}]}',
        ],
        ids=["id", "terminating", "initial", "from", "to"],
    )
    def test_json_rejects_booleans_and_non_boolean_flags(self, text):
        from starpar import AutomatonFormatError

        with pytest.raises(AutomatonFormatError):
            automaton_from_json(text)

    def test_dot_output(self):
        auto = derive_automaton(parse_expression("a"))
        dot = automaton_to_dot(auto)
        assert dot.startswith("digraph")
        assert "__initial__ [shape=point" in dot
        assert "doublecircle" in dot  # the terminated state
        assert '[label="a"]' in dot


def _reference_json(a):
    """The writer's specification: the standard library's indent-2 output."""
    states = []
    for i, label in enumerate(a.labels):
        entry = {"id": i}
        if label is not None:
            entry["label"] = label
        entry["terminating"] = i in a.terminating
        states.append(entry)
    transitions = [{"from": t.source, "action": t.action.name, "to": t.target} for t in a.transitions]
    return json.dumps({"states": states, "initial": a.initial, "transitions": transitions}, indent=2) + "\n"


_LABEL_CHARS = ["p", "a.b", " ", "\u00e9", "\u65e5", "\U0001f600", '"', "\\", "\n", "\t", "\x00", "\x7f", "\u2028"]


def _random_automaton(rng):
    n = rng.randint(1, 8)
    labels = tuple(
        None if rng.random() < 0.3 else "".join(rng.choices(_LABEL_CHARS, k=rng.randint(0, 4)))
        for _ in range(n)
    )
    actions = [Action(name) for name in ("a", "b", "tau", "x_1", "Z9")]
    transitions = tuple(
        Transition(rng.randrange(n), rng.choice(actions), rng.randrange(n))
        for _ in range(rng.randint(0, 3 * n))
    )
    terminating = frozenset(i for i in range(n) if rng.random() < 0.4)
    return Automaton(labels=labels, initial=rng.randrange(n), transitions=transitions, terminating=terminating)


def _interleaving(k):
    return derive_automaton(parse_expression(" || ".join(["(a.b+c)*.d"] * k)))


class TestJsonWriter:
    """``automaton_to_json`` writes exactly what ``json.dumps(..., indent=2)``
    writes for the automaton's object form, and its reader loads it back."""

    @staticmethod
    def _check(auto):
        text = automaton_to_json(auto)
        assert text == _reference_json(auto)
        assert automaton_from_json(text) == auto

    def test_random_automata(self):
        rng = random.Random(2010)
        for _ in range(2000):
            self._check(_random_automaton(rng))

    def test_one_state_without_transitions(self):
        for label in (None, "", '"\\\n\t\x00\u00e9'):
            self._check(Automaton(labels=(label,), initial=0, transitions=(), terminating=frozenset()))

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_interleavings(self, k):
        self._check(_interleaving(k))

    def test_six_way_interleaving_is_written_fast(self):
        # A ratio against the reference in the same process, not an absolute
        # bound, so that the host's speed cancels out.
        auto = _interleaving(6)
        assert (auto.n_states, len(auto.transitions)) == (4096, 40231)
        writer, reference = [], []
        for _ in range(3):
            start = time.perf_counter()
            text = automaton_to_json(auto)
            writer.append(time.perf_counter() - start)
            start = time.perf_counter()
            expected = _reference_json(auto)
            reference.append(time.perf_counter() - start)
            assert text == expected
        assert min(writer) <= min(reference) / 3, (min(writer), min(reference))
