import pickle
import random
import time

import pytest

from starpar import (
    Action,
    Alt,
    Automaton,
    ExitTransition,
    Par,
    Encap,
    Theory,
    PropertyReport,
    Seq,
    Transition,
    UnsupportedExpression,
    Witness,
    act,
    alive_exit_states,
    check_bpa_property,
    check_pa_property,
    classify_theory,
    derive_automaton,
    exit_equivalent,
    exit_transitions,
    generate_random_expression,
    normed_exit_transitions,
    normed_states,
    oc_measure,
    parse_expression,
    render_expression,
    scc_decompose,
    Star,
    subterms,
)
from tests.samples import (
    TWO_EXIT_LOOP_EXPR,
    SHARED_EXIT_LOOP_EXPR,
    DEAD_BRANCH_LOOP_EXPR,
    INTERLEAVED_LOOP_EXPR,
    COMMUNICATING_LOOP_EXPR,
    communicating_gamma,
)
from tests.oracles import random_automaton


def _single_nontrivial(d):
    (cid,) = d.non_trivial()
    return cid


def _reach_sets(auto):
    adjacency = auto.out()
    sets = []
    for source in range(auto.n_states):
        seen = {source}
        stack = [source]
        while stack:
            s = stack.pop()
            for _, t in adjacency[s]:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        sets.append(seen)
    return sets


class TestSccDecompose:
    def test_two_exit_loop(self):
        d = scc_decompose(derive_automaton(parse_expression(TWO_EXIT_LOOP_EXPR)))
        assert d.count == 2
        sizes = sorted(len(m) for m in d.members)
        assert sizes == [1, 2]
        cid = _single_nontrivial(d)
        assert len(d.members[cid]) == 2

    def test_shared_exit_loop(self):
        auto = derive_automaton(parse_expression(SHARED_EXIT_LOOP_EXPR))
        d = scc_decompose(auto)
        cid = _single_nontrivial(d)
        assert len(d.members[cid]) == 3
        trivial_members = [m for i, m in enumerate(d.members) if d.trivial[i]]
        assert trivial_members == [(2,)]  # the terminated state

    def test_single_state(self):
        auto = Automaton(labels=(None,), initial=0, transitions=(), terminating=frozenset())
        d = scc_decompose(auto)
        assert d.count == 1
        assert d.trivial == (True,)

    def test_self_loop_is_non_trivial(self):
        auto = Automaton(
            labels=(None,),
            initial=0,
            transitions=(Transition(0, Action("a"), 0),),
            terminating=frozenset(),
        )
        assert scc_decompose(auto).trivial == (False,)

    def test_ids_in_reverse_condensation_order(self):
        auto = derive_automaton(parse_expression(SHARED_EXIT_LOOP_EXPR))
        d = scc_decompose(auto)
        # every edge goes from a component to one with an id no larger
        for t in auto.transitions:
            assert d.component_of[t.source] >= d.component_of[t.target]

    def test_partition(self):
        auto = derive_automaton(parse_expression(COMMUNICATING_LOOP_EXPR), communicating_gamma())
        d = scc_decompose(auto)
        seen = [s for members in d.members for s in members]
        assert sorted(seen) == list(range(auto.n_states))
        for s in range(auto.n_states):
            assert s in d.members[d.component_of[s]]

    def test_reverse_condensation_order_on_random_automata(self):
        import random

        from tests.oracles import random_automaton

        rng = random.Random(31)
        for _ in range(50):
            auto = random_automaton(rng, max_states=15)
            d = scc_decompose(auto)
            assert d == scc_decompose(auto)  # deterministic
            for t in auto.transitions:
                assert d.component_of[t.source] >= d.component_of[t.target]

    def test_mutual_reachability_within_components(self):
        import random

        from tests.oracles import random_automaton

        rng = random.Random(32)
        for _ in range(20):
            auto = random_automaton(rng, max_states=10)
            d = scc_decompose(auto)
            reach = _reach_sets(auto)
            for cid in range(d.count):
                for s in d.members[cid]:
                    for t in d.members[cid]:
                        assert t in reach[s]
            # maximality: mutually reachable states share a component
            for s in range(auto.n_states):
                for t in range(auto.n_states):
                    if t in reach[s] and s in reach[t]:
                        assert d.component_of[s] == d.component_of[t]


class TestNormed:
    def test_dead_branch_not_normed(self):
        auto = derive_automaton(parse_expression(DEAD_BRANCH_LOOP_EXPR))
        normed = normed_states(auto)
        (b_edge,) = [t for t in auto.transitions if t.action.name == "b"]
        assert b_edge.target not in normed

    def test_terminating_states_are_normed(self):
        auto = derive_automaton(parse_expression(SHARED_EXIT_LOOP_EXPR))
        assert auto.terminating <= normed_states(auto)

    def test_two_exit_loop_all_normed(self):
        auto = derive_automaton(parse_expression(TWO_EXIT_LOOP_EXPR))
        assert normed_states(auto) == frozenset(range(auto.n_states))


class TestExits:
    def test_shared_exit_loop_exit_states_agree(self):
        auto = derive_automaton(parse_expression(SHARED_EXIT_LOOP_EXPR))
        d = scc_decompose(auto)
        cid = _single_nontrivial(d)
        (term,) = auto.terminating
        exits = {
            s: exit_transitions(auto, d, s)
            for s in d.members[cid]
            if exit_transitions(auto, d, s)
        }
        assert len(exits) == 2
        for found in exits.values():
            assert found == frozenset({ExitTransition(Action("d"), term)})

    def test_dead_branch_exit_excluded(self):
        auto = derive_automaton(parse_expression(DEAD_BRANCH_LOOP_EXPR))
        d = scc_decompose(auto)
        (b_edge,) = [t for t in auto.transitions if t.action.name == "b"]
        ext = exit_transitions(auto, d, b_edge.source)
        extn = normed_exit_transitions(auto, d, b_edge.source)
        assert ExitTransition(Action("b"), b_edge.target) in ext
        assert ExitTransition(Action("b"), b_edge.target) not in extn
        assert {e.action.name for e in extn} == {"c"}

    def test_no_exits_inside_component(self):
        auto = derive_automaton(parse_expression("(a.b)*"))
        d = scc_decompose(auto)
        cid = _single_nontrivial(d)
        for s in d.members[cid]:
            assert exit_transitions(auto, d, s) == frozenset()


class TestAlive:
    def test_interleaved_loop_both_alive(self):
        auto = derive_automaton(parse_expression(INTERLEAVED_LOOP_EXPR))
        d = scc_decompose(auto)
        cid = d.component_of[auto.initial]
        assert alive_exit_states(auto, d, cid) == frozenset({0, 1})

    def test_communicating_loop_both_alive(self):
        auto = derive_automaton(parse_expression(COMMUNICATING_LOOP_EXPR), communicating_gamma())
        d = scc_decompose(auto)
        cid = d.component_of[auto.initial]
        assert alive_exit_states(auto, d, cid) == frozenset({0, 1})

    def test_component_with_only_dead_exits(self):
        # 2-cycle whose only exit reaches a deadlocked state
        auto = Automaton(
            labels=(None, None, None),
            initial=0,
            transitions=(
                Transition(0, Action("a"), 1),
                Transition(1, Action("a"), 0),
                Transition(1, Action("b"), 2),
            ),
            terminating=frozenset(),
        )
        d = scc_decompose(auto)
        cid = d.component_of[0]
        assert alive_exit_states(auto, d, cid) == frozenset()


class TestExitViews:
    """The per-state views and the reachable and normed sets read the cached
    rows; they must give what a scan of ``a.transitions`` gives."""

    def test_views_agree_with_a_transition_scan(self):
        rng = random.Random(4711)
        seen = {"self-loop": 0, "parallel actions": 0, "unreachable": 0}
        for _ in range(600):
            a = random_automaton(rng, max_states=9, alphabet=rng.choice(("a", "ab", "abc")))
            pairs = [(t.source, t.target) for t in a.transitions]
            seen["self-loop"] += any(u == v for u, v in pairs)
            seen["parallel actions"] += len(set(pairs)) < len(pairs)
            seen["unreachable"] += len(a.reachable()) < a.n_states
            d = scc_decompose(a)
            normed = normed_states(a)
            scanned = [set() for _ in range(a.n_states)]
            out = [[] for _ in range(a.n_states)]
            for t in a.transitions:
                out[t.source].append((t.action, t.target))
                if d.component_of[t.source] != d.component_of[t.target]:
                    scanned[t.source].add(ExitTransition(t.action, t.target))
            assert a.out() == out
            assert a.actions() == tuple(sorted({t.action for t in a.transitions}))
            reached, normed_fix = {a.initial}, set(a.terminating)
            grown = True
            while grown:
                grown = False
                for t in a.transitions:
                    if t.source in reached and t.target not in reached:
                        reached.add(t.target)
                        grown = True
                    if t.target in normed_fix and t.source not in normed_fix:
                        normed_fix.add(t.source)
                        grown = True
            assert a.reachable() == reached
            assert normed == normed_fix
            extn = [frozenset(e for e in ext if e.target in normed) for ext in scanned]
            for s in range(a.n_states):
                assert exit_transitions(a, d, s) == scanned[s]
                assert normed_exit_transitions(a, d, s) == extn[s]
                assert normed_exit_transitions(a, d, s, normed) == extn[s]
            for cid, members in enumerate(d.members):
                alive = frozenset(s for s in members if s in a.terminating or extn[s])
                assert alive_exit_states(a, d, cid) == alive
                assert alive_exit_states(a, d, cid, normed) == alive
        assert min(seen.values()) >= 50, seen

    def test_every_view_of_a_six_way_interleaving(self):
        """4 096 states and 40 231 transitions: a view costs the state's
        out-degree, not a scan of every transition."""
        a = derive_automaton(parse_expression(" || ".join(["(a.b+c)*.d"] * 6)))
        start = time.perf_counter()
        d = scc_decompose(a)
        normed = normed_states(a)
        exits = sum(len(exit_transitions(a, d, s)) for s in range(a.n_states))
        extn = sum(len(normed_exit_transitions(a, d, s, normed)) for s in range(a.n_states))
        alive = sum(len(alive_exit_states(a, d, cid, normed)) for cid in range(d.count))
        assert time.perf_counter() - start < 5
        assert exits == extn > 0 and alive > 0

    def test_views_without_normed_walk_once(self):
        """Every state's ``normed_exit_transitions`` and every component's
        ``alive_exit_states`` without ``normed``, on the 5-way interleaving
        (1 024 states, 8 461 transitions).  The normed set is walked once per
        automaton, so the loop costs about 0.02 s on a 2-vCPU host; a walk
        per call cost 0.8 s there.  The bound is 0.25 s."""
        a = derive_automaton(parse_expression(" || ".join(["(a.b+c)*.d"] * 5)))
        d = scc_decompose(a)
        start = time.perf_counter()
        extn = [normed_exit_transitions(a, d, s) for s in range(a.n_states)]
        alive = [alive_exit_states(a, d, cid) for cid in range(d.count)]
        elapsed = time.perf_counter() - start
        normed = normed_states(a)
        assert normed_states(a) is normed
        assert extn == [normed_exit_transitions(a, d, s, normed) for s in range(a.n_states)]
        assert alive == [alive_exit_states(a, d, cid, normed) for cid in range(d.count)]
        assert any(extn) and any(alive)
        assert elapsed < 0.25, elapsed


class TestOcMeasure:
    def test_constants(self):
        assert oc_measure(act("a")) == 1
        assert oc_measure(parse_expression("1")) == 0
        assert oc_measure(parse_expression("0")) == 0

    def test_star_right_absorbs(self):
        assert oc_measure(parse_expression("a.b*")) == 0

    def test_seq_and_alt(self):
        assert oc_measure(parse_expression("(a+b).c")) == 2
        assert oc_measure(parse_expression("a.b")) == 2
        assert oc_measure(parse_expression("a*")) == 1

    def test_parallel_is_zero(self):
        assert oc_measure(parse_expression("a || b")) == 0

    def test_encapsulation_rejected(self):
        with pytest.raises(UnsupportedExpression):
            oc_measure(parse_expression("encap{a}(a)"))
        # even where the recursion would not visit it
        with pytest.raises(UnsupportedExpression):
            oc_measure(parse_expression("encap{a}(a).b"))

    def test_non_expression_rejected_wherever_it_sits(self):
        with pytest.raises(TypeError):
            oc_measure(Par(act("a"), "junk"))

    def test_long_right_nested_chain(self):
        e = act("a0")
        for i in range(1, 5_000):
            e = Seq(act(f"a{i}"), e)
        assert oc_measure(e) == 5_000


class TestExitEquivalence:
    def test_parallel_c_exits_equivalent(self):
        auto = derive_automaton(parse_expression(INTERLEAVED_LOOP_EXPR))
        d = scc_decompose(auto)
        c_exits = sorted(
            (t.source, ExitTransition(t.action, t.target))
            for t in auto.transitions
            if t.action.name == "c"
        )
        assert len(c_exits) == 2
        assert exit_equivalent(c_exits[0][1], c_exits[1][1], d)

    def test_different_actions_not_equivalent(self):
        auto = derive_automaton(parse_expression(INTERLEAVED_LOOP_EXPR))
        d = scc_decompose(auto)
        assert not exit_equivalent(
            ExitTransition(Action("a"), 2), ExitTransition(Action("b"), 2), d
        )

    def test_d_and_c_exits_differ(self):
        auto = derive_automaton(parse_expression(COMMUNICATING_LOOP_EXPR), communicating_gamma())
        d = scc_decompose(auto)
        assert not exit_equivalent(
            ExitTransition(Action("d"), 4), ExitTransition(Action("c"), 2), d
        )


class TestBpaCheck:
    def test_shared_exit_loop_passes(self):
        report = check_bpa_property(derive_automaton(parse_expression(SHARED_EXIT_LOOP_EXPR)))
        assert report.holds
        assert report.witnesses == ()

    def test_interleaved_loop_fails_with_witness(self):
        auto = derive_automaton(parse_expression(INTERLEAVED_LOOP_EXPR))
        report = check_bpa_property(auto)
        assert not report.holds
        (witness,) = report.witnesses
        d = scc_decompose(auto)
        assert witness.scc == d.component_of[auto.initial]
        assert witness.states == (0, 1)
        assert "normed exit sets differ" in witness.details

    def test_no_nontrivial_scc_vacuously_passes(self):
        report = check_bpa_property(derive_automaton(parse_expression("a.b")))
        assert report.holds

    def test_termination_flag_disagreement_reported_distinctly(self):
        # equal exit sets but one alive exit state terminates and one does not
        auto = Automaton(
            labels=(None, None, None),
            initial=0,
            transitions=(
                Transition(0, Action("a"), 1),
                Transition(1, Action("a"), 0),
                Transition(0, Action("b"), 2),
                Transition(1, Action("b"), 2),
            ),
            terminating=frozenset({0, 2}),
        )
        report = check_bpa_property(auto)
        assert not report.holds
        (witness,) = report.witnesses
        assert "termination flags differ" in witness.details

    def test_report_serialisation(self):
        auto = derive_automaton(parse_expression(INTERLEAVED_LOOP_EXPR))
        obj = check_bpa_property(auto).to_dict()
        assert obj["property"] == "bpa"
        assert obj["verdict"] == "fail"
        assert obj["witnesses"][0]["states"] == [0, 1]


class TestPaCheck:
    def test_interleaved_loop_passes(self):
        report = check_pa_property(derive_automaton(parse_expression(INTERLEAVED_LOOP_EXPR)))
        assert report.holds

    def test_communicating_loop_fails(self):
        auto = derive_automaton(parse_expression(COMMUNICATING_LOOP_EXPR), communicating_gamma())
        report = check_pa_property(auto)
        assert not report.holds
        (witness,) = report.witnesses
        assert witness.states == (0, 1)
        assert "no maximal alive exit state" in witness.details

    def test_trivial_scc_with_alive_exit_passes(self):
        report = check_pa_property(derive_automaton(parse_expression("a")))
        assert report.holds


def _state_name(a, s):
    return f"{s} ({a.labels[s]})" if a.labels[s] is not None else str(s)


def _reference_bpa(a):
    """The BPA report rebuilt from the public per-state views."""
    d = scc_decompose(a)
    witnesses = []
    for cid in range(d.count):
        if d.trivial[cid]:
            continue
        alive = sorted(alive_exit_states(a, d, cid))
        if len(alive) < 2:
            continue
        extn = {s: normed_exit_transitions(a, d, s) for s in alive}
        if len(set(extn.values())) > 1:
            parts = []
            for s in alive:
                exits = ", ".join(f"({e.action.name}, {_state_name(a, e.target)})" for e in sorted(extn[s]))
                parts.append(f"Extn({_state_name(a, s)}) = {{{exits}}}")
            witnesses.append(Witness(cid, tuple(alive), "normed exit sets differ: " + "; ".join(parts)))
        if len({s in a.terminating for s in alive}) > 1:
            parts = [
                f"{_state_name(a, s)} " + ("terminates" if s in a.terminating else "does not terminate")
                for s in alive
            ]
            witnesses.append(
                Witness(cid, tuple(alive), "termination flags differ among alive exit states: " + "; ".join(parts))
            )
    return PropertyReport("bpa", "fail" if witnesses else "pass", tuple(witnesses))


def _reference_pa(a):
    """The PA report rebuilt from the public per-state views."""
    d = scc_decompose(a)
    witnesses = []
    for cid in range(d.count):
        alive = sorted(alive_exit_states(a, d, cid))
        if not alive:
            continue
        classes = {
            s: {(e.action.name, d.component_of[e.target]) for e in normed_exit_transitions(a, d, s)}
            for s in alive
        }
        required = set().union(*classes.values())
        if all(not classes[s] >= required for s in alive):
            covers = "; ".join(f"{_state_name(a, s)} covers {sorted(classes[s])}" for s in alive)
            details = (
                "no maximal alive exit state; required exit classes (action, target scc) = "
                f"{sorted(required)}; {covers}"
            )
            witnesses.append(Witness(cid, tuple(alive), details))
    return PropertyReport("pa", "fail" if witnesses else "pass", tuple(witnesses))


class TestCheckReports:
    """Both checks read one shared exit pass per automaton; their reports,
    verdicts and witness text included, must be those that the public
    per-state views give."""

    def test_reports_agree_with_the_per_state_views(self):
        rng = random.Random(90210)
        seen = {"exit sets differ": 0, "flags differ": 0, "no maximal state": 0}
        for _ in range(400):
            base = random_automaton(rng, max_states=12, alphabet=rng.choice(("ab", "abc")))
            a = Automaton(
                labels=tuple(rng.choice((None, f"p{s}", f"q.{s}")) for s in range(base.n_states)),
                initial=base.initial,
                transitions=base.transitions,
                terminating=base.terminating,
            )
            # The reference reads a copy, so that it shares no cache with the checks.
            twin = pickle.loads(pickle.dumps(a))
            expected = (_reference_bpa(twin), _reference_pa(twin))
            if rng.random() < 0.5:
                reports = (check_bpa_property(a), check_pa_property(a))
            else:
                reports = tuple(reversed((check_pa_property(a), check_bpa_property(a))))
            assert reports == expected
            assert (check_bpa_property(a), check_pa_property(a)) == expected
            details = [w.details for report in expected for w in report.witnesses]
            seen["exit sets differ"] += any("normed exit sets differ" in x for x in details)
            seen["flags differ"] += any("termination flags differ" in x for x in details)
            seen["no maximal state"] += not expected[1].holds
        assert min(seen.values()) >= 20, seen


class TestGenerator:
    def test_depth_zero_is_a_leaf(self):
        for seed in range(20):
            e = generate_random_expression(Theory.BPA, 0, seed)
            assert not list(subterms(e))[1:]  # no children

    def test_bpa_stays_sequential(self):
        e = generate_random_expression(Theory.BPA, 4, 42)
        assert classify_theory(e) is Theory.BPA

    def test_pa_never_encapsulates(self):
        for seed in range(50):
            e = generate_random_expression(Theory.PA, 4, seed)
            assert classify_theory(e) in (Theory.BPA, Theory.PA)
            assert not any(isinstance(n, Encap) for n in subterms(e))

    def test_pa_eventually_interleaves(self):
        assert any(
            any(isinstance(n, Par) for n in subterms(generate_random_expression(Theory.PA, 4, s)))
            for s in range(50)
        )

    def test_deterministic(self):
        assert generate_random_expression(Theory.PA, 6, 7) == generate_random_expression(
            Theory.PA, 6, 7
        )

    def test_seeds_vary(self):
        exprs = {generate_random_expression(Theory.BPA, 4, s) for s in range(30)}
        assert len(exprs) > 10

    def test_depth_bound(self):
        def depth(e):
            kids = []
            if hasattr(e, "left"):
                kids = [e.left, e.right]
            elif hasattr(e, "body"):
                kids = [e.body]
            return 1 + max(map(depth, kids), default=0)

        for seed in range(50):
            assert depth(generate_random_expression(Theory.BPA, 3, seed)) <= 4

    def test_rejects_acp(self):
        with pytest.raises(ValueError):
            generate_random_expression(Theory.ACP, 3, 0)

    @staticmethod
    def _recursive(theory, max_depth, seed):
        """The generator as it was written recursively, kept frozen here."""
        ops = ("seq", "alt", "star") if theory is Theory.BPA else ("seq", "alt", "star", "par")
        leaves = (parse_expression("0"), parse_expression("1"), *map(act, "abcd"))
        rng = random.Random(seed)

        def gen(depth):
            if depth <= 0 or rng.random() < 0.5:
                return rng.choice(leaves)
            op = rng.choice(ops)
            if op == "star":
                return Star(gen(depth - 1))
            left = gen(depth - 1)
            right = gen(depth - 1)
            return {"seq": Seq, "alt": Alt, "par": Par}[op](left, right)

        return gen(max_depth)

    def test_draws_as_the_recursive_form(self):
        """The iterative generator takes the random draws in the recursive
        form's order (a node's, then its left subtree's, then its right
        subtree's), so every (theory, depth, seed) gives the same term."""
        triples = [(t, d, s) for t in (Theory.BPA, Theory.PA) for d in range(9) for s in range(125)]
        for triple in triples:
            expected = render_expression(self._recursive(*triple))
            assert render_expression(generate_random_expression(*triple)) == expected, triple
