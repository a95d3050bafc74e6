import copy
import dataclasses
import pickle
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from starpar import (
    DEADLOCK,
    EMPTY,
    Act,
    Action,
    Alt,
    Automaton,
    CommFn,
    CommFnError,
    Deadlock,
    Empty,
    Encap,
    Expression,
    Par,
    ParseError,
    Seq,
    Star,
    Theory,
    Transition,
    act,
    classify_theory,
    dump_comm_fn,
    encode_fa,
    generate_random_expression,
    load_comm_fn,
    parse_expression,
    render_expression,
    validate_comm_fn,
)
from tests.oracles import naive_validate_comm_fn

a, b, c, d = act("a"), act("b"), act("c"), act("d")


class TestParse:
    def test_interleaving_with_communication_fixture(self):
        e = parse_expression("1.(a.b)*.d || c")
        expected = Par(Seq(Seq(EMPTY, Star(Seq(a, b))), d), c)
        assert e == expected

    def test_star_of_deadlock(self):
        assert parse_expression("0*") == Star(DEADLOCK)

    def test_precedence_star_seq_alt(self):
        assert parse_expression("a + b.c*") == Alt(a, Seq(b, Star(c)))

    def test_100_000_levels_of_parentheses(self):
        assert parse_expression("(" * 100_000 + "a.b" + ")" * 100_000) == Seq(a, b)

    def test_unbalanced_paren_reports_end_of_input(self):
        with pytest.raises(ParseError) as err:
            parse_expression("encap{c}(a||c")
        assert "end of input" in str(err.value)
        assert err.value.position == len("encap{c}(a||c")

    def test_left_associativity(self):
        assert parse_expression("a.b.c") == Seq(Seq(a, b), c)
        assert parse_expression("a+b+c") == Alt(Alt(a, b), c)
        assert parse_expression("a||b||c") == Par(Par(a, b), c)

    def test_precedence_par_between_seq_and_alt(self):
        assert parse_expression("a.b||c+d") == Alt(Par(Seq(a, b), c), d)

    def test_encap(self):
        assert parse_expression("encap{a,b}(a||b)") == Encap(
            frozenset({Action("a"), Action("b")}), Par(a, b)
        )
        assert parse_expression("encap{}(a)") == Encap(frozenset(), a)

    def test_double_star(self):
        assert parse_expression("a**") == Star(Star(a))

    def test_error_positions(self):
        with pytest.raises(ParseError) as err:
            parse_expression("a + + b")
        assert err.value.position == 4
        with pytest.raises(ParseError):
            parse_expression("a | b")
        with pytest.raises(ParseError):
            parse_expression("(a")
        with pytest.raises(ParseError):
            parse_expression("a b")
        with pytest.raises(ParseError):
            parse_expression("")

    def test_reserved_words(self):
        with pytest.raises(ParseError):
            parse_expression("encap")  # keyword, not an action
        with pytest.raises(ParseError):
            parse_expression("encap + a")
        with pytest.raises(ValueError):
            Action("encap")
        with pytest.raises(ValueError):
            Action("0")
        with pytest.raises(ValueError):
            Action("1")
        with pytest.raises(ValueError):
            Action("")


class TestRender:
    def test_forced_parenthesisation(self):
        assert render_expression(Star(Seq(a, b))) == "(a.b)*"

    def test_empty_prefix(self):
        assert render_expression(Seq(EMPTY, a)) == "1.a"

    def test_loop_fixture(self):
        e = Seq(Seq(EMPTY, Star(Seq(a, Alt(a, EMPTY)))), b)
        assert render_expression(e) == "1.(a.(a+1))*.b"

    def test_right_association_needs_parens(self):
        assert render_expression(Seq(a, Seq(b, c))) == "a.(b.c)"
        assert render_expression(Alt(a, Alt(b, c))) == "a+(b+c)"
        assert render_expression(Par(a, Par(b, c))) == "a||(b||c)"

    def test_encap_rendering(self):
        e = Encap(frozenset({Action("b"), Action("a")}), Alt(a, b))
        assert render_expression(e) == "encap{a,b}(a+b)"
        assert render_expression(Encap(frozenset(), a)) == "encap{}(a)"

    def test_star_bodies(self):
        assert render_expression(Star(Star(a))) == "a**"
        assert render_expression(Star(Alt(a, b))) == "(a+b)*"
        assert render_expression(Star(DEADLOCK)) == "0*"


# Full ASTs including encapsulation, for the round-trip property.
_action_names = st.sampled_from(["a", "b", "c", "d", "x_1", "go"])
_expressions = st.recursive(
    st.one_of(
        st.just(DEADLOCK),
        st.just(EMPTY),
        st.builds(lambda n: act(n), _action_names),
    ),
    lambda children: st.one_of(
        st.builds(Seq, children, children),
        st.builds(Alt, children, children),
        st.builds(Par, children, children),
        st.builds(Star, children),
        st.builds(
            lambda names, body: Encap(frozenset(Action(n) for n in names), body),
            st.lists(_action_names, max_size=3),
            children,
        ),
    ),
    max_leaves=25,
)


@given(_expressions)
def test_parse_render_round_trip(e):
    assert parse_expression(render_expression(e)) == e


@given(_expressions)
def test_render_is_whitespace_free_and_reparses_with_spacing(e):
    text = render_expression(e)
    assert " " not in text
    spaced = text.replace(".", " . ").replace("+", " + ").replace("||", " || ")
    assert parse_expression(spaced) == e


def test_round_trip_on_generated_expressions():
    from starpar import Theory, generate_random_expression

    for seed in range(200):
        e = generate_random_expression(Theory.PA, 5, seed)
        assert parse_expression(render_expression(e)) == e


class TestExpressionContract:
    """Expressions are values: an equal copy compares equal, hashes equal and
    finds the original's dict entry, and nodes of different kinds over the
    same children never compare equal."""

    def test_equal_copies_are_interchangeable(self):
        samples = []
        for seed in range(500):
            e = generate_random_expression(Theory.PA if seed % 2 else Theory.BPA, 6, 3100 + seed)
            samples.append(e)
            samples.append(Encap(frozenset((Action("a"), Action("c"))), e))
        entry = {e: i for i, e in enumerate(samples)}
        for e in samples:
            for dup in (
                parse_expression(render_expression(e)),
                copy.deepcopy(e),
                pickle.loads(pickle.dumps(e)),
            ):
                assert dup == e and e == dup
                assert hash(dup) == hash(e)
                assert entry[dup] == entry[e]
                if isinstance(e, Encap):
                    assert dup.blocked is not e.blocked

    def test_kinds_over_the_same_children_differ(self):
        for x, y in ((a, b), (a, a), (DEADLOCK, EMPTY), (Star(a), Par(a, b))):
            nodes = [Seq(x, y), Alt(x, y), Par(x, y)]
            for i, m in enumerate(nodes):
                for j, n in enumerate(nodes):
                    assert (m == n) == (i == j)
            assert len(set(nodes)) == 3
        assert DEADLOCK != EMPTY and Deadlock() == DEADLOCK and Empty() == EMPTY
        assert len({DEADLOCK, EMPTY}) == 2

    @pytest.mark.parametrize("op", [".", "||", "+"])
    def test_hash_of_a_450_level_chain(self, op):
        text = op.join(["a"] * 451)
        e, dup = parse_expression(text), parse_expression(text)
        assert e is not dup
        assert hash(e) == hash(dup)

    def test_slots_hold_the_fields_only(self):
        assert Expression.__slots__ == ()
        for cls in (Deadlock, Empty, Act, Seq, Alt, Star, Par, Encap):
            assert cls.__slots__ == tuple(f.name for f in dataclasses.fields(cls))


class TestClassify:
    def test_sequential_only(self):
        assert classify_theory(parse_expression("1.(a.(a+1))*.b")) is Theory.BPA

    def test_interleaving(self):
        assert classify_theory(parse_expression("1.(a.b)* || c")) is Theory.PA

    def test_encapsulation(self):
        assert classify_theory(parse_expression("encap{x}(a)")) is Theory.ACP

    def test_encap_anywhere_is_acp(self):
        assert classify_theory(Seq(Encap(frozenset(), a), b)) is Theory.ACP

    def test_generated_bpa_has_no_par(self):
        from starpar import subterms

        e = parse_expression("1.(a.(a+1))*.b")
        assert classify_theory(e) is Theory.BPA
        assert not any(isinstance(n, (Par, Encap)) for n in subterms(e))


class TestCommFn:
    def test_lookup_is_order_insensitive(self):
        g = CommFn([(Action("b"), Action("c"), Action("e"))])
        assert g.lookup(Action("b"), Action("c")) == Action("e")
        assert g.lookup(Action("c"), Action("b")) == Action("e")
        assert g.lookup(Action("b"), Action("b")) is None

    def test_single_pair_is_associative_and_handshaking(self):
        g = CommFn([(Action("b"), Action("c"), Action("e"))])
        report = validate_comm_fn(g)
        assert report.commutative
        assert report.associative
        assert report.handshaking
        assert report.violations == ()

    def test_empty_table_is_valid(self):
        report = validate_comm_fn(CommFn())
        assert report.associative and report.handshaking

    def test_result_reused_as_argument_breaks_handshaking(self):
        g = CommFn(
            [
                (Action("a"), Action("b"), Action("c")),
                (Action("c"), Action("d"), Action("e")),
            ]
        )
        report = validate_comm_fn(g)
        assert not report.handshaking
        assert Action("c") in report.handshaking_violations
        # gamma(gamma(a,b),d) = e but gamma(b,d) is undefined
        assert not report.associative
        assert (Action("a"), Action("b"), Action("d")) in report.associativity_violations

    def test_self_communication(self):
        g = CommFn([(Action("a"), Action("a"), Action("a"))])
        report = validate_comm_fn(g)
        assert report.associative
        assert not report.handshaking

    def test_conflicting_rules_rejected(self):
        with pytest.raises(CommFnError):
            CommFn(
                [
                    (Action("a"), Action("b"), Action("c")),
                    (Action("b"), Action("a"), Action("d")),
                ]
            )

    def test_consistent_duplicates_allowed(self):
        g = CommFn(
            [
                (Action("a"), Action("b"), Action("c")),
                (Action("b"), Action("a"), Action("c")),
            ]
        )
        assert len(g.pairs()) == 1


_TABLE_ACTIONS = tuple(Action(name) for name in "abcdefg")
_TABLE_INDEX = st.integers(0, len(_TABLE_ACTIONS) - 1)


@st.composite
def comm_rules(draw):
    """Conflict-free rules over at most seven actions: a pair may be a
    self-communication, and a result may come back as an argument."""
    rules = draw(
        st.dictionaries(
            st.tuples(_TABLE_INDEX, _TABLE_INDEX).map(lambda pair: tuple(sorted(pair))),
            _TABLE_INDEX,
            max_size=16,
        )
    )
    return [
        (_TABLE_ACTIONS[i], _TABLE_ACTIONS[j], _TABLE_ACTIONS[r]) for (i, j), r in rules.items()
    ]


def comm_tables():
    return comm_rules().map(CommFn)


@settings(max_examples=300, deadline=None)
@given(comm_tables())
def test_validation_matches_closure_scan(g):
    assert validate_comm_fn(g) == naive_validate_comm_fn(g)


class ActionKeyedTable:
    """The reference for ``CommFn``'s surface: a dict keyed by ``Action``
    pairs, every rule under both orderings, read the way the table was
    read before it was keyed by name."""

    def __init__(self, rules):
        self.table = {}
        for a, b, c in rules:
            self.table[a, b] = self.table[b, a] = c

    def pairs(self):
        return sorted((a, b, c) for (a, b), c in self.table.items() if a <= b)

    def repr(self):
        return "CommFn(" + ", ".join(f"({a},{b})->{c}" for a, b, c in self.pairs()) + ")"

    def dump(self):
        return "".join(f"{a} {b} -> {c}\n" for a, b, c in self.pairs())

    def arguments(self):
        return frozenset(a for a, _ in self.table)

    def results(self):
        return frozenset(self.table.values())


def _as_given(rules, flips):
    """The rules with some argument pairs swapped and some rules repeated."""
    given_rules = []
    for (a, b, c), flip in zip(rules, flips):
        given_rules.append((b, a, c) if flip % 2 else (a, b, c))
        if flip >= 2:
            given_rules.append((a, b, c))
    return given_rules


@settings(max_examples=200, deadline=None)
@given(comm_rules(), comm_rules(), st.lists(st.integers(0, 3), min_size=16, max_size=16))
def test_surface_matches_action_keyed_table(rules, other_rules, flips):
    g = CommFn(_as_given(rules, flips))
    ref = ActionKeyedTable(rules)
    assert g.pairs() == ref.pairs()
    assert repr(g) == ref.repr()
    assert dump_comm_fn(g) == ref.dump()
    assert g.arguments() == ref.arguments()
    assert g.results() == ref.results()
    closure = sorted(ref.arguments() | ref.results() | {Action("z")})
    for a in closure:
        for b in closure:
            assert g.lookup(a, b) == ref.table.get((a, b))
    other = CommFn(other_rules)
    assert (g == other) == (ref.table == ActionKeyedTable(other_rules).table)
    assert g == CommFn(rules) == load_comm_fn(dump_comm_fn(g))
    assert (g == "x") is False
    for k, (a, b, c) in enumerate(rules):
        for result in (Action("a"), Action("g")):
            if result != c:
                changed = CommFn(rules[:k] + [(a, b, result)] + rules[k + 1 :])
                assert g != changed and changed != g
    for copied in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g)):
        assert copied == g
        assert repr(copied) == repr(g)
        assert all(copied.lookup(a, b) == g.lookup(a, b) for a in closure for b in closure)


def test_conflict_messages_are_pinned():
    with pytest.raises(CommFnError) as err:
        CommFn([(Action("a"), Action("b"), Action("c")), (Action("b"), Action("a"), Action("d"))])
    assert str(err.value) == "conflicting rules for {b, a}: c vs d"
    with pytest.raises(CommFnError) as err:
        load_comm_fn("a b -> c\nb a -> d\n")
    assert str(err.value) == "line 2: rule for {b, a} conflicts with line 1"


class TestCommFnScale:
    def test_encoding_gamma_of_80_states_validates_within_a_second(self):
        rng = random.Random(80)
        n = 80
        transitions = [Transition(rng.randrange(i), Action(f"a{i % 2}"), i) for i in range(1, n)]
        transitions += [
            Transition(rng.randrange(n), Action(f"a{rng.randrange(2)}"), rng.randrange(n))
            for _ in range(2 * n)
        ]
        fa = Automaton(
            labels=(None,) * n,
            initial=0,
            transitions=tuple(transitions),
            terminating=frozenset({0, n - 1}),
        )
        gamma = encode_fa(fa).gamma
        assert len(gamma.arguments() | gamma.results()) == 242
        start = time.perf_counter()
        report = validate_comm_fn(gamma)
        assert time.perf_counter() - start < 1.0
        assert report.associative and report.handshaking
        assert report.violations == ()

    def test_feedback_chain_matches_closure_scan(self):
        x = [Action(f"x{i}") for i in range(60)]
        rules = [(x[i], x[i + 1], x[i + 2]) for i in range(58)]
        rules += [(x[i], x[i], x[i + 1]) for i in range(0, 59, 7)]
        g = CommFn(rules)
        report = validate_comm_fn(g)
        assert not report.associative and not report.handshaking
        assert report == naive_validate_comm_fn(g)


class TestGammaFile:
    def test_load_dump_round_trip(self):
        text = "# synchronisation\nb c -> e\n\na a -> b  # self\n"
        g = load_comm_fn(text)
        assert g.lookup(Action("c"), Action("b")) == Action("e")
        assert g.lookup(Action("a"), Action("a")) == Action("b")
        assert load_comm_fn(dump_comm_fn(g)) == g

    def test_bad_line_reports_number(self):
        with pytest.raises(CommFnError) as err:
            load_comm_fn("b c -> e\nnonsense\n")
        assert "line 2" in str(err.value)

    def test_conflicting_lines_rejected(self):
        with pytest.raises(CommFnError) as err:
            load_comm_fn("a b -> c\nb a -> d\n")
        assert "line 2" in str(err.value)

    def test_reserved_action_rejected(self):
        with pytest.raises(CommFnError):
            load_comm_fn("encap b -> c\n")
