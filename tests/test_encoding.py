import random

import pytest

from starpar import (
    DEADLOCK,
    EMPTY,
    Act,
    Action,
    Alt,
    Automaton,
    Encap,
    InvalidAutomaton,
    Par,
    Seq,
    Star,
    Transition,
    derive_automaton,
    encode_fa,
    encoding_manifest,
    parse_expression,
    render_expression,
    validate_comm_fn,
    verify_encoding,
)
from tests.samples import four_state_fa
from tests.corpus import connected_fa
from tests.oracles import is_isomorphism, random_connected_fa


def _component_body(component):
    # component = 1 . (body)*
    assert isinstance(component, Seq) and component.left == EMPTY
    assert isinstance(component.right, Star)
    return component.right.body


class TestComponentShapes:
    def test_component_for_self_loop_state(self):
        enc = encode_fa(four_state_fa())
        body = _component_body(enc.components[1])
        # (enter_1 . a1*) . leave_2_2 with the self-loop star inside
        assert body == Seq(
            Seq(Act(Action("enter_1")), Star(Act(Action("a1")))), Act(Action("leave_2_2"))
        )

    def test_terminating_state_gets_empty_summand(self):
        enc = encode_fa(four_state_fa())
        body = _component_body(enc.components[2])
        leave_sum = body.right
        assert leave_sum == Alt(
            Alt(Act(Action("leave_0_0")), Act(Action("leave_1_3"))), EMPTY
        )

    def test_sink_state_has_deadlock_sum(self):
        enc = encode_fa(four_state_fa())
        body = _component_body(enc.components[3])
        assert body.right == DEADLOCK
        assert body.left == Seq(Act(Action("enter_3")), Star(DEADLOCK))

    def test_expression_is_encapsulated_left_chain(self):
        enc = encode_fa(four_state_fa())
        assert isinstance(enc.expression, Encap)
        assert enc.expression.blocked == enc.control.all_actions
        chain = enc.expression.body
        # left-associated: ((p0' || p1) || p2) || p3
        assert isinstance(chain, Par) and isinstance(chain.left, Par)
        assert chain.right == enc.components[3]
        assert chain.left.left.left == enc.components[-1]  # primed initial

    def test_primed_component_is_the_unique_successor(self):
        from starpar import step

        enc = encode_fa(four_state_fa())
        ((action, successor),) = step(enc.components[0])
        assert action == Action("enter_0")
        assert successor == enc.components[-1]

    def test_action_indices_sorted_by_name(self):
        enc = encode_fa(four_state_fa())
        assert enc.action_index == {Action("a0"): 0, Action("a1"): 1, Action("a2"): 2}


class TestGamma:
    def test_defined_exactly_on_matching_indices(self):
        enc = encode_fa(four_state_fa())
        gamma = enc.gamma
        enter = enc.control.enter
        leave = enc.control.leave
        actions = sorted(enc.action_index, key=lambda x: enc.action_index[x])
        for i in range(4):
            for k in range(3):
                assert gamma.lookup(enter[i], leave[k, i]) == actions[k]
                for j in range(4):
                    if j != i:
                        assert gamma.lookup(enter[i], leave[k, j]) is None
        assert len(gamma.pairs()) == 12

    def test_handshaking_and_associative(self):
        report = validate_comm_fn(encode_fa(four_state_fa()).gamma)
        assert report.handshaking
        assert report.associative

    def test_control_names_fresh(self):
        enc = encode_fa(four_state_fa())
        fa_names = {a.name for a in four_state_fa().actions()}
        assert not fa_names & {x.name for x in enc.control.all_actions}

    def test_control_names_pass_the_public_constructor(self):
        # encode_fa builds its control actions without the name checks.
        enc = encode_fa(connected_fa(random.Random(61), 60, 3))
        control = [*enc.control.enter, *enc.control.leave.values()]
        assert len({a.name for a in control}) == 60 + 60 * 3
        for action in control:
            assert Action(action.name) == action


class TestFreshness:
    def test_collision_gets_underscore(self):
        fa = Automaton(
            labels=(None, None),
            initial=0,
            transitions=(
                Transition(0, Action("enter_1"), 1),
                Transition(1, Action("leave_0_0"), 0),
            ),
            terminating=frozenset({0}),
        )
        enc = encode_fa(fa)
        names = {x.name for x in enc.control.all_actions}
        assert "enter_1_" in names and "enter_1" not in names
        assert "leave_0_0_" in names
        result = verify_encoding(fa)
        assert result.isomorphic


class TestVerify:
    def test_four_state_fa_isomorphic(self):
        fa = four_state_fa()
        result = verify_encoding(fa)
        assert result.isomorphic
        assert is_isomorphism(fa, derive_automaton(*_derivation_inputs(fa)), result.mapping)

    def test_two_state_chain(self):
        fa = Automaton(
            labels=(None, None),
            initial=0,
            transitions=(Transition(0, Action("a"), 1),),
            terminating=frozenset({1}),
        )
        result = verify_encoding(fa)
        assert result.isomorphic
        assert result.mapping is not None and len(result.mapping) == 2

    def test_single_state_terminating(self):
        fa = Automaton(labels=(None,), initial=0, transitions=(), terminating=frozenset({0}))
        enc = encode_fa(fa)
        assert render_expression(enc.components[0]) == "1.(enter_0.0*.(0+1))*"
        derived = derive_automaton(enc.expression, enc.gamma)
        assert derived.n_states == 1
        assert derived.terminating == frozenset({0})
        assert derived.transitions == ()

    def test_single_state_self_loop(self):
        fa = Automaton(
            labels=(None,),
            initial=0,
            transitions=(Transition(0, Action("a"), 0),),
            terminating=frozenset(),
        )
        enc = encode_fa(fa)
        derived = derive_automaton(enc.expression, enc.gamma)
        assert derived.n_states == 1
        assert derived.transitions == (Transition(0, Action("a"), 0),)
        assert derived.terminating == frozenset()

    def test_nonzero_initial_state(self):
        fa = Automaton(
            labels=(None, None),
            initial=1,
            transitions=(Transition(1, Action("a"), 0), Transition(0, Action("b"), 1)),
            terminating=frozenset({0}),
        )
        assert verify_encoding(fa).isomorphic

    def test_random_sample(self):
        rng = random.Random(4242)
        for _ in range(10):
            fa = random_connected_fa(rng)
            result = verify_encoding(fa)
            assert result.isomorphic

    def test_sixty_states_four_actions(self):
        fa = connected_fa(random.Random(60), 60, 4)
        result = verify_encoding(fa)
        assert result.isomorphic
        assert sorted(result.mapping) == list(range(60))
        derived = derive_automaton(*_derivation_inputs(fa))
        assert is_isomorphism(fa, derived, result.mapping)
        # Labels of the 60-leaf spine read back to themselves.
        for label in derived.labels:
            assert render_expression(parse_expression(label)) == label

    def test_three_hundred_states_two_actions(self):
        # A scale check with no clock: the encoding's 300-leaf spine derives
        # to an automaton isomorphic to its input.
        fa = connected_fa(random.Random(300), 300, 2)
        result = verify_encoding(fa)
        assert result.isomorphic
        derived = derive_automaton(*_derivation_inputs(fa))
        assert is_isomorphism(fa, derived, result.mapping)

    def test_action_preservation_and_termination_alignment(self):
        fa = four_state_fa()
        enc = encode_fa(fa)
        derived = derive_automaton(enc.expression, enc.gamma)
        # control actions are all encapsulated away
        assert set(derived.actions()) <= set(fa.actions())
        mapping = verify_encoding(fa).mapping
        for s in range(fa.n_states):
            assert (mapping[s] in derived.terminating) == (s in fa.terminating)


def _derivation_inputs(fa):
    enc = encode_fa(fa)
    return enc.expression, enc.gamma


class TestInvalidInputs:
    def test_unreachable_state_rejected(self):
        fa = Automaton(
            labels=(None, None),
            initial=0,
            transitions=(),
            terminating=frozenset(),
        )
        with pytest.raises(InvalidAutomaton):
            encode_fa(fa)


class TestManifest:
    def test_manifest_lists_names(self):
        fa = four_state_fa()
        enc = encode_fa(fa)
        manifest = encoding_manifest(fa, enc)
        assert manifest["states"] == 4
        assert manifest["actions"] == ["a0", "a1", "a2"]
        assert manifest["enter"] == ["enter_0", "enter_1", "enter_2", "enter_3"]
        assert {entry["name"] for entry in manifest["leave"]} == {
            x.name for x in enc.control.leave.values()
        }
