"""Hand-built sample automata and expressions.

The automata here are assembled state by state, never derived, so they serve
as independent expectations for the derivation and analysis code.
"""

from starpar import Action, Automaton, CommFn, Transition


def _t(source: int, action: str, target: int) -> Transition:
    return Transition(source, Action(action), target)


# A two-state loop in which both loop states offer the same b exit.
TWO_EXIT_LOOP_EXPR = "1.(a.(a+1))*.b"


def two_exit_loop_automaton() -> Automaton:
    return Automaton(
        labels=(None, None, None),
        initial=0,
        transitions=(
            _t(0, "a", 1),
            _t(0, "b", 2),
            _t(1, "a", 0),
            _t(1, "a", 1),
            _t(1, "b", 2),
        ),
        terminating=frozenset({2}),
    )


# Three-state loop with two exit states sharing the exit (d, empty).
SHARED_EXIT_LOOP_EXPR = "1.(a.b.(c+1))*.d"

# The b exit leads into a deadlocked state, so it is not a normed exit.
DEAD_BRANCH_LOOP_EXPR = "1.(a.(b.0+1))*.c"

# Pure interleaving: two a/b cycles joined by c edges, with different normed
# exits on the two alive exit states of the initial cycle.
INTERLEAVED_LOOP_EXPR = "1.(a.b)* || c"


def interleaved_loop_automaton() -> Automaton:
    return Automaton(
        labels=(None, None, None, None),
        initial=0,
        transitions=(
            _t(0, "a", 1),
            _t(1, "b", 0),
            _t(2, "a", 3),
            _t(3, "b", 2),
            _t(0, "c", 2),
            _t(1, "c", 3),
        ),
        terminating=frozenset({2}),
    )


# As above plus d exits and a communication edge labelled e out of state 1,
# arising from gamma(b, c) = e.  No alive exit state of the initial cycle
# covers the other's exits, even up to target component.
COMMUNICATING_LOOP_EXPR = "1.(a.b)*.d || c"


def communicating_gamma() -> CommFn:
    return CommFn([(Action("b"), Action("c"), Action("e"))])


def communicating_loop_automaton() -> Automaton:
    return Automaton(
        labels=(None, None, None, None, None, None),
        initial=0,
        transitions=(
            _t(0, "a", 1),
            _t(1, "b", 0),
            _t(2, "a", 3),
            _t(3, "b", 2),
            _t(0, "d", 4),
            _t(2, "d", 5),
            _t(0, "c", 2),
            _t(1, "c", 3),
            _t(4, "c", 5),
            _t(1, "e", 2),
        ),
        terminating=frozenset({5}),
    )


# Encoding target: four states, an a1 self-loop on state 1, state 2 terminating.
def four_state_fa() -> Automaton:
    return Automaton(
        labels=(None, None, None, None),
        initial=0,
        transitions=(
            _t(0, "a0", 1),
            _t(0, "a1", 1),
            _t(1, "a1", 1),
            _t(1, "a2", 2),
            _t(2, "a0", 0),
            _t(2, "a1", 3),
        ),
        terminating=frozenset({2}),
    )


# Counterexamples to the older cycle-based properties, kept as regression
# fixtures: a cycle state with a branching b, and a cycle whose exit coexists
# with a step to a terminating state.
CYCLE_COUNTEREXAMPLE_SEQ = "(a.(b + b.b))*.d"
CYCLE_COUNTEREXAMPLE_PAR = "(a.b)* || c"


# Hand-built automata for the analysis golden files, with shapes no derived
# case has.  Every state carries a label, so the minimised automaton shows
# which member of each bisimulation class it was read from.


def _labelled(n: int, initial: int, transitions, terminating) -> Automaton:
    return Automaton(
        labels=tuple(f"s{i}" for i in range(n)),
        initial=initial,
        transitions=tuple(transitions),
        terminating=frozenset(terminating),
    )


# Unreachable states 0 and 6, where 0 is bisimilar to the reachable 4 and has
# the lower number; a and b both lead from 1 to 2; the singleton components
# {2} and {4} have a self-loop beside the trivial {3} and {5}; three states
# terminate.
def scattered_automaton() -> Automaton:
    return _labelled(
        7,
        1,
        (
            _t(0, "c", 0),
            _t(1, "a", 2),
            _t(1, "b", 2),
            _t(2, "c", 2),
            _t(2, "d", 3),
            _t(2, "d", 5),
            _t(3, "e", 4),
            _t(4, "c", 4),
            _t(6, "a", 1),
        ),
        {0, 4, 5},
    )


# Initial state numbered last; the bisimilar self-looped states 1 and 4 are
# both reached by a, and the three terminating deadlocks collapse into one.
def late_initial_automaton() -> Automaton:
    return _labelled(
        6,
        5,
        (
            _t(5, "b", 0),
            _t(5, "a", 4),
            _t(5, "a", 1),
            _t(4, "c", 4),
            _t(4, "d", 2),
            _t(1, "c", 1),
            _t(1, "d", 3),
        ),
        {0, 2, 3},
    )


# One non-trivial component {0, 1, 2, 3} with a and b in both directions
# between 0 and 1, a self-loop on 2 inside it, two terminating states, and an
# exit to the un-normed loop on 4.
def two_way_cycle_automaton() -> Automaton:
    return _labelled(
        5,
        0,
        (
            _t(0, "a", 1),
            _t(0, "b", 1),
            _t(1, "a", 0),
            _t(1, "b", 0),
            _t(1, "b", 2),
            _t(2, "a", 3),
            _t(2, "c", 2),
            _t(2, "x", 4),
            _t(3, "a", 2),
            _t(3, "b", 0),
            _t(4, "x", 4),
        ),
        {1, 3},
    )


# Encoding target: initial state 2, self-loops on 0 (a0 and a2) and on 3,
# parallel edges 2 -> 0 and 3 -> 1, states 0 and 4 terminating.
def looped_fa() -> Automaton:
    return Automaton(
        labels=(None,) * 5,
        initial=2,
        transitions=(
            _t(2, "a0", 0),
            _t(2, "a1", 0),
            _t(0, "a0", 0),
            _t(0, "a2", 0),
            _t(0, "a1", 3),
            _t(3, "a1", 3),
            _t(3, "a0", 1),
            _t(3, "a2", 1),
            _t(1, "a0", 4),
            _t(4, "a1", 2),
        ),
        terminating=frozenset({0, 4}),
    )
