"""The three benchmark workloads: seeded inputs, the timed job, and the
known-answer check of each job's output.

A workload's inputs are a fixed list of slots, drawn from the seed alone.
Every pass of a run gives each slot a fresh variant: a copy of the slot's
input with its actions renamed to names of the same width that no other
variant uses.  Variants of one slot cost the same, yet no job input repeats
within a run, so a cache shared across jobs cannot hit.  The slot lists are
built so that every seed has the same mix of job sizes.  Jobs call the
library through its module namespaces (``semantics.derive_automaton``, ...),
the same functions the CLI subcommands call, so that the tracer in
``tracing.py`` can wrap them.  The checks never feed a value computed by the
function under check back in as its own expected answer: the expected sizes
come from the shape table below, from the input automaton, or from the
generator's theory.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Callable

from starpar import analysis, encoding, equivalence, semantics, syntax
from starpar.semantics import Automaton, Transition
from starpar.syntax import Action, CommFn, Par, Theory

# ---------------------------------------------------------------------------
# interleave: k-way interleavings of four-state star loops
# ---------------------------------------------------------------------------

# Loop bodies over the slots a, b, c, d, with the number of transitions each
# slot labels in the derived automaton.  Every shape derives 4 states and 7
# transitions, has 1 terminating state and minimises to 3 states, so all jobs
# of one k cost the same and only the seed-drawn shapes and names differ.
# Worked out by hand from the SOS rules, e.g. for (a.b+c)*.d the states are
# p, (1.b.S).d, (1.S).d and 1, with p and (1.S).d bisimilar.
SHAPES = (
    ("({a}.{b}+{c})*.{d}", (2, 1, 2, 2)),
    ("({c}+{a}.{b})*.{d}", (2, 1, 2, 2)),
    ("({a}+{b}.{c})*.{d}", (2, 2, 1, 2)),
    ("({b}.{c}+{a})*.{d}", (2, 2, 1, 2)),
    ("({a}+{b})*.{c}.{d}", (2, 2, 2, 1)),
    ("({a}.{b})*.({c}+{d})", (2, 1, 2, 2)),
    ("(({b}+{c}).{a})*.{d}", (1, 2, 2, 2)),
    ("{a}*.({b}.{c}+{d})", (2, 2, 1, 2)),
)
SHAPE_STATES, SHAPE_TRANSITIONS, SHAPE_MIN_STATES = 4, 7, 3
SLOTS = "abcd"
# Names of one width, so that label and JSON sizes do not depend on the draw.
STEMS = ("ack", "req", "put", "get", "run", "snd", "rcv", "lck", "tik", "tok")

# Twelve 4-way jobs (256 states), half of them with a handshake between two
# components, fourteen comm-free 3-way jobs (64 states) and ten comm-free
# 2-way jobs (16 states).  The 4-way jobs take most of the time and hold the
# tail; the median job is a 3-way one.  A 5-way job (1 024 states) takes
# about 4 s, too long to run the several times a run needs, so it is left
# out.
INTERLEAVE_SLOTS = (4,) * 12 + (3,) * 14 + (2,) * 10
INTERLEAVE_SLOTS_TINY = (3,) * 2 + (2,) * 10


@dataclass(frozen=True)
class InterleaveSlot:
    k: int
    stem: str
    shapes: tuple[tuple[str, tuple[int, ...]], ...]
    # (left component, right component, left slot, right slot) of the handshake
    handshake: tuple[int, int, int, int] | None


@dataclass(frozen=True)
class InterleaveInput:
    k: int
    text: str
    twin_text: str
    gamma: CommFn
    communicating: bool
    states: int
    transitions: int
    min_states: int


def interleave_slots(seed: int, tiny: bool) -> list[InterleaveSlot]:
    """Slot ``i`` of a k-way size uses shapes ``i k .. i k + k - 1`` of the
    table, in that order, so every seed gives each slot the same job.  The
    shapes' costs differ by up to 1.8x, and a component's place in the
    nesting changes the job's cost too, so drawing either would let the seed
    set the workload's speed.  The seed draws the action names and the
    handshake: two 2-edge slots of two components, so it always adds 4 edges
    per state of the other components."""
    rng = random.Random(f"interleave/{seed}")
    ks = INTERLEAVE_SLOTS_TINY if tiny else INTERLEAVE_SLOTS
    slots = []
    for i, k in enumerate(ks):
        stem = rng.choice(STEMS)
        shapes = [SHAPES[(i * k + c) % len(SHAPES)] for c in range(k)]
        handshake = None
        if k == max(ks) and i % 4 < 2:
            left, right = rng.sample(range(k), 2)
            handshake = (
                left,
                right,
                rng.choice([j for j, edges in enumerate(shapes[left][1]) if edges == 2]),
                rng.choice([j for j, edges in enumerate(shapes[right][1]) if edges == 2]),
            )
        slots.append(InterleaveSlot(k, stem, tuple(shapes), handshake))
    return slots


def interleave_variant(slot: InterleaveSlot, job: int) -> InterleaveInput:
    k = slot.k
    names = [{s: f"{slot.stem}{c}{s}_{job:05d}" for s in SLOTS} for c in range(k)]
    parts = [template.format(**names[c]) for c, (template, _) in enumerate(slot.shapes)]
    twin = parts[-1]
    for part in reversed(parts[:-1]):
        twin = f"{part}||({twin})"
    transitions = SHAPE_TRANSITIONS * k * SHAPE_STATES ** (k - 1)
    gamma = syntax.EMPTY_COMM
    if slot.handshake is not None:
        left, right, left_slot, right_slot = slot.handshake
        gamma = CommFn([(
            Action(names[left][SLOTS[left_slot]]),
            Action(names[right][SLOTS[right_slot]]),
            Action(f"sync_{job:05d}"),
        )])
        # Each pair of a left-slot edge and a right-slot edge synchronises
        # once per state of the other k - 2 components.
        transitions += (
            slot.shapes[left][1][left_slot] * slot.shapes[right][1][right_slot]
            * SHAPE_STATES ** (k - 2)
        )
    return InterleaveInput(
        k=k,
        text="||".join(parts),
        twin_text=twin,
        gamma=gamma,
        communicating=slot.handshake is not None,
        states=SHAPE_STATES**k,
        transitions=transitions,
        min_states=SHAPE_MIN_STATES**k,
    )


@dataclass
class InterleaveOutput:
    a: Automaton
    loaded: Automaton
    components: int
    bpa: analysis.PropertyReport
    pa: analysis.PropertyReport
    minimal: Automaton
    twin: Automaton
    bisim: equivalence.BisimResult


def interleave_job(inp: InterleaveInput) -> InterleaveOutput:
    a = semantics.derive_automaton(syntax.parse_expression(inp.text), inp.gamma)
    loaded = semantics.automaton_from_json(semantics.automaton_to_json(a))
    components = analysis.scc_decompose(loaded).count
    bpa = analysis.check_bpa_property(loaded)
    pa = analysis.check_pa_property(loaded)
    minimal = equivalence.minimize(loaded)
    twin = semantics.derive_automaton(syntax.parse_expression(inp.twin_text), inp.gamma)
    bisim = equivalence.bisimilar(loaded, twin)
    return InterleaveOutput(a, loaded, components, bpa, pa, minimal, twin, bisim)


def interleave_check(inp: InterleaveInput, out: InterleaveOutput) -> list[str]:
    problems = []
    if out.loaded != out.a:
        problems.append("JSON round trip changed the automaton")
    if (out.a.n_states, len(out.a.transitions)) != (inp.states, inp.transitions):
        problems.append(
            f"{out.a.n_states} states, {len(out.a.transitions)} transitions; "
            f"expected {inp.states}, {inp.transitions}"
        )
    if len(out.a.terminating) != 1:
        problems.append(f"{len(out.a.terminating)} terminating states; expected 1")
    if out.minimal.n_states != inp.min_states:
        problems.append(f"minimised to {out.minimal.n_states} states; expected {inp.min_states}")
    if not inp.communicating and not out.pa.holds:
        problems.append("PA check fails on a communication-free interleaving")
    if not out.bisim.bisimilar:
        problems.append("not bisimilar to its re-bracketed twin")
    elif not equivalence.check_bisimulation(out.loaded, out.twin, out.bisim.witness_relation):
        problems.append("witness relation is not a bisimulation")
    return problems


# ---------------------------------------------------------------------------
# pool: many small random BPA and PA expressions
# ---------------------------------------------------------------------------

POOL_DEPTH, POOL_DEPTH_TINY = 6, 3
POOL_SLOTS_TINY = 40
# Draws whose syntactic state bound exceeds this are drawn again.  Among
# 60 000 unfiltered depth-6 draws, one reached 1 600 states and took 2.8 s,
# and the largest 30 took a fifth of all the time, so a handful of jobs set
# the pool's figures; large automata are the interleave workload's case.
POOL_MAX_STATE_BOUND = 300
# Slots per theory in each band of the state bound: band b holds the bounds
# in (2^(b-1), 2^b], the last band everything above.  The quotas are the
# generator's own band frequencies, measured on 100 000 draws per theory and
# scaled to 1 500, so every seed draws the same size mix.  Job time grows
# with the band, so without quotas the few large PA draws a seed happens to
# make would move the pool's figures from one seed to the next.
POOL_QUOTAS = {
    Theory.BPA: (251, 553, 269, 192, 177, 58),
    Theory.PA: (258, 568, 237, 154, 125, 84, 42, 32),
}


def state_bound(e: syntax.Expression) -> int:
    """Upper bound on the states derivable from ``e``: 2 for an action, the
    sum over ``.`` and ``+``, one more than the body for ``*``, the product
    over ``||``."""
    if isinstance(e, syntax.Act):
        return 2
    if isinstance(e, (syntax.Seq, syntax.Alt)):
        return state_bound(e.left) + state_bound(e.right)
    if isinstance(e, syntax.Star):
        return state_bound(e.body) + 1
    if isinstance(e, Par):
        return state_bound(e.left) * state_bound(e.right)
    return 1


def state_band(bound: int, bands: int) -> int:
    return min(bands - 1, math.ceil(math.log2(bound)))


@dataclass(frozen=True)
class PoolInput:
    theory: Theory
    expression: syntax.Expression


def pool_slots(seed: int, tiny: bool) -> list[PoolInput]:
    rng = random.Random(f"pool/{seed}")
    if tiny:
        slots = []
        while len(slots) < POOL_SLOTS_TINY:
            theory = Theory.BPA if len(slots) % 2 == 0 else Theory.PA
            e = analysis.generate_random_expression(theory, POOL_DEPTH_TINY, rng.randrange(2**32))
            slots.append(PoolInput(theory, e))
        return slots
    slots = []
    for theory, quotas in POOL_QUOTAS.items():
        left = list(quotas)
        while any(left):
            e = analysis.generate_random_expression(theory, POOL_DEPTH, rng.randrange(2**32))
            bound = state_bound(e)
            if bound > POOL_MAX_STATE_BOUND:
                continue
            band = state_band(bound, len(quotas))
            if left[band]:
                left[band] -= 1
                slots.append(PoolInput(theory, e))
    # BPA and PA alternate, as the sweep script draws them.
    half = len(slots) // 2
    return [slot for pair in zip(slots[:half], slots[half:]) for slot in pair]


def rename_actions(e: syntax.Expression, suffix: str) -> syntax.Expression:
    """``e`` with ``suffix`` appended to every action name."""
    if isinstance(e, syntax.Act):
        return syntax.Act(Action(e.action.name + suffix))
    if isinstance(e, syntax.Seq):
        return syntax.Seq(rename_actions(e.left, suffix), rename_actions(e.right, suffix))
    if isinstance(e, syntax.Alt):
        return syntax.Alt(rename_actions(e.left, suffix), rename_actions(e.right, suffix))
    if isinstance(e, Par):
        return Par(rename_actions(e.left, suffix), rename_actions(e.right, suffix))
    if isinstance(e, syntax.Star):
        return syntax.Star(rename_actions(e.body, suffix))
    return e


def pool_variant(slot: PoolInput, job: int) -> PoolInput:
    return PoolInput(slot.theory, rename_actions(slot.expression, f"{job:06d}"))


@dataclass
class PoolOutput:
    parsed: syntax.Expression
    a: Automaton
    loaded: Automaton
    components: int
    bpa: analysis.PropertyReport
    pa: analysis.PropertyReport
    oc: int
    theory: Theory
    minimal: Automaton
    bisim: equivalence.BisimResult


def pool_job(inp: PoolInput) -> PoolOutput:
    parsed = syntax.parse_expression(syntax.render_expression(inp.expression))
    a = semantics.derive_automaton(parsed)
    loaded = semantics.automaton_from_json(semantics.automaton_to_json(a))
    components = analysis.scc_decompose(loaded).count
    bpa = analysis.check_bpa_property(loaded)
    pa = analysis.check_pa_property(loaded)
    oc = analysis.oc_measure(parsed)
    theory = syntax.classify_theory(parsed)
    minimal = equivalence.minimize(loaded)
    bisim = equivalence.bisimilar(loaded, minimal)
    return PoolOutput(parsed, a, loaded, components, bpa, pa, oc, theory, minimal, bisim)


def pool_check(inp: PoolInput, out: PoolOutput) -> list[str]:
    problems = []
    if out.parsed != inp.expression:
        problems.append("parse(render(e)) != e")
    if out.loaded != out.a:
        problems.append("JSON round trip changed the automaton")
    has_par = any(isinstance(node, Par) for node in syntax.subterms(inp.expression))
    if out.theory is not (Theory.PA if has_par else Theory.BPA):
        problems.append(f"classified as {out.theory.value}")
    if inp.theory is Theory.BPA and not out.bpa.holds:
        problems.append("BPA check fails on a BPA expression")
    if inp.theory is Theory.PA and not out.pa.holds:
        problems.append("PA check fails on a PA expression")
    if not out.bisim.bisimilar:
        problems.append("not bisimilar to its minimisation")
    if out.minimal.n_states > out.a.n_states:
        problems.append("minimisation grew the automaton")
    return problems


# ---------------------------------------------------------------------------
# encode: random connected automata through the encoding theorem
# ---------------------------------------------------------------------------

# (states, actions, slots).  validate_comm_fn's cost is cubic in the gamma
# closure, n (m + 1) + m actions, which only the size fixes, and derive's
# grows with n.  A 22-state job takes about 0.7 s and a 30-state one 3 s, too
# long to run the several times a run needs, so the sizes stop at 16.  The
# counts put the median job in the middle of the 10-state jobs and the tail
# job (the eleventh slowest) in the middle of the 12-state ones, so that
# neither sits between two sizes.
ENCODE_SIZES = (
    (6, 4, 3), (7, 3, 4), (8, 1, 8), (10, 2, 10), (12, 2, 10), (14, 2, 4), (16, 2, 1),
)
ENCODE_SIZES_TINY = ((6, 2, 2), (5, 1, 4), (4, 3, 6))


def random_connected_fa(rng: random.Random, n: int, m: int) -> Automaton:
    """``n`` states all reachable from state 0, ``2n - 1`` edges before
    deduplication, and every one of the ``m`` actions used."""
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


def encode_slots(seed: int, tiny: bool) -> list[Automaton]:
    rng = random.Random(f"encode/{seed}")
    return [
        random_connected_fa(rng, n, m)
        for n, m, count in (ENCODE_SIZES_TINY if tiny else ENCODE_SIZES)
        for _ in range(count)
    ]


def encode_variant(fa: Automaton, job: int) -> Automaton:
    return Automaton(
        labels=fa.labels,
        initial=fa.initial,
        transitions=tuple(
            Transition(t.source, Action(f"{t.action.name}_{job:06d}"), t.target)
            for t in fa.transitions
        ),
        terminating=fa.terminating,
    )


@dataclass
class EncodeOutput:
    encoded: encoding.EncodingResult
    text: str
    gamma: CommFn
    validation: syntax.CommValidation
    iso: equivalence.IsoResult


def encode_job(fa: Automaton) -> EncodeOutput:
    encoded = encoding.encode_fa(fa)
    text = syntax.render_expression(encoded.expression)
    gamma = syntax.load_comm_fn(syntax.dump_comm_fn(encoded.gamma))
    validation = syntax.validate_comm_fn(gamma)
    iso = encoding.verify_encoding(fa)
    return EncodeOutput(encoded, text, gamma, validation, iso)


def encode_check(fa: Automaton, out: EncodeOutput) -> list[str]:
    problems = []
    if out.gamma != out.encoded.gamma:
        problems.append("gamma file round trip changed the table")
    if syntax.parse_expression(out.text) != out.encoded.expression:
        problems.append("parse(render(e)) != e for the encoded expression")
    if not (out.validation.associative and out.validation.handshaking):
        problems.append("gamma is not associative and handshaking")
    if not out.iso.isomorphic or out.iso.mapping is None:
        problems.append("encoding not isomorphic to its input")
        return problems
    derived = semantics.derive_automaton(out.encoded.expression, out.encoded.gamma)
    mapping = out.iso.mapping
    if derived.n_states != fa.n_states or sorted(mapping) != list(range(fa.n_states)):
        problems.append("mapping is not a bijection onto the derived states")
        return problems
    if mapping[fa.initial] != derived.initial:
        problems.append("mapping moves the initial state")
    if {mapping[s] for s in fa.terminating} != set(derived.terminating):
        problems.append("mapping changes termination flags")
    edges = {(mapping[t.source], t.action, mapping[t.target]) for t in fa.transitions}
    if edges != {(t.source, t.action, t.target) for t in derived.transitions}:
        problems.append("mapping does not preserve labelled edges")
    return problems


# ---------------------------------------------------------------------------


def derived_size(inp, out) -> tuple[int, int]:
    return out.a.n_states, len(out.a.transitions)


def encode_size(fa: Automaton, out: EncodeOutput) -> tuple[int, int]:
    return fa.n_states, len(fa.transitions)


@dataclass(frozen=True)
class Workload:
    name: str
    make_slots: Callable[[int, bool], list[Any]]
    variant: Callable[[Any, int], Any]
    job: Callable[[Any], Any]
    check: Callable[[Any, Any], list[str]]
    size: Callable[[Any, Any], tuple[int, int]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("interleave", interleave_slots, interleave_variant, interleave_job,
                 interleave_check, derived_size),
        Workload("pool", pool_slots, pool_variant, pool_job, pool_check, derived_size),
        Workload("encode", encode_slots, encode_variant, encode_job, encode_check, encode_size),
    )
}
