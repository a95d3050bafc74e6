"""Spans around the library's public functions, recorded from outside ``src/``.

``Tracer.install`` replaces each public name listed in ``WRAPPED`` in the
module namespace the library calls it through, so a call from another
module (``starpar.encoding.derive_automaton``) or from within the same
module (``check_bpa_property`` calling ``scc_decompose``) opens a span as
well.  ``step`` and ``terminates`` are never wrapped: they recurse through
their own module globals, so a wrapper would time itself at every level.

A span records its id, parent span id, job id, name, start and end.  Self
time is the span's duration minus the time its child spans cover.  Spans
are kept in memory (up to ``keep`` of them) and written out by the caller
once the run ends; the per-name totals always cover every span.
"""

from __future__ import annotations

import functools
import gc
import importlib
from collections import defaultdict
from time import perf_counter

from starpar.syntax import subterms


def _count_automaton(args, result):
    return {"states": result.n_states, "transitions": len(result.transitions)}


def _count_json_bytes(args, result):
    return {"bytes": len(result.encode())}


def _count_closure(args, result):
    gamma = args[0]
    return {"closure_actions": len(gamma.arguments() | gamma.results())}


def _count_components(args, result):
    return {"components": result.count}


def _count_bisim(args, result):
    return {
        "witness_pairs": len(result.witness_relation or ()),
        "blocks": len(set(result.partition)),
    }


def _count_minimized(args, result):
    return {"states_out": result.n_states}


def _count_expr_nodes(args, result):
    return {"expr_nodes": sum(1 for _ in subterms(result.expression))}


# (module, attribute, span name, counter).  A name bound in a second module
# keeps the span name of the module that defines it, except render_expression
# inside semantics, which is reported on its own: those are the renders made
# while deriving an automaton.
WRAPPED = (
    ("syntax", "parse_expression", "syntax.parse_expression", None),
    ("syntax", "render_expression", "syntax.render_expression", None),
    ("syntax", "validate_comm_fn", "syntax.validate_comm_fn", _count_closure),
    ("syntax", "load_comm_fn", "syntax.load_comm_fn", None),
    ("syntax", "dump_comm_fn", "syntax.dump_comm_fn", None),
    ("syntax", "classify_theory", "syntax.classify_theory", None),
    ("semantics", "derive_automaton", "semantics.derive_automaton", _count_automaton),
    ("semantics", "render_expression", "semantics.render_expression", None),
    ("semantics", "automaton_to_json", "semantics.automaton_to_json", _count_json_bytes),
    ("semantics", "automaton_from_json", "semantics.automaton_from_json", None),
    ("analysis", "scc_decompose", "analysis.scc_decompose", _count_components),
    ("analysis", "normed_states", "analysis.normed_states", None),
    ("analysis", "exit_transitions", "analysis.exit_transitions", None),
    ("analysis", "normed_exit_transitions", "analysis.normed_exit_transitions", None),
    ("analysis", "alive_exit_states", "analysis.alive_exit_states", None),
    ("analysis", "check_bpa_property", "analysis.check_bpa_property", None),
    ("analysis", "check_pa_property", "analysis.check_pa_property", None),
    ("analysis", "oc_measure", "analysis.oc_measure", None),
    ("equivalence", "bisimilar", "equivalence.bisimilar", _count_bisim),
    ("equivalence", "minimize", "equivalence.minimize", _count_minimized),
    ("equivalence", "isomorphic", "equivalence.isomorphic", None),
    ("encoding", "encode_fa", "encoding.encode_fa", _count_expr_nodes),
    ("encoding", "verify_encoding", "encoding.verify_encoding", None),
    ("encoding", "derive_automaton", "semantics.derive_automaton", _count_automaton),
    ("encoding", "isomorphic", "equivalence.isomorphic", None),
)

JOB_SPAN = "job"
LAYERS = ("syntax", "semantics", "analysis", "equivalence", "encoding")


class Tracer:
    """Collects spans for the jobs run between ``install`` and ``uninstall``.

    Calls made while no job is open (input building, output checks) pass
    straight through and are not recorded.
    """

    def __init__(self, keep: int):
        self.keep = keep
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.dropped = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.jobs = 0
        self.job_s = 0.0
        self.gc_pause_s = 0.0
        self.gc_collections = 0
        self._stack: list[list] = []  # open spans: [span id, time covered by children]
        self._next_id = 0
        self._job = -1
        self._gc_started: float | None = None
        self._originals: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, name, count in WRAPPED:
            module = importlib.import_module(f"starpar.{module_name}")
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, count))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    # -- spans -------------------------------------------------------------

    def _open(self) -> tuple[list, int]:
        parent = self._stack[-1][0] if self._stack else -1
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame, parent

    def _close(self, name: str, frame: list, parent: int, start: float, end: float) -> None:
        self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][1] += duration
        self.calls[name] += 1
        self.self_s[name] += duration - frame[1]
        if len(self.spans) < self.keep:
            self.spans.append((frame[0], parent, self._job, name, start, end))
        else:
            self.dropped += 1

    def _wrap(self, fn, name: str, count):
        counts = self.counts
        prefix = name + "."

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            frame, parent = self._open()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._close(name, frame, parent, start, end)
            if count is not None:
                for key, value in count(args, result).items():
                    counts[prefix + key] += value
                # Counting is tracing work: keep it out of the caller's self time.
                if self._stack:
                    self._stack[-1][1] += perf_counter() - end
            return result

        return traced

    def run_job(self, job_id: int, job, inp):
        """Run one job as the root span ``job`` and return its result."""
        self._job = job_id
        frame, parent = self._open()
        start = perf_counter()
        try:
            return job(inp)
        finally:
            end = perf_counter()
            self._close(JOB_SPAN, frame, parent, start, end)
            self._job = -1
            self.jobs += 1
            self.job_s += end - start

    def _on_gc(self, phase: str, info: dict) -> None:
        if not self._stack:
            return
        if phase == "start":
            self._gc_started = perf_counter()
        elif self._gc_started is not None:
            self.gc_pause_s += perf_counter() - self._gc_started
            self.gc_collections += 1
            self._gc_started = None

    # -- results -----------------------------------------------------------

    def layer_shares(self) -> dict[str, float]:
        """Percent of traced job time spent in each layer's own code; the
        benchmark's job code between library calls is ``bench``."""
        shares = {layer: 0.0 for layer in LAYERS + ("bench",)}
        for name, seconds in self.self_s.items():
            layer = "bench" if name == JOB_SPAN else name.split(".", 1)[0]
            shares[layer] += seconds
        total = self.job_s or 1.0
        return {layer: 100.0 * seconds / total for layer, seconds in shares.items()}

    def per_job(self) -> dict[str, float]:
        """Every span's calls and self time and every counter, per traced job."""
        jobs = self.jobs or 1
        values: dict[str, float] = {}
        for name in self.calls:
            values[f"{name}.calls"] = self.calls[name] / jobs
            values[f"{name}.self_s"] = self.self_s[name] / jobs
        for name, total in self.counts.items():
            values[name] = total / jobs
        values["runtime.gc.pause_s"] = self.gc_pause_s / jobs
        values["runtime.gc.collections"] = self.gc_collections / jobs
        return values
