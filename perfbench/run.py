#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the starpar pipeline.

    python3 perfbench/run.py --workload interleave|pool|encode|all \
        --seed N --seconds S --trace 0|1

Run from the repository root.  One process runs one workload as a closed
loop with a single client: one job at a time, no threads.  A workload is a
fixed list of slots drawn from the seed (see ``workloads.py``).  The run
makes whole passes over the slots, at least ``MIN_PASSES`` and as many as
end within ``--seconds``; each pass gives every slot a fresh variant, the
slot's input with its actions renamed.  Only the jobs are timed; building
their inputs and checking their outputs against known answers happen
between them, off the clock.  A job that raises or fails its check counts
as failed and the run goes on.

Timings are given at a reference host speed.  A fixed calibration loop
that runs no starpar code is timed between jobs, at most every
``CALIBRATE_EVERY_S``, and each job's time is scaled by ``REF_LOOP_S`` over
the loop's time, the mean of its latest timings before and after the job.
On a shared host whose speed swings by up to 1.8x for seconds to minutes at
a time, ten runs of a workload then spread by a few percent where their
wall-clock rates spread by 12 to 20 percent (see README.md).  A slot's job
time is the median of its scaled times over the passes.  The row printed
for a workload also gives the wall-clock rate.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every
pass twice, once plain and once with every public library function
wrapped in a span (``tracing.py``), and reports the per-layer metrics per
traced job, each layer's share of traced job time and the tracing
overhead; it writes the report and the spans under ``perfbench/out/``.
``--workload all`` runs each workload in its own process and prints one row
per workload.  The last line of the output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import traceback
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("interleave", "pool", "encode")
SETUP_REPEATS = 3  # before the first pass; one more after every pass
MIN_PASSES = 2
TAIL_PERCENTILE_CAP = 95
# The calibration loop's time on the 2-vCPU virtual machine the benchmark
# was sized on, when that host ran at full speed.
REF_LOOP_S = 0.00055
CALIBRATE_EVERY_S = 0.25
WALL_LIMIT_S = 120.0  # start no pass after this; a run must end within 180 s
KEEP_SPANS = 200_000

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

_SELF = "s/job"
_COUNT = "count/job"
PER_LAYER = {
    "semantics.derive_automaton.calls": _COUNT,
    "semantics.derive_automaton.self_s": _SELF,
    "semantics.derive_automaton.states": _COUNT,
    "semantics.derive_automaton.transitions": _COUNT,
    "semantics.render_expression.calls": _COUNT,
    "semantics.render_expression.self_s": _SELF,
    "semantics.automaton_to_json.self_s": _SELF,
    "semantics.automaton_to_json.bytes": "B/job",
    "semantics.automaton_from_json.self_s": _SELF,
    "syntax.parse_expression.self_s": _SELF,
    "syntax.validate_comm_fn.self_s": _SELF,
    "syntax.validate_comm_fn.closure_actions": _COUNT,
    "analysis.scc_decompose.self_s": _SELF,
    "analysis.scc_decompose.components": _COUNT,
    "analysis.normed_states.self_s": _SELF,
    "analysis.check_bpa_property.self_s": _SELF,
    "analysis.check_pa_property.self_s": _SELF,
    "analysis.exit_transitions.calls": _COUNT,
    "analysis.exit_transitions.self_s": _SELF,
    "analysis.normed_exit_transitions.calls": _COUNT,
    "equivalence.bisimilar.self_s": _SELF,
    "equivalence.bisimilar.witness_pairs": _COUNT,
    "equivalence.bisimilar.blocks": _COUNT,
    "equivalence.minimize.self_s": _SELF,
    "equivalence.minimize.states_out": _COUNT,
    "equivalence.isomorphic.self_s": _SELF,
    "encoding.encode_fa.self_s": _SELF,
    "encoding.encode_fa.expr_nodes": _COUNT,
    "encoding.verify_encoding.self_s": _SELF,
    "runtime.gc.pause_s": _SELF,
    "runtime.gc.collections": _COUNT,
    "trace.overhead_ratio": "ratio",
    "layer_share.syntax": "%",
    "layer_share.semantics": "%",
    "layer_share.analysis": "%",
    "layer_share.equivalence": "%",
    "layer_share.encoding": "%",
    "layer_share.bench": "%",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test input sizes")
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def tail_percentile(latencies: list[float]) -> tuple[int, float]:
    """The highest whole percentile with at least ten values beyond it,
    capped at p95, and its nearest-rank value.  Above p95 the pool
    workload's tail is set by the few largest expressions a seed draws:
    across seeds its p99 spread 20 %, against 8 % at p95."""
    n = len(latencies)
    p = min(TAIL_PERCENTILE_CAP, 100 * (n - 10) // n) if n > 10 else 0
    rank = max(1, math.ceil(p * n / 100))
    return p, sorted(latencies)[rank - 1]


def _calibration_loop() -> list:
    table: dict[tuple[int, int], int] = {}
    for i in range(1500):
        key = (i & 63, i % 7)
        table[key] = table.get(key, 0) + i
        str(i)
    return sorted(table.items())


class Calibration:
    """The host's current speed, from timings of the calibration loop."""

    def __init__(self):
        self.loop_s: list[float] = []
        self._at = -math.inf

    def loop_seconds(self, fresh: bool = False) -> float:
        """The loop's latest time, timing the loop again if that is older
        than ``CALIBRATE_EVERY_S`` or ``fresh`` is set."""
        if fresh or perf_counter() - self._at > CALIBRATE_EVERY_S:
            enabled = gc.isenabled()
            gc.disable()  # so that the program's heap does not slow the loop
            try:
                best = math.inf
                for _ in range(2):
                    start = perf_counter()
                    _calibration_loop()
                    best = min(best, perf_counter() - start)
            finally:
                if enabled:
                    gc.enable()
            self.loop_s.append(best)
            self._at = perf_counter()
        return self.loop_s[-1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def import_seconds() -> float:
    """Time to import starpar in a fresh interpreter."""
    code = (
        "import sys, time\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "start = time.perf_counter()\n"
        "import starpar\n"
        "print(time.perf_counter() - start)\n"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-c", code, str(SRC)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return float(done.stdout)


def set_up(workload, seed: int, tiny: bool) -> tuple[float, list, list]:
    """One set-up: import starpar in a fresh interpreter, then build the
    slots and the first pass's inputs.  Returns its seconds, the slots and
    the inputs."""
    import_s = import_seconds()
    start = perf_counter()
    slots = workload.make_slots(seed, tiny)
    first = pass_inputs(workload, slots, 0)
    return import_s + perf_counter() - start, slots, first


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------


class Run:
    """Jobs of one workload: the times of each slot's jobs, failures and sizes."""

    def __init__(self, workload):
        self.workload = workload
        # slot -> scaled times of its jobs that passed; arrays, so that the
        # run's memory does not grow with the number of passes
        self.scaled: dict[int, array] = {}
        self.completed = 0
        self.attempted = 0
        self.failed = 0
        self.errors: Counter[str] = Counter()
        self.states = 0
        self.transitions = 0
        self.max_states = 0
        self.passes = 0

    def run_one(self, slot: int, inp, timed_job, calibration: Calibration) -> float:
        self.attempted += 1
        loop_before = calibration.loop_seconds()
        start = perf_counter()
        try:
            out = timed_job(inp)
        except Exception as exc:  # a failed job is counted, and the run goes on
            elapsed = perf_counter() - start
            self._fail(type(exc).__name__, exc)
            return elapsed
        elapsed = perf_counter() - start
        scale = 2 * REF_LOOP_S / (loop_before + calibration.loop_seconds())
        try:
            problems = self.workload.check(inp, out)
            states, transitions = self.workload.size(inp, out)
        except Exception as exc:
            self._fail(f"check {type(exc).__name__}", exc)
            return elapsed
        if problems:
            self._fail("wrong answer", "; ".join(problems))
            return elapsed
        self.scaled.setdefault(slot, array("d")).append(elapsed * scale)
        self.completed += 1
        self.states += states
        self.transitions += transitions
        self.max_states = max(self.max_states, states)
        return elapsed

    def _fail(self, kind: str, detail) -> None:
        if not self.errors:
            print(f"first failure in {self.workload.name}: {kind}: {detail}", file=sys.stderr)
            if isinstance(detail, BaseException):
                traceback.print_exception(detail, file=sys.stderr)
        self.failed += 1
        self.errors[kind] += 1

    def sizes(self) -> str:
        n = max(1, self.completed)
        return (
            f"{len(self.scaled)} slots x {self.passes} passes, {self.states / n:.0f} states and "
            f"{self.transitions / n:.0f} transitions per job, largest {self.max_states} states"
        )


def pass_inputs(workload, slots: list, number: int) -> list:
    """Inputs of pass ``number``; job numbers, and so variants, never repeat."""
    base = number * len(slots)
    return [workload.variant(slot, base + i) for i, slot in enumerate(slots)]


def measure(workload, slots: list, first: list, seconds: float, tracer, calibration,
            between_passes) -> tuple[Run, float, float]:
    """Make whole passes over ``slots``, at least ``MIN_PASSES`` and as many
    as end within ``seconds``; ``first`` holds the first pass's inputs.
    ``between_passes`` is called, off the clock, after every pass.  Returns
    the run and the plain and traced timed seconds."""
    run = Run(workload)
    plain_s = traced_s = 0.0
    wall_start = perf_counter()
    last_pass_wall = 0.0
    while True:
        elapsed = perf_counter() - wall_start
        if run.passes >= MIN_PASSES and (
            elapsed + last_pass_wall > seconds or elapsed > WALL_LIMIT_S
        ):
            break
        pass_start = perf_counter()
        base = run.passes * len(slots)
        inputs = first if run.passes == 0 else pass_inputs(workload, slots, run.passes)
        order = (False,) if tracer is None else ((False, True) if run.passes % 2 == 0 else (True, False))
        for traced in order:
            if traced:
                tracer.install()
            try:
                for i, inp in enumerate(inputs):
                    if traced:
                        traced_s += run.run_one(
                            i, inp, lambda x, j=base + i: tracer.run_job(j, workload.job, x),
                            calibration,
                        )
                    else:
                        plain_s += run.run_one(i, inp, workload.job, calibration)
            finally:
                if traced:
                    tracer.uninstall()
        run.passes += 1
        between_passes()
        last_pass_wall = perf_counter() - pass_start
    return run, plain_s, traced_s


def run_workload(args: argparse.Namespace) -> int:
    wall_start = perf_counter()
    sys.path.insert(0, str(SRC))
    import starpar

    if Path(starpar.__file__).resolve().parent != (SRC / "starpar").resolve():
        print(f"error: imported starpar from {starpar.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from tracing import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    calibration = Calibration()
    # Set-up samples are taken before the first pass and after every pass,
    # so that their median covers the whole run, not its first second.
    setups = []

    def sample_setup() -> tuple[list, list]:
        loop_before = calibration.loop_seconds(fresh=True)
        seconds, slots, first = set_up(workload, args.seed, args.tiny)
        loop_after = calibration.loop_seconds(fresh=True)
        setups.append(seconds * 2 * REF_LOOP_S / (loop_before + loop_after))
        return slots, first

    for _ in range(SETUP_REPEATS):
        slots, first = sample_setup()

    tracer = Tracer(KEEP_SPANS) if args.trace else None
    run, plain_s, traced_s = measure(
        workload, slots, first, args.seconds, tracer, calibration, sample_setup
    )
    setup_s = statistics.median(setups)
    fail_ratio = run.failed / run.attempted
    errors = ", ".join(f"{kind} x{n}" for kind, n in sorted(run.errors.items())) or "none"
    times = [statistics.median(t) for t in run.scaled.values()]

    if tracer is None:
        p, tail = tail_percentile(times) if times else (0, math.nan)
        values = {
            "setup_s": setup_s,
            "jobs_per_s": len(times) / sum(times) if times else 0.0,
            "job_p50_ms": statistics.median(times) * 1e3 if times else math.nan,
            "job_tail_ms": tail * 1e3,
            "peak_rss_mb": peak_rss_mb(),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        print(
            f"{args.workload:<10} seed={args.seed} setup_s={setup_s:.4f} s "
            f"(median of {len(setups)}) jobs_per_s={values['jobs_per_s']:.4f} 1/s "
            f"job_p50_ms={values['job_p50_ms']:.3f} ms "
            f"job_tail_ms={values['job_tail_ms']:.3f} ms (p{p} of {len(times)} slots) "
            f"peak_rss_mb={values['peak_rss_mb']:.1f} MB "
            f"fail_ratio={fail_ratio:g} ({run.failed}/{run.attempted}; errors: {errors}) "
            f"timed_s={plain_s:.2f} sizes: {run.sizes()}; "
            f"wall clock: jobs_per_s={run.completed / plain_s:.4f} 1/s over all jobs, "
            f"calibration loop {statistics.median(calibration.loop_s) * 1e3:.3f} ms median "
            f"over {len(calibration.loop_s)} timings (reference {REF_LOOP_S * 1e3:.3f} ms)"
        )
    else:
        values = tracer.per_job()
        values["trace.overhead_ratio"] = traced_s / plain_s
        shares = tracer.layer_shares()
        for layer, share in shares.items():
            values[f"layer_share.{layer}"] = share
        metrics = {
            name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in PER_LAYER.items()
        }
        report_path = write_trace(args, tracer, values, run)
        print(
            f"{args.workload:<10} seed={args.seed} traced jobs={tracer.jobs} "
            f"overhead_ratio={values['trace.overhead_ratio']:.3f} "
            f"fail_ratio={fail_ratio:g} ({run.failed}/{run.attempted}; errors: {errors}) "
            f"sizes: {run.sizes()}"
        )
        print(
            f"{args.workload:<10} share of traced job time: "
            + "  ".join(f"{layer} {share:.1f}%" for layer, share in
                        sorted(shares.items(), key=lambda item: -item[1]))
        )
        print(f"{args.workload:<10} trace report: {report_path.relative_to(HERE.parent)}")

    print(
        f"{args.workload:<10} wall_s={perf_counter() - wall_start:.1f} "
        f"timed_s={plain_s + traced_s:.2f} passes={run.passes}",
        file=sys.stderr,
    )
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def write_trace(args, tracer, values: dict[str, float], run: Run) -> Path:
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    spans_path = OUT / f"spans-{stem}.jsonl"
    with spans_path.open("w") as f:
        for span in tracer.spans:
            f.write(json.dumps(dict(zip(("id", "parent", "job", "name", "start", "end"), span))))
            f.write("\n")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced_jobs": tracer.jobs,
        "attempted": run.attempted,
        "failed": run.failed,
        "passes": run.passes,
        "spans_kept": len(tracer.spans),
        "spans_dropped": tracer.dropped,
        "spans_file": spans_path.name,
        "per_job": dict(sorted(values.items())),
    }
    report_path = OUT / f"trace-{stem}.json"
    report_path.write_text(json.dumps(report, indent=2) + "\n")
    return report_path


# ---------------------------------------------------------------------------
# All workloads
# ---------------------------------------------------------------------------


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, so peak_rss_mb is that workload's."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ] + (["--tiny"] if args.tiny else [])
        done = subprocess.run(command, capture_output=True, text=True, timeout=240)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"error: workload {name} exited with code {done.returncode}", file=sys.stderr)
            return done.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{key}": value for key, value in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "starpar" / "__init__.py").is_file():
        print(f"error: no starpar sources in {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
