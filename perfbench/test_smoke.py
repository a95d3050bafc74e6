"""Smoke test of the benchmark at tiny input sizes.

    python3 -m pytest -q perfbench/test_smoke.py

It checks that each workload prints every metric BENCHMARK.json names, with
its unit, that no job fails, that the hand-worked shape table of the
interleave workload matches the derived automata, and that the benchmark
refuses to run without the library's sources.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def tiny(workload: str, trace: int) -> subprocess.CompletedProcess:
    return bench("--workload", workload, "--seed", "3", "--seconds", "0.3",
                 "--trace", str(trace), "--tiny")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_and_no_job_fails(workload, trace):
    done = tiny(workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 20
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    row = lines[0]
    assert "seed=3 " in row
    assert "fail_ratio=0 (0/" in row
    if not trace:
        for m in listed:
            assert f"{m['name']}=" in row
            assert result["metrics"][m["name"]]["value"] > 0


def test_all_prints_one_row_per_workload():
    done = bench("--workload", "all", "--seed", "4", "--seconds", "0.2", "--tiny")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    assert [line.split()[0] for line in lines[:-1]] == WORKLOADS
    result = json.loads(lines[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert len(result["metrics"]) == len(WORKLOADS) * len(BENCHMARK["end_to_end"])


def test_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout


@pytest.fixture()
def library():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    try:
        import workloads

        yield workloads
    finally:
        sys.path.remove(str(HERE))
        sys.path.remove(str(ROOT / "src"))


def test_shape_table_matches_derivation(library):
    from starpar import derive_automaton, minimize, parse_expression

    for template, slot_edges in library.SHAPES:
        a = derive_automaton(parse_expression(template.format(a="a", b="b", c="c", d="d")))
        assert a.n_states == library.SHAPE_STATES
        assert len(a.transitions) == library.SHAPE_TRANSITIONS
        assert len(a.terminating) == 1
        assert minimize(a).n_states == library.SHAPE_MIN_STATES
        per_slot = [sum(1 for t in a.transitions if t.action.name == s) for s in library.SLOTS]
        assert tuple(per_slot) == slot_edges


def test_state_bound_bounds_the_derived_states(library):
    from starpar import Theory, derive_automaton, generate_random_expression

    rng = random.Random(0)
    for i in range(300):
        theory = Theory.BPA if i % 2 else Theory.PA
        e = generate_random_expression(theory, 5, rng.randrange(2**32))
        assert derive_automaton(e).n_states <= library.state_bound(e)
