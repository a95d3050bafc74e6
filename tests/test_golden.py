"""Golden corpus: CLI output of ``lts``, ``check``, ``scc``, ``minimize``,
``bisim``, ``encode`` and ``verify-encoding``, byte for byte.

The files under ``tests/golden/`` hold the exact CLI output of a fixed set of
inputs, and each command's exit code is pinned beside it.  Every command here
must leave stderr empty, except the ``lts --gamma`` runs on non-associative
tables, whose one-line rejection message is pinned as a ``.stderr`` file.  They are the
reference: a change to derivation, analysis, refinement, isomorphism, rendering
or serialisation must reproduce them unchanged.  To capture a *new* case, add
it below and run ``python -m tests.test_golden --write`` from the repository
root; existing files are never overwritten.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

from starpar import automaton_to_json, dump_comm_fn
from starpar.cli import run
from tests.samples import (
    COMMUNICATING_LOOP_EXPR,
    CYCLE_COUNTEREXAMPLE_PAR,
    CYCLE_COUNTEREXAMPLE_SEQ,
    DEAD_BRANCH_LOOP_EXPR,
    INTERLEAVED_LOOP_EXPR,
    SHARED_EXIT_LOOP_EXPR,
    TWO_EXIT_LOOP_EXPR,
    communicating_gamma,
    four_state_fa,
    late_initial_automaton,
    looped_fa,
    scattered_automaton,
    two_way_cycle_automaton,
)

GOLDEN = Path(__file__).parent / "golden"

STAR_LOOPS_3 = "(a.b+c)*.d||(e.f)*.(g+h)||(i+j.k)*.l"

# name -> (expression, gamma file text or None)
LTS_CASES = {
    "two_exit_loop": (TWO_EXIT_LOOP_EXPR, None),
    "shared_exit_loop": (SHARED_EXIT_LOOP_EXPR, None),
    "dead_branch_loop": (DEAD_BRANCH_LOOP_EXPR, None),
    "interleaved_loop": (INTERLEAVED_LOOP_EXPR, None),
    "communicating_loop": (COMMUNICATING_LOOP_EXPR, None),
    "communicating_loop_gamma": (COMMUNICATING_LOOP_EXPR, dump_comm_fn(communicating_gamma())),
    "cycle_counterexample_seq": (CYCLE_COUNTEREXAMPLE_SEQ, None),
    "cycle_counterexample_par": (CYCLE_COUNTEREXAMPLE_PAR, None),
    "star_loops_3": (STAR_LOOPS_3, None),
    "star_loops_3_handshake": (STAR_LOOPS_3, "c f -> sync\n"),
}

# name -> hand-built automaton for the analysis files, in place of an ``lts``
# golden; these have unreachable states, state labels and an initial state
# other than 0, which no derived automaton has.
AUTOMATON_CASES = {
    "scattered": scattered_automaton,
    "late_initial": late_initial_automaton,
    "two_way_cycle": two_way_cycle_automaton,
}

# name -> exit codes of ``check --property bpa`` and ``check --property pa``
# on the case's automaton (1: the necessary condition fails).
CHECK_EXIT_CODES = {
    "two_exit_loop": (0, 0),
    "shared_exit_loop": (0, 0),
    "dead_branch_loop": (0, 0),
    "interleaved_loop": (1, 0),
    "communicating_loop": (1, 0),
    "communicating_loop_gamma": (1, 1),
    "cycle_counterexample_seq": (0, 0),
    "cycle_counterexample_par": (1, 0),
    "star_loops_3": (1, 0),
    "star_loops_3_handshake": (1, 1),
    "scattered": (0, 0),
    "late_initial": (0, 0),
    "two_way_cycle": (0, 0),
}

# name -> automaton pinned through ``encode``, ``lts`` of the encoding and
# ``verify-encoding``.
ENCODE_CASES = {
    "four_state_fa": four_state_fa,
    "looped_fa": looped_fa,
}

# name -> gamma file text that ``lts --gamma`` rejects as non-associative
# (exit 2).  ``a a -> b`` alone is associative (every triple is undefined on
# both sides), so the self-communication case adds ``b b -> c``.  The last
# table has 18 violations, some over ``c10`` and ``c9``, which sort as
# strings rather than as numbers, so it pins the order of the list.
REJECTED_GAMMAS = {
    "nonassociative_three_rules": "a b -> c\nc d -> e\nb d -> x\n",
    "self_communication": "a a -> b\nb b -> c\n",
    "many_violations": (
        "a b -> c10\nc10 d -> e\ne f -> Z\nb d -> c9\nc9 a -> e\nc10 c10 -> f\n"
    ),
}

ENCODE_FILES = ("expression.txt", "gamma.txt", "manifest.json")


def _run(argv: list[str], expected: int) -> tuple[str, str]:
    """Run the CLI in-process; returns (stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code == expected, f"starpar {' '.join(argv)} exited with {code}, not {expected}"
    return out.getvalue(), err.getvalue()


def _cli(argv: list[str], expected: int = 0) -> str:
    stdout, stderr = _run(argv, expected)
    assert stderr == "", f"starpar {' '.join(argv)} wrote to stderr: {stderr!r}"
    return stdout


def _lts(expr: str, gamma_path: Path | None, fmt: str) -> str:
    argv = ["lts", "-e", expr, "--format", fmt]
    if gamma_path is not None:
        argv += ["--gamma", str(gamma_path)]
    return _cli(argv)


def _lts_outputs(name: str, workdir: Path) -> dict[str, str]:
    expr, gamma = LTS_CASES[name]
    gamma_path = None
    if gamma is not None:
        gamma_path = workdir / f"{name}.gamma"
        gamma_path.write_text(gamma)
    return {f"{name}.{fmt}": _lts(expr, gamma_path, fmt) for fmt in ("json", "dot")}


def _analysis_outputs(name: str, workdir: Path) -> dict[str, str]:
    """``check``, ``scc``, ``minimize`` and ``bisim`` (against the case's own
    minimisation) on the hand-built automaton or the one the case's ``lts``
    golden pins."""
    automaton = workdir / f"{name}.json"
    if name in AUTOMATON_CASES:
        automaton.write_text(automaton_to_json(AUTOMATON_CASES[name]()))
    else:
        automaton.write_text(_golden(f"{name}.json"))
    bpa_code, pa_code = CHECK_EXIT_CODES[name]
    outputs = {
        "check_bpa.json": _cli(["check", "--property", "bpa", str(automaton), "--json"], bpa_code),
        "check_pa.json": _cli(["check", "--property", "pa", str(automaton), "--json"], pa_code),
        "scc.json": _cli(["scc", str(automaton), "--json"]),
        "minimize.json": _cli(["minimize", str(automaton)]),
    }
    minimal = workdir / f"{name}.min.json"
    minimal.write_text(outputs["minimize.json"])
    outputs["bisim.json"] = _cli(["bisim", str(automaton), str(minimal), "--json"])
    return {f"{name}/{kind}": text for kind, text in outputs.items()}


def _encode_outputs(name: str, workdir: Path) -> dict[str, str]:
    fa_path = workdir / f"{name}.json"
    fa_path.write_text(automaton_to_json(ENCODE_CASES[name]()))
    out_dir = workdir / f"{name}.encoded"
    _cli(["encode", str(fa_path), "-o", str(out_dir)])
    outputs = {f"{name}/{f}": (out_dir / f).read_text() for f in ENCODE_FILES}
    expr = outputs[f"{name}/expression.txt"].strip()
    gamma_path = out_dir / "gamma.txt"
    for fmt in ("json", "dot"):
        outputs[f"{name}/lts.{fmt}"] = _lts(expr, gamma_path, fmt)
    outputs[f"{name}/verify_encoding.json"] = _cli(["verify-encoding", str(fa_path), "--json"])
    return outputs


def _rejected_gamma_outputs(name: str, workdir: Path) -> dict[str, str]:
    gamma_path = workdir / f"{name}.gamma"
    gamma_path.write_text(REJECTED_GAMMAS[name])
    stdout, stderr = _run(["lts", "-e", "a||b", "--gamma", str(gamma_path)], 2)
    assert stdout == ""
    return {f"rejected_gamma/{name}.stderr": stderr}


def _golden(relative: str) -> str:
    return (GOLDEN / relative).read_bytes().decode()


@pytest.mark.parametrize("name", sorted(LTS_CASES))
def test_lts_output_matches_golden(name, tmp_path):
    for relative, text in _lts_outputs(name, tmp_path).items():
        assert text == _golden(relative), relative


@pytest.mark.parametrize("name", sorted(LTS_CASES) + sorted(AUTOMATON_CASES))
def test_analysis_output_matches_golden(name, tmp_path):
    for relative, text in _analysis_outputs(name, tmp_path).items():
        assert text == _golden(relative), relative


def test_encode_output_matches_golden(tmp_path):
    for name in ENCODE_CASES:
        for relative, text in _encode_outputs(name, tmp_path).items():
            assert text == _golden(relative), relative


@pytest.mark.parametrize("name", sorted(REJECTED_GAMMAS))
def test_rejected_gamma_matches_golden(name, tmp_path):
    for relative, text in _rejected_gamma_outputs(name, tmp_path).items():
        assert text == _golden(relative), relative


def _write_missing(workdir: Path) -> None:
    for name in LTS_CASES:
        _write_new(_lts_outputs(name, workdir))
        _write_new(_analysis_outputs(name, workdir))
    for name in AUTOMATON_CASES:
        _write_new(_analysis_outputs(name, workdir))
    for name in ENCODE_CASES:
        _write_new(_encode_outputs(name, workdir))
    for name in REJECTED_GAMMAS:
        _write_new(_rejected_gamma_outputs(name, workdir))


def _write_new(outputs: dict[str, str]) -> None:
    for relative, text in sorted(outputs.items()):
        path = GOLDEN / relative
        if path.exists():
            continue
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(text.encode())
        print(f"wrote {path}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.test_golden --write")
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        _write_missing(Path(tmp))
