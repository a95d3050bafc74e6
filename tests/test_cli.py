import contextlib
import io
import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from starpar import (
    automaton_from_json,
    automaton_to_json,
    derive_automaton,
    encode_fa,
    parse_expression,
    render_expression,
)
from starpar.cli import run
from tests.corpus import connected_fa
from tests.samples import INTERLEAVED_LOOP_EXPR, COMMUNICATING_LOOP_EXPR, four_state_fa, communicating_gamma


def _right_chain(n: int) -> str:
    """``a0.(a1.(….a(n-1)))``: n actions, nested n - 1 levels deep."""
    return ".(".join(f"a{i}" for i in range(n)) + ")" * (n - 1)


def _write_interleaved_loop(tmp_path):
    auto = derive_automaton(parse_expression(INTERLEAVED_LOOP_EXPR))
    path = tmp_path / "interleaved.json"
    path.write_text(automaton_to_json(auto))
    return path


def _write_four_state_fa(tmp_path):
    path = tmp_path / "fa.json"
    path.write_text(automaton_to_json(four_state_fa()))
    return path


class TestLts:
    def test_json_output_round_trips(self, capsys):
        assert run(["lts", "-e", "0"]) == 0
        out = capsys.readouterr().out
        auto = automaton_from_json(out)
        assert auto.n_states == 1 and auto.transitions == ()

    def test_byte_stable(self, capsys):
        assert run(["lts", "-e", COMMUNICATING_LOOP_EXPR.replace(" ", "")]) == 0
        first = capsys.readouterr().out
        assert run(["lts", "-e", COMMUNICATING_LOOP_EXPR.replace(" ", "")]) == 0
        assert capsys.readouterr().out == first

    def test_gamma_file(self, tmp_path, capsys):
        gamma_path = tmp_path / "gamma.txt"
        gamma_path.write_text("b c -> e\n")
        assert run(["lts", "-e", COMMUNICATING_LOOP_EXPR, "--gamma", str(gamma_path)]) == 0
        auto = automaton_from_json(capsys.readouterr().out)
        assert auto.n_states == 6
        assert derive_automaton(parse_expression(COMMUNICATING_LOOP_EXPR), communicating_gamma()) == auto

    def test_dot_format(self, capsys):
        assert run(["lts", "-e", "a", "--format", "dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph") and "doublecircle" in out

    def test_expression_file(self, tmp_path, capsys):
        path = tmp_path / "expr.txt"
        path.write_text(INTERLEAVED_LOOP_EXPR + "\n")
        assert run(["lts", "--expr-file", str(path)]) == 0
        assert automaton_from_json(capsys.readouterr().out).n_states == 4

    def test_state_limit_exit_code(self, capsys):
        assert run(["lts", "-e", "a.b.c", "--max-states", "2"]) == 3
        capsys.readouterr()
        assert run(["lts", "-e", "a", "--max-states", "0"]) == 2
        assert capsys.readouterr().err == "error: max_states must be positive\n"

    def test_state_limit_says_how_far_derive_got(self, capsys):
        assert run(["lts", "-e", "a || b || c", "--max-states", "3"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: state limit of 3 exceeded: 1 expanded, 2 queued\n"

    def test_deep_nesting_exit_code(self, tmp_path, capsys):
        """Too deep to derive or to render: exit 3 and one error line, no
        traceback.  Parentheses alone nest to any depth."""
        path = tmp_path / "chain.txt"
        path.write_text(".".join(f"a{i}" for i in range(3000)) + "\n")
        for argv in (["lts", "-e", _right_chain(1200)], ["lts", "--expr-file", str(path)]):
            assert run(argv) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: expression nested too deeply\n"
        assert run(["lts", "-e", "a"]) == 0
        plain = capsys.readouterr()
        assert run(["lts", "-e", "(" * 1200 + "a" + ")" * 1200]) == 0
        assert capsys.readouterr() == plain

    def test_wide_chain_exit_code(self, tmp_path, capsys):
        path = tmp_path / "wide.txt"
        path.write_text("||".join(f"a{i}" for i in range(3000)) + "\n")
        assert run(["lts", "--max-states", "10", "--expr-file", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: state limit of 10 exceeded: 1 expanded, 9 queued\n"

    def test_parse_error_exit_code(self, capsys):
        assert run(["lts", "-e", "a +"]) == 2

    def test_missing_file_exit_code(self, capsys):
        assert run(["lts", "--expr-file", "/nonexistent/expr.txt"]) == 2


class TestBisim:
    def test_bisimilar_exit_zero(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(automaton_to_json(derive_automaton(parse_expression("a+a"))))
        b.write_text(automaton_to_json(derive_automaton(parse_expression("a"))))
        assert run(["bisim", str(a), str(b)]) == 0
        assert capsys.readouterr().out == "bisimilar\n"

    def test_not_bisimilar_exit_one(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(automaton_to_json(derive_automaton(parse_expression("a.(b+c)"))))
        b.write_text(automaton_to_json(derive_automaton(parse_expression("a.b+a.c"))))
        assert run(["bisim", str(a), str(b)]) == 1
        assert capsys.readouterr().out == "not bisimilar\n"

    def test_json_output(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        a.write_text(automaton_to_json(derive_automaton(parse_expression("a"))))
        assert run(["bisim", str(a), str(a), "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["bisimilar"] is True
        assert [0, 0] in obj["witness_relation"]


class TestMinimizeAndScc:
    def test_minimize_output_is_readable_and_bisimilar(self, tmp_path, capsys):
        src = tmp_path / "a.json"
        src.write_text(
            automaton_to_json(derive_automaton(parse_expression("1.(a.(a+1))*.b")))
        )
        assert run(["minimize", str(src)]) == 0
        reduced = tmp_path / "m.json"
        reduced.write_text(capsys.readouterr().out)
        assert automaton_from_json(reduced.read_text()).n_states == 2
        assert run(["bisim", str(src), str(reduced)]) == 0

    def test_scc_human_and_json(self, tmp_path, capsys):
        path = _write_interleaved_loop(tmp_path)
        assert run(["scc", str(path)]) == 0
        human = capsys.readouterr().out
        assert "non-trivial" in human
        assert run(["scc", str(path), "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert sorted(len(c["states"]) for c in obj["components"]) == [2, 2]


class TestCheck:
    def test_bpa_failure_names_the_component(self, tmp_path, capsys):
        path = _write_interleaved_loop(tmp_path)
        assert run(["check", "--property", "bpa", str(path)]) == 1
        out = capsys.readouterr().out
        assert "property bpa: fail" in out
        assert "states 0, 1" in out

    def test_pa_passes_on_interleaved_loop(self, tmp_path, capsys):
        path = _write_interleaved_loop(tmp_path)
        assert run(["check", "--property", "pa", str(path)]) == 0
        assert "property pa: pass" in capsys.readouterr().out

    def test_json_report(self, tmp_path, capsys):
        path = _write_interleaved_loop(tmp_path)
        assert run(["check", "--property", "bpa", str(path), "--json"]) == 1
        obj = json.loads(capsys.readouterr().out)
        assert obj["verdict"] == "fail"
        assert obj["witnesses"][0]["states"] == [0, 1]


class TestScalars:
    def test_oc(self, capsys):
        assert run(["oc", "-e", "(a+b).c"]) == 0
        assert capsys.readouterr().out == "2\n"
        assert run(["oc", "-e", "(a+b).c", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"oc": 2}

    def test_oc_on_a_long_flat_chain(self, tmp_path, capsys):
        """3 000 left-nested ``+`` levels: ``oc`` answers as ``classify`` does."""
        path = tmp_path / "chain.txt"
        path.write_text("+".join(["a"] * 3000) + "\n")
        assert run(["oc", "--expr-file", str(path)]) == 0
        assert capsys.readouterr().out == "3000\n"
        assert run(["classify", "--expr-file", str(path)]) == 0
        assert capsys.readouterr().out == "BPA\n"

    def test_oc_and_classify_on_a_deep_chain(self, tmp_path, capsys):
        """A 5 000-level right-nested ``.`` chain parses, and neither
        ``oc`` nor ``classify`` recurses down it."""
        path = tmp_path / "chain.txt"
        path.write_text(_right_chain(5000) + "\n")
        assert run(["oc", "--expr-file", str(path)]) == 0
        assert capsys.readouterr().out == "5000\n"
        assert run(["classify", "--expr-file", str(path)]) == 0
        assert capsys.readouterr().out == "BPA\n"

    def test_oc_rejects_encapsulation(self, capsys):
        assert run(["oc", "-e", "encap{a}(a)"]) == 2

    def test_classify(self, capsys):
        assert run(["classify", "-e", "1.(a.b)* || c"]) == 0
        assert capsys.readouterr().out == "PA\n"

    def test_classify_json(self, capsys):
        assert run(["classify", "-e", "encap{a}(a)", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"theory": "ACP"}


class TestEncode:
    def test_encode_emits_consistent_artifacts(self, tmp_path, capsys):
        fa_path = _write_four_state_fa(tmp_path)
        out_dir = tmp_path / "enc"
        assert run(["encode", str(fa_path), "-o", str(out_dir)]) == 0
        expression = parse_expression((out_dir / "expression.txt").read_text())
        from starpar import isomorphic, load_comm_fn

        gamma = load_comm_fn((out_dir / "gamma.txt").read_text())
        derived = derive_automaton(expression, gamma)
        assert isomorphic(four_state_fa(), derived).isomorphic
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["states"] == 4

    def test_verify_encoding_sample(self, tmp_path, capsys):
        fa_path = _write_four_state_fa(tmp_path)
        assert run(["verify-encoding", str(fa_path)]) == 0
        assert capsys.readouterr().out == "isomorphic (4 states)\n"

    def test_verify_encoding_json(self, tmp_path, capsys):
        fa_path = _write_four_state_fa(tmp_path)
        assert run(["verify-encoding", str(fa_path), "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["isomorphic"] is True and len(obj["mapping"]) == 4

    def test_verify_encoding_state_cap_exit_code(self, tmp_path, capsys):
        fa_path = _write_four_state_fa(tmp_path)
        assert run(["verify-encoding", str(fa_path), "--max-states", "2"]) == 3
        capsys.readouterr()
        assert run(["verify-encoding", str(fa_path), "--max-states", "0"]) == 2
        assert capsys.readouterr().err == "error: max_states must be positive\n"

    def test_encode_rejects_unreachable(self, tmp_path, capsys):
        bad = {
            "states": [
                {"id": 0, "terminating": False},
                {"id": 1, "terminating": False},
            ],
            "initial": 0,
            "transitions": [],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert run(["encode", str(path), "-o", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("n", [1_100, 2_000])
    def test_encode_writes_a_wide_spine(self, n, tmp_path, capsys):
        """The encoding is one ``encap`` over an ``n``-wide ``||`` chain, and
        its text is written whole: no recursion runs down the spine.  Text
        is compared, since ``==`` on these trees recurses."""
        fa = connected_fa(random.Random(n), n, 2)
        path = tmp_path / "fa.json"
        path.write_text(automaton_to_json(fa))
        assert run(["encode", str(path), "-o", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == ""
        text = (tmp_path / "out" / "expression.txt").read_text()
        assert text == render_expression(encode_fa(fa).expression) + "\n"
        assert render_expression(parse_expression(text)) + "\n" == text


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_missing_required_flag(self, capsys):
        assert run(["check", "somefile.json"]) == 2

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0

    def test_malformed_automaton_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{\"nope\": 1}")
        assert run(["scc", str(path)]) == 2

    def test_deeply_nested_automaton_json(self, tmp_path, capsys):
        """JSON too deep for the decoder is a format error, not a nesting limit."""
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        assert run(["scc", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: invalid JSON: nested too deeply\n"

    def test_boolean_state_ids_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"states":[{"id":0,"terminating":"no"},{"id":1}],"initial":true,'
            '"transitions":[{"from":false,"action":"a","to":true}]}'
        )
        assert run(["scc", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_invalid_gamma_reported(self, tmp_path, capsys):
        gamma_path = tmp_path / "gamma.txt"
        gamma_path.write_text("a b -> c\nc d -> e\nb d -> x\n")
        # that table is not associative, so lts refuses it
        assert run(["lts", "-e", "a||b", "--gamma", str(gamma_path)]) == 2


_GAMMA_NAMES = st.sampled_from(["a", "b", "c", "d", "encap", "_", "a1"])
_GAMMA_TOKENS = st.sampled_from(
    ["a", "b", "c", "encap", "9", " ", "\t", "->", "-", ">", "#", "\n", "\r", "\x0b", "\u2028", "é"]
)
_GAMMA_FILES = st.one_of(
    st.binary(),
    st.text().map(str.encode),
    st.lists(_GAMMA_TOKENS).map(lambda tokens: "".join(tokens).encode()),
    st.lists(st.tuples(_GAMMA_NAMES, _GAMMA_NAMES, _GAMMA_NAMES), max_size=8).map(
        lambda rules: "".join(f"{a} {b} -> {c}\n" for a, b, c in rules).encode()
    ),
)


@settings(max_examples=200, deadline=None)
@given(_GAMMA_FILES)
def test_malformed_gamma_file_exits_cleanly(data):
    """Any gamma file gives exit 0, or exit 2 with one ``error:`` line, never a
    traceback; rule lists over a few names reach both accepted and
    non-associative tables."""
    with tempfile.TemporaryDirectory() as tmp:
        gamma_path = Path(tmp) / "gamma.txt"
        gamma_path.write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(["lts", "-e", "a||b", "--gamma", str(gamma_path)])
    assert code in (0, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
        assert len(err.getvalue().splitlines()) == 1 and err.getvalue().endswith("\n")
    else:
        assert err.getvalue() == ""


_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2, 4), st.integers(), st.floats(),
              st.text(max_size=4)),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_ODD_VALUES = st.one_of(
    _JSON, st.sampled_from([-1, 4, 1.0, True, "0", "", "encap", "1a", "a b", [], {}])
)


@st.composite
def _near_valid_automata(draw):
    """A valid automaton dict of up to four states, then up to three edits:
    a key of the top level, a state or a transition dropped or replaced."""
    n = draw(st.integers(1, 4))
    states = [{"id": i, "terminating": draw(st.booleans())} for i in range(n)]
    transitions = [
        {"from": draw(st.integers(0, n - 1)), "action": draw(st.sampled_from("abc")),
         "to": draw(st.integers(0, n - 1))}
        for _ in range(draw(st.integers(0, 6)))
    ]
    obj = {"states": states, "initial": 0, "transitions": transitions}
    for _ in range(draw(st.integers(0, 3))):
        entry = draw(st.sampled_from([obj] + states + transitions))
        key = draw(st.sampled_from(sorted(entry) + ["label"]))
        if draw(st.booleans()):
            entry.pop(key, None)
        else:
            entry[key] = draw(_ODD_VALUES)
    return obj


def _run_on_automaton(obj) -> None:
    """Every automaton-reading command gives exit 0 or 1 with no stderr, or
    exit 2 or 3 with one ``error:`` line, never a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "a.json"
        path.write_text(json.dumps(obj))
        for argv in (
            ["scc", str(path)],
            ["check", "--property", "pa", str(path)],
            ["minimize", str(path)],
            ["encode", str(path), "-o", str(Path(tmp) / "out")],
            ["verify-encoding", str(path), "--max-states", "200"],
        ):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = run(argv)
            assert code in (0, 1, 2, 3), argv
            if code in (0, 1):
                assert err.getvalue() == "", argv
            else:
                assert err.getvalue().startswith("error: "), argv
                assert len(err.getvalue().splitlines()) == 1 and err.getvalue().endswith("\n")


@settings(max_examples=40, deadline=None)
@given(_JSON)
def test_arbitrary_json_automaton_exits_cleanly(obj):
    _run_on_automaton(obj)


@settings(max_examples=80, deadline=None)
@given(_near_valid_automata())
def test_near_valid_automaton_exits_cleanly(obj):
    _run_on_automaton(obj)
