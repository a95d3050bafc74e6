"""Command-line front end.

Exit codes: 0 success (property holds, bisimilar, isomorphic), 1 negative
verdict (property fails, not bisimilar, not isomorphic), 2 usage, parse or
format error, 3 state or nesting limit exceeded.  Identical invocations
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .analysis import (
    PropertyReport,
    check_bpa_property,
    check_pa_property,
    oc_measure,
    scc_decompose,
)
from .encoding import encode_fa, encoding_manifest, verify_encoding
from .equivalence import bisimilar, minimize
from .semantics import (
    DEFAULT_MAX_STATES,
    StateLimitExceeded,
    automaton_from_json,
    automaton_to_dot,
    automaton_to_json,
    derive_automaton,
)
from .syntax import (
    EMPTY_COMM,
    classify_theory,
    dump_comm_fn,
    load_comm_fn,
    parse_expression,
    render_expression,
    validate_comm_fn,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_STATE_LIMIT = 3


def _dumps(obj: object) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _read_expression(args: argparse.Namespace):
    if args.expr is not None:
        return parse_expression(args.expr)
    return parse_expression(Path(args.expr_file).read_text())


def _read_gamma(args: argparse.Namespace):
    if getattr(args, "gamma", None) is None:
        return EMPTY_COMM
    gamma = load_comm_fn(Path(args.gamma).read_text())
    report = validate_comm_fn(gamma)
    if not report.associative:
        raise ValueError(
            "communication function is not associative: " + "; ".join(report.violations)
        )
    return gamma


def _read_automaton(path: str):
    return automaton_from_json(Path(path).read_text())


def _add_expression_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("-e", "--expr", help="expression in concrete syntax")
    group.add_argument("--expr-file", help="file containing the expression")


def _print_report(report: PropertyReport, as_json: bool) -> int:
    if as_json:
        sys.stdout.write(_dumps(report.to_dict()))
    else:
        sys.stdout.write(f"property {report.property}: {report.verdict}\n")
        for w in report.witnesses:
            states = ", ".join(str(s) for s in w.states)
            sys.stdout.write(f"  scc {w.scc} (states {states}): {w.details}\n")
    return EXIT_OK if report.holds else EXIT_NEGATIVE


def _cmd_lts(args: argparse.Namespace) -> int:
    automaton = derive_automaton(_read_expression(args), _read_gamma(args), args.max_states)
    if args.format == "dot":
        sys.stdout.write(automaton_to_dot(automaton))
    else:
        sys.stdout.write(automaton_to_json(automaton))
    return EXIT_OK


def _cmd_bisim(args: argparse.Namespace) -> int:
    result = bisimilar(_read_automaton(args.automaton_a), _read_automaton(args.automaton_b))
    if args.json:
        witness = None
        if result.witness_relation is not None:
            witness = sorted([i, j] for i, j in result.witness_relation)
        sys.stdout.write(_dumps({"bisimilar": result.bisimilar, "witness_relation": witness}))
    else:
        sys.stdout.write("bisimilar\n" if result.bisimilar else "not bisimilar\n")
    return EXIT_OK if result.bisimilar else EXIT_NEGATIVE


def _cmd_minimize(args: argparse.Namespace) -> int:
    sys.stdout.write(automaton_to_json(minimize(_read_automaton(args.automaton))))
    return EXIT_OK


def _cmd_scc(args: argparse.Namespace) -> int:
    automaton = _read_automaton(args.automaton)
    decomposition = scc_decompose(automaton)
    if args.json:
        obj = {
            "components": [
                {
                    "id": cid,
                    "states": list(decomposition.members[cid]),
                    "trivial": decomposition.trivial[cid],
                }
                for cid in range(decomposition.count)
            ],
            "component_of": list(decomposition.component_of),
        }
        sys.stdout.write(_dumps(obj))
    else:
        for cid in range(decomposition.count):
            kind = "trivial" if decomposition.trivial[cid] else "non-trivial"
            states = ", ".join(str(s) for s in decomposition.members[cid])
            sys.stdout.write(f"scc {cid} ({kind}): {states}\n")
    return EXIT_OK


def _cmd_check(args: argparse.Namespace) -> int:
    automaton = _read_automaton(args.automaton)
    check = check_bpa_property if args.property == "bpa" else check_pa_property
    return _print_report(check(automaton), args.json)


def _cmd_oc(args: argparse.Namespace) -> int:
    value = oc_measure(_read_expression(args))
    if args.json:
        sys.stdout.write(_dumps({"oc": value}))
    else:
        sys.stdout.write(f"{value}\n")
    return EXIT_OK


def _cmd_classify(args: argparse.Namespace) -> int:
    theory = classify_theory(_read_expression(args))
    if args.json:
        sys.stdout.write(_dumps({"theory": theory.value}))
    else:
        sys.stdout.write(f"{theory.value}\n")
    return EXIT_OK


def _cmd_encode(args: argparse.Namespace) -> int:
    fa = _read_automaton(args.automaton)
    enc = encode_fa(fa)
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    (out / "expression.txt").write_text(render_expression(enc.expression) + "\n")
    (out / "gamma.txt").write_text(dump_comm_fn(enc.gamma))
    (out / "manifest.json").write_text(_dumps(encoding_manifest(fa, enc)))
    sys.stdout.write(f"wrote expression.txt, gamma.txt, manifest.json to {out}\n")
    return EXIT_OK


def _cmd_verify_encoding(args: argparse.Namespace) -> int:
    fa = _read_automaton(args.automaton)
    result = verify_encoding(fa, args.max_states)
    if args.json:
        mapping = list(result.mapping) if result.mapping is not None else None
        sys.stdout.write(
            _dumps({"isomorphic": result.isomorphic, "states": fa.n_states, "mapping": mapping})
        )
    else:
        verdict = "isomorphic" if result.isomorphic else "not isomorphic"
        sys.stdout.write(f"{verdict} ({fa.n_states} states)\n")
    return EXIT_OK if result.isomorphic else EXIT_NEGATIVE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starpar",
        description="Interpret regular expressions with interleaving, communication and "
        "encapsulation as finite automata, and analyse their expressibility.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lts = sub.add_parser("lts", help="derive the automaton of an expression")
    _add_expression_options(lts)
    lts.add_argument("--gamma", help="communication function file (default: empty)")
    lts.add_argument("--max-states", type=int, default=DEFAULT_MAX_STATES)
    lts.add_argument("--format", choices=("json", "dot"), default="json")
    lts.set_defaults(func=_cmd_lts)

    bisim = sub.add_parser("bisim", help="decide strong bisimilarity of two automata")
    bisim.add_argument("automaton_a")
    bisim.add_argument("automaton_b")
    bisim.add_argument("--json", action="store_true")
    bisim.set_defaults(func=_cmd_bisim)

    mini = sub.add_parser("minimize", help="bisimulation quotient of an automaton")
    mini.add_argument("automaton")
    mini.set_defaults(func=_cmd_minimize)

    scc = sub.add_parser("scc", help="strongly connected components of an automaton")
    scc.add_argument("automaton")
    scc.add_argument("--json", action="store_true")
    scc.set_defaults(func=_cmd_scc)

    check = sub.add_parser("check", help="run a structural expressibility check")
    check.add_argument("--property", choices=("bpa", "pa"), required=True)
    check.add_argument("automaton")
    check.add_argument("--json", action="store_true")
    check.set_defaults(func=_cmd_check)

    oc = sub.add_parser("oc", help="structural counter measure of an expression")
    _add_expression_options(oc)
    oc.add_argument("--json", action="store_true")
    oc.set_defaults(func=_cmd_oc)

    classify = sub.add_parser("classify", help="smallest theory containing an expression")
    _add_expression_options(classify)
    classify.add_argument("--json", action="store_true")
    classify.set_defaults(func=_cmd_classify)

    encode = sub.add_parser("encode", help="encode a finite automaton as an expression")
    encode.add_argument("automaton")
    encode.add_argument("-o", "--output", required=True, help="output directory")
    encode.set_defaults(func=_cmd_encode)

    verify = sub.add_parser(
        "verify-encoding", help="check the encoded expression derives an isomorphic automaton"
    )
    verify.add_argument("automaton")
    verify.add_argument("--max-states", type=int, default=DEFAULT_MAX_STATES)
    verify.add_argument("--json", action="store_true")
    verify.set_defaults(func=_cmd_verify_encoding)

    return parser


def run(argv: list[str]) -> int:
    """Execute one invocation; returns the exit code instead of exiting."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        return args.func(args)
    except StateLimitExceeded as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_STATE_LIMIT
    except RecursionError:
        sys.stderr.write("error: expression nested too deeply\n")
        return EXIT_STATE_LIMIT
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
