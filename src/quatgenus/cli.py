"""Command-line surface: symbols, form reports, algebra comparisons, scripts, self-tests.

Output is deterministic: identical invocations print identical bytes. Exit
codes: 0 success, 1 property failure, 2 malformed input, 3 unmet
precondition, 4 truncation left a required claim unknown, 70 internal error
(a bug: any other exception), 141 stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import TYPE_CHECKING

from .errors import InputError, PreconditionError, SearchExhausted, TruncationError, _quoted

if TYPE_CHECKING:  # each command imports what it computes with when it runs
    from .forms import DiagonalForm
    from .quaternion import QuaternionAlgebra


def _parse_form(text: str) -> DiagonalForm:
    from .arith import parse_rational
    from .forms import DiagonalForm

    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise InputError("empty coefficient list")
    return DiagonalForm.of([parse_rational(p) for p in parts])


def _parse_algebra(text: str) -> QuaternionAlgebra:
    from .arith import parse_rational
    from .quaternion import QuaternionAlgebra

    parts = [p.strip() for p in text.split(",") if p.strip()]
    if len(parts) != 2:
        raise InputError(f"an algebra is a pair 'a,b': {_quoted(text)}")
    return QuaternionAlgebra.of(parse_rational(parts[0]), parse_rational(parts[1]))


def _answer(args: argparse.Namespace, payload: dict, lines: list[str]) -> int:
    """Print one answer: its payload with --json, else its text lines."""
    if args.json:
        # runner.render_report's bytes by its contract, without loading the runner
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        print("\n".join(lines))
    return 0


def _written(pieces, path: str):
    """Write each piece to path, then hand it on; only the file's errors become input errors."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            for piece in pieces:
                handle.write(piece)
                yield piece
    except OSError as error:
        raise InputError(f"cannot write report: {error}") from error


def cmd_symbol(args: argparse.Namespace) -> int:
    from .arith import parse_rational
    from .symbols import hilbert_symbol, parse_place

    value = hilbert_symbol(
        parse_rational(args.a), parse_rational(args.b), parse_place(args.place)
    )
    print(value)
    return 0


def cmd_form(args: argparse.Namespace) -> int:
    from .forms import invariants, isotropic_vector, isotropy_failure, witt_decompose

    q = _parse_form(args.coefficients)
    if args.action == "witt":
        decomposition = witt_decompose(q)
        part = decomposition.anisotropic_part
        lines = [f"witt index: {decomposition.witt_index}",
                 f"anisotropic part: {'<>' if part is None else part}"]
        lines += [f"isotropic witness: {list(vector)}" for vector in decomposition.witnesses]
        return _answer(args, decomposition.to_json(), lines)
    inv = invariants(q)
    failing = isotropy_failure(q)
    failing_place = None if failing is None else failing.to_json()
    verdict = "isotropic" if failing is None else f"anisotropic (fails at {failing})"
    if args.action == "analyze":
        payload = {"coefficients": q.to_json(), **inv.to_json(), "isotropic": failing is None,
                   "failing_place": failing_place}
        hasse = " ".join(f"{v}:{e:+d}" for v, e in inv.hasse)
        lines = [f"form: {q}", f"dimension: {inv.dimension}",
                 f"determinant class: {inv.determinant}",
                 f"signed discriminant: {inv.signed_discriminant}",
                 f"signature: {inv.signature}", f"hasse symbols: {hasse if hasse else '(none)'}",
                 f"isotropy: {verdict}"]
    elif failing is not None:
        payload, lines = {"isotropic": False, "failing_place": failing_place}, [verdict]
    else:
        try:
            vector = isotropic_vector(q, args.bound)
        except SearchExhausted as exhausted:
            # the verdict stands; only the witness search ran out
            found = str(exhausted)
            payload = {"isotropic": True, "witness": None, "search": found}
        else:
            witness = None if vector is None else list(vector)
            payload = {"isotropic": True, "witness": witness}
            found = (f"no witness with max-norm <= {args.bound}" if witness is None
                     else f"witness {witness}")
        lines = [f"isotropic ({found})"]
    return _answer(args, payload, lines)


def cmd_quat(args: argparse.Namespace) -> int:
    from .arith import parse_rational
    from .quaternion import (
        _check_limit,
        common_subfield_witness,
        contains_subfield,
        distinguishing_witness,
        genus_report,
        is_isomorphic,
        is_linked,
        ramification,
    )

    # refused before any action runs: isomorphic algebras search no witness
    _check_limit(args.limit)
    if args.action == "embeds":
        algebra = _parse_algebra(args.first)
        verdict = contains_subfield(algebra, parse_rational(args.second))
        return _answer(args, {"embeds": verdict}, ["true" if verdict else "false"])
    if args.action == "genus":
        algebras = [_parse_algebra(text) for text in [args.first, args.second] + args.rest]
        report = genus_report(algebras, args.limit)
        lines = [f"[{index}] {algebra}" for index, algebra in enumerate(report.algebras)]
        for entry in report.entries:
            i, j = entry.pair
            shown = "isomorphic" if entry.isomorphic else f"distinct, witness {entry.witness}"
            lines.append(f"({i},{j}): {shown}")
        return _answer(args, report.to_json(), lines)
    a1, a2 = _parse_algebra(args.first), _parse_algebra(args.second)
    if args.action == "witness":
        common = common_subfield_witness(a1, a2, args.limit)
        distinguishing = (
            None if is_isomorphic(a1, a2) else distinguishing_witness(a1, a2, args.limit)
        )
        shown = "none (isomorphic)" if distinguishing is None else distinguishing
        return _answer(args, {"common": common, "distinguishing": distinguishing},
                       [f"common subfield witness: {common}", f"distinguishing witness: {shown}"])
    isomorphic = is_isomorphic(a1, a2)
    linked = is_linked(a1, a2)
    witness = None if isomorphic else distinguishing_witness(a1, a2, args.limit)
    payload = {
        "isomorphic": isomorphic,
        "linked": linked,
        "distinguishing_witness": witness,
        "ramification": [[v.to_json() for v in ramification(a)] for a in (a1, a2)],
    }
    pieces = [
        "isomorphic" if isomorphic else "not isomorphic",
        "linked" if linked else "not linked",
        "no distinguishing witness" if witness is None else f"distinguishing witness {witness}",
    ]
    return _answer(args, payload, ["; ".join(pieces)])


def cmd_tower(args: argparse.Namespace) -> int:
    from .runner import RunConfig, iter_report, run_script_data, summarize_report

    try:
        with open(args.script, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as error:
        raise InputError(f"cannot read script: {error}") from error
    except json.JSONDecodeError as error:
        raise InputError(f"script is not valid JSON: {error}") from error
    except RecursionError as error:
        raise InputError("script nests too deeply to parse") from error
    report, code = run_script_data(data, RunConfig())
    pieces = iter_report(report) if args.out or args.output == "json" else ()
    for piece in _written(pieces, args.out) if args.out else pieces:
        if args.output == "json":
            sys.stdout.write(piece)
    if args.output == "text":
        sys.stdout.write(summarize_report(report))
    if code == 4:  # the report is written; the exit still needs its one error line
        unknown = report["unknown_count"]
        print(f"error: {unknown} required claim(s) remained UNKNOWN", file=sys.stderr)
    return code


def cmd_selftest(args: argparse.Namespace) -> int:
    from .selftest import run_suite

    result = run_suite(args.suite, args.trials, args.seed)
    print(f"suite: {result.name}")
    print(f"result: {'PASS' if result.passed else 'FAIL'}")
    print(f"checks: {result.checks}")
    print(f"detail: {result.detail}")
    if result.counterexample is not None:
        print(f"counterexample: {result.counterexample}")
    return 0 if result.passed else 1


class _SuiteNames:
    """The names of selftest.SUITES, sorted, as argparse choices; selftest loads on first read."""

    def __iter__(self):
        from .selftest import SUITES

        return iter(sorted(SUITES))

    def __contains__(self, name: object) -> bool:
        from .selftest import SUITES

        return name in SUITES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quatgenus",
        description="Quadratic forms and quaternion algebras over the rationals, "
        "with certified field-tower constructions.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p_symbol = commands.add_parser("symbol", help="Hilbert symbol (a,b) at a place")
    p_symbol.add_argument("a")
    p_symbol.add_argument("b")
    p_symbol.add_argument("place", help="'inf' or a prime")
    p_symbol.set_defaults(func=cmd_symbol)

    p_form = commands.add_parser("form", help="diagonal form reports")
    p_form.add_argument("action", choices=("analyze", "isotropic", "witt"))
    p_form.add_argument("coefficients", help="comma-separated nonzero rationals")
    p_form.add_argument("--bound", type=int, default=200, help="witness search max-norm")
    p_form.add_argument("--json", action="store_true")
    p_form.set_defaults(func=cmd_form)

    p_quat = commands.add_parser("quat", help="quaternion algebra comparisons")
    p_quat.add_argument("action", choices=("compare", "embeds", "witness", "genus"))
    p_quat.add_argument("first", help="algebra 'a,b' (or, for embeds, the algebra)")
    p_quat.add_argument("second", help="algebra 'a,b' (or, for embeds, the class c)")
    p_quat.add_argument("rest", nargs="*", help="further algebras (genus)")
    p_quat.add_argument("--limit", type=int, default=1000, help="witness search limit")
    p_quat.add_argument("--json", action="store_true")
    p_quat.set_defaults(func=cmd_quat)

    p_tower = commands.add_parser("tower", help="run a construction script")
    p_tower.add_argument("action", choices=("run",))
    p_tower.add_argument("script", help="path to a JSON script")
    p_tower.add_argument("--out", help="also write the JSON report to this file")
    p_tower.add_argument("--output", choices=("text", "json"), default="json")
    p_tower.set_defaults(func=cmd_tower)

    p_selftest = commands.add_parser("selftest", help="run a property suite")
    # argparse checks the usage line when the argument is added: a placeholder
    # metavar keeps that check from loading selftest, and None restores the
    # choices in usage, help and errors
    suite = p_selftest.add_argument("suite", choices=_SuiteNames(), metavar="suite")
    suite.metavar = None
    p_selftest.add_argument("--trials", type=int, default=None)
    p_selftest.add_argument("--seed", type=int, default=0)
    p_selftest.set_defaults(func=cmd_selftest)

    # Operands like "-2,1,3,3" and "-1,-1" start with a dash; none of the
    # registered flags are numeric, so widen the negative-number test that
    # argparse uses to tell operands from options.
    operand = re.compile(r"^-\d")
    for sub in (p_symbol, p_form, p_quat):
        sub._negative_number_matcher = operand

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        return exit_.code if isinstance(exit_.code, int) else 2
    try:
        return args.func(args)
    except TruncationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 4
    except PreconditionError as error:
        print(f"error: {error}", file=sys.stderr)
        return 3
    except ValueError as error:  # malformed input, InputError among them
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout (`| head`): send what is still buffered, and
        # the flush at exit, to devnull, as the signal module's docs advise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, the shell's code for a closed pipe
    except Exception as error:
        # a bug, not a verdict: exit 1 is reserved for a failed replay
        print(f"error: internal: {error!r}", file=sys.stderr)
        return 70


if __name__ == "__main__":
    raise SystemExit(main())
