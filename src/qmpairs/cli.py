"""Command line front end: reduce expressions, run suites, apply words.

Exit codes: 0 when every executed relation holds (reports flagged
expected=True count as holding), 1 on an unexpected violation or an
engine error, 2 on parse or usage errors.  JSON output is one report
object per line with sorted keys, so identical invocations produce
byte-identical streams.
"""

import argparse
import contextlib
import functools
import json
import sys

from .algebra import TYPE_I, TYPE_II, TYPE_III
from .grammar import parse_triangular, parse_background, ParseError
from .pairs import (verify_prop1, verify_prop2, verify_prop3,
                    verify_theorem1, verify_theorem2, generator_pair)
from .modular import (parse_word, apply_word, word_to_matrix, exponent_rows,
                      verify_theorem3, WordSyntaxError, UnsupportedFamily)
from . import mq2

USAGE_EXIT = 2
FAILURE_EXIT = 1

_FAMILIES = {"I": TYPE_I, "II": TYPE_II, "III": TYPE_III}

SUITES = ("prop1", "prop2", "prop3", "theorem1", "theorem2", "theorem3",
          "mq2", "all")


# one encoder for every JSON line; json.dumps(..., sort_keys=True) would
# build a new one per call
_ENCODER = json.JSONEncoder(sort_keys=True)


class UsageError(ValueError):
    """Command combination outside the contract; maps to exit 2."""


def collect_reports(suite, family_token, power_range):
    """Reports for one suite; family_token is None only for mq2."""
    if suite == "mq2":
        return mq2.verify_results(power_range) + mq2.verify_pbw_smoke()
    if family_token is None:
        raise UsageError("suite %s needs --type" % suite)
    family = _FAMILIES[family_token]
    if suite == "prop1":
        return verify_prop1(family, power_range)
    if suite == "prop2":
        if family_token != "I":
            raise UsageError("prop2 is defined for --type I only")
        return verify_prop2(power_range)
    if suite == "prop3":
        return verify_prop3(family, power_range)
    if suite == "theorem1":
        return verify_theorem1(family, power_range)
    if suite == "theorem2":
        return verify_theorem2(family, power_range)
    if suite == "theorem3":
        if family_token == "III":
            raise UsageError("theorem3 is defined for --type I or II only")
        return verify_theorem3(family)
    raise UsageError("unknown suite %r" % suite)


def suites_for(family_token):
    """The sub-suites `--suite all` runs for one family, in output order."""
    out = ["prop1"]
    if family_token == "I":
        out.append("prop2")
    out += ["prop3", "theorem1", "theorem2"]
    if family_token != "III":
        out.append("theorem3")
    out.append("mq2")
    return out


def _report_json(report):
    return _ENCODER.encode({
        "suite": report.suite, "family": report.family,
        "params": report.params, "relation": report.relation,
        "status": report.status, "expected": report.expected,
        "lhs": report.lhs, "rhs": report.rhs})


def _report_text(report):
    if report.status == "holds":
        mark = "ok"
    elif report.expected:
        mark = "expected violation"
    else:
        mark = "VIOLATION"
    params = ", ".join("%s=%s" % (k, v) for k, v in report.params.items())
    head = "[%s] %s %s (%s) %s" % (mark, report.suite, report.family,
                                   params, report.relation)
    if report.status == "holds" or report.lhs is None:
        return head
    return "%s\n    lhs: %s\n    rhs: %s" % (head, report.lhs, report.rhs)


def emit_reports(reports, fmt, out):
    failed = 0
    expected = 0
    for report in reports:
        if report.status != "holds":
            if report.expected:
                expected += 1
            else:
                failed += 1
        if fmt == "json":
            out.write(_report_json(report) + "\n")
        else:
            out.write(_report_text(report) + "\n")
    if fmt == "text":
        out.write("%d relations checked, %d unexpected violations, "
                  "%d expected diagnostics\n"
                  % (len(reports), failed, expected))
    return FAILURE_EXIT if failed else 0


def _run_reduce(args, out):
    if args.type == "mq2":
        value = parse_background(args.expression)
    else:
        value = parse_triangular(args.expression, _FAMILIES[args.type])
    if args.format == "json":
        out.write(_ENCODER.encode({"family": args.type,
                                   "input": args.expression,
                                   "normal_form": value.text()}) + "\n")
    else:
        out.write(value.text() + "\n")
    return 0


def _run_verify(args, out):
    if args.range < 1:
        raise UsageError("--range must be at least 1")
    if args.suite == "all":
        if args.type is None:
            raise UsageError("suite all needs --type")
        reports = []
        for suite in suites_for(args.type):
            reports += collect_reports(suite, args.type, args.range)
    else:
        reports = collect_reports(args.suite, args.type, args.range)
    return emit_reports(reports, args.format, out)


def _run_modular(args, out):
    word = parse_word(args.word)
    pair = apply_word(word, generator_pair(_FAMILIES[args.type]))
    rows = exponent_rows(pair)
    shadow = word_to_matrix(word)
    if args.format == "json":
        out.write(_ENCODER.encode({
            "family": args.type, "word": "".join(word),
            "v1": pair.u1.text(), "v2": pair.u2.text(),
            "rows": [list(rows[0]), list(rows[1])],
            "sl2z": [list(shadow.rows()[0]), list(shadow.rows()[1])]})
            + "\n")
    else:
        out.write("V1 = %s\n" % pair.u1.text())
        out.write("V2 = %s\n" % pair.u2.text())
        out.write("exponent rows = [[%d, %d], [%d, %d]]\n"
                  % (rows[0] + rows[1]))
        out.write("letter matrix = %s\n" % shadow.text())
    return 0


@functools.cache
def build_parser():
    """The qmp argument parser, built on the first call and shared after.

    parse_args keeps no state on the parser, so one parser serves every
    main call of a long-lived process.
    """
    parser = argparse.ArgumentParser(
        prog="qmp",
        description="Exact verification engine for q-commuting "
                    "triangular matrix pairs")
    sub = parser.add_subparsers(dest="command", required=True)

    reduce_p = sub.add_parser("reduce", help="reduce an expression "
                                             "to normal form")
    reduce_p.add_argument("expression")
    reduce_p.add_argument("--type", required=True,
                          choices=("I", "II", "III", "mq2"))
    reduce_p.add_argument("--format", default="text",
                          choices=("text", "json"))
    reduce_p.set_defaults(handler=_run_reduce)

    verify_p = sub.add_parser("verify", help="run a verification suite")
    verify_p.add_argument("--suite", required=True, choices=SUITES)
    verify_p.add_argument("--type", choices=("I", "II", "III"))
    verify_p.add_argument("--range", type=int, default=2,
                          help="half-width of the exponent grids")
    verify_p.add_argument("--format", default="text",
                          choices=("text", "json"))
    verify_p.set_defaults(handler=_run_verify)

    modular_p = sub.add_parser("modular", help="apply a letter word "
                                               "to the generator pair")
    modular_p.add_argument("--type", required=True, choices=("I", "II"))
    modular_p.add_argument("--word", required=True)
    modular_p.add_argument("--format", default="text",
                           choices=("text", "json"))
    modular_p.set_defaults(handler=_run_modular)
    return parser


def main(argv=None, out=None):
    out = out or sys.stdout
    try:
        # --help and -h print to sys.stdout; send them to out instead
        with contextlib.redirect_stdout(out):
            args = build_parser().parse_args(argv)
    except SystemExit as err:
        return err.code if isinstance(err.code, int) else USAGE_EXIT
    try:
        return args.handler(args, out)
    except (ParseError, WordSyntaxError, UsageError, UnsupportedFamily) as err:
        print("error: %s" % err, file=sys.stderr)
        return USAGE_EXIT
    except (ValueError, RecursionError) as err:
        print("error: %s: %s" % (type(err).__name__, err), file=sys.stderr)
        return FAILURE_EXIT


def main_entry():
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
