"""Command line front end: reduce expressions, run suites, apply words.

Exit codes: 0 when every executed relation holds (reports flagged
expected=True count as holding), 1 on an unexpected violation or an
engine error, 2 on parse or usage errors.  JSON output is one report
object per line with sorted keys, so identical invocations produce
byte-identical streams.

`verify` writes each report as soon as its suite decides it.  Usage
errors are raised before the first line, so exit 2 leaves stdout empty;
an engine error in the middle of a suite leaves the lines already
written on stdout, and still exits 1 with one `error:` line on stderr.
A reader that closes the pipe early (`| head -1`) stops the run: the
entry point then exits 1 and prints nothing.
"""

import argparse
import contextlib
import functools
import itertools
import json
import os
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


# one encoder for the JSON values the CLI writes (report params, reduce
# and modular lines); json.dumps(..., sort_keys=True) would build a new
# one per call
_ENCODER = json.JSONEncoder(sort_keys=True)
_STRING = json.encoder.encode_basestring_ascii

# a report's eight keys in sorted order, as _ENCODER would write them
_REPORT_LINE = ('{"expected": %s, "family": %s, "lhs": %s, "params": %s, '
                '"relation": %s, "rhs": %s, "status": %s, "suite": %s}')


class UsageError(ValueError):
    """Command combination outside the contract; maps to exit 2."""


def stream_reports(suite, family_token, power_range):
    """The report stream of one suite; family_token is None only for mq2.

    Usage errors are raised by this call, before any report is decided.
    """
    if suite == "mq2":
        return itertools.chain(mq2.verify_results.stream(power_range),
                               mq2.verify_pbw_smoke.stream())
    if family_token is None:
        raise UsageError("suite %s needs --type" % suite)
    family = _FAMILIES[family_token]
    if suite == "prop1":
        return verify_prop1.stream(family, power_range)
    if suite == "prop2":
        if family_token != "I":
            raise UsageError("prop2 is defined for --type I only")
        return verify_prop2.stream(power_range)
    if suite == "prop3":
        return verify_prop3.stream(family, power_range)
    if suite == "theorem1":
        return verify_theorem1.stream(family, power_range)
    if suite == "theorem2":
        return verify_theorem2.stream(family, power_range)
    if suite == "theorem3":
        if family_token == "III":
            raise UsageError("theorem3 is defined for --type I or II only")
        return verify_theorem3.stream(family)
    raise UsageError("unknown suite %r" % suite)


def collect_reports(suite, family_token, power_range):
    """The reports of stream_reports as one list."""
    return list(stream_reports(suite, family_token, power_range))


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
    """The bytes _ENCODER.encode writes for the report's eight fields."""
    lhs, rhs = report.lhs, report.rhs
    return _REPORT_LINE % (
        "true" if report.expected else "false", _STRING(report.family),
        "null" if lhs is None else _STRING(lhs),
        _ENCODER.encode(report.params), _STRING(report.relation),
        "null" if rhs is None else _STRING(rhs),
        _STRING(report.status), _STRING(report.suite))


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
    """Write each report of the iterable as it arrives, counting as it
    goes; text output ends with a summary line."""
    checked = failed = expected = 0
    write = out.write
    for report in reports:
        checked += 1
        if report.status != "holds":
            if report.expected:
                expected += 1
            else:
                failed += 1
        if fmt == "json":
            write(_report_json(report) + "\n")
        else:
            write(_report_text(report) + "\n")
    if fmt == "text":
        write("%d relations checked, %d unexpected violations, "
              "%d expected diagnostics\n" % (checked, failed, expected))
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
        suites = suites_for(args.type)
    else:
        suites = [args.suite]
    # every stream is made, and so checked for usage errors, up front
    streams = [stream_reports(suite, args.type, args.range)
               for suite in suites]
    return emit_reports(itertools.chain.from_iterable(streams), args.format,
                        out)


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
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull so that the flush
        # at interpreter exit does not raise again (Python docs, "Note on
        # SIGPIPE")
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        code = FAILURE_EXIT
    sys.exit(code)


if __name__ == "__main__":
    main_entry()
