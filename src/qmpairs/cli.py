"""Command line front end: reduce expressions, run suites, apply words.

Exit codes: 0 when every executed relation holds (reports flagged
expected=True count as holding), 1 on an unexpected violation or an
engine error, 2 on parse or usage errors.  JSON output is one report
object per line with sorted keys, so identical invocations produce
byte-identical streams.

`verify` writes each grid point's reports, in one write, as soon as the
grid point is decided: one write per line would cost one system call
per line under PYTHONUNBUFFERED=1, on a TTY or into a line-buffered
pipe.  Usage errors are raised before the first line, so exit 2 leaves
stdout empty; an engine error in the middle of a suite leaves every line
decided before it on stdout, and still exits 1 with one `error:` line
on stderr.
A reader that closes the pipe early (`| head -1`) stops the run: the
entry point then exits 1 and prints nothing.  Each command imports only
the engine modules it runs (see the package docstring).
"""

import argparse
import contextlib
import functools
import itertools
import json
import os
import sys

import qmpairs

USAGE_EXIT = 2
FAILURE_EXIT = 1

_FAMILIES = ("I", "II", "III")  # the RelationFamily values
_MODULAR = ("I", "II")


@functools.cache
def _family(token):
    return qmpairs.algebra.RelationFamily(token)


# suite -> (runner(family, n), which loads its engine module when called,
# and the --type tokens it accepts, or None for a suite that ignores
# --type); `--suite all` runs, in this order, every row that accepts its type
_SUITES = {
    "prop1": (lambda f, n: qmpairs.pairs.verify_prop1.stream(f, n), _FAMILIES),
    "prop2": (lambda f, n: qmpairs.pairs.verify_prop2.stream(n), ("I",)),
    "prop3": (lambda f, n: qmpairs.pairs.verify_prop3.stream(f, n), _FAMILIES),
    "theorem1": (lambda f, n: qmpairs.pairs.verify_theorem1.stream(f, n),
                 _FAMILIES),
    "theorem2": (lambda f, n: qmpairs.pairs.verify_theorem2.stream(f, n),
                 _FAMILIES),
    "theorem3": (lambda f, n: qmpairs.modular.verify_theorem3.stream(f),
                 _MODULAR),
    "mq2": (lambda f, n: itertools.chain(
        qmpairs.mq2.verify_results.stream(n),
        qmpairs.mq2.verify_pbw_smoke.stream()), None),
}

SUITES = (*_SUITES, "all")


# one encoder for the JSON values the CLI writes (report params, reduce
# and modular lines); json.dumps(..., sort_keys=True) would build a new
# one per call
_ENCODER = json.JSONEncoder(sort_keys=True)
_STRING = json.encoder.encode_basestring_ascii

# a report's eight keys in sorted order, as _ENCODER would write them
_REPORT_LINE = ('{"expected": %s, "family": %s, "lhs": %s, "params": %s, '
                '"relation": %s, "rhs": %s, "status": %s, "suite": %s}')
# that line for no sides, before params and after the relation
_SIDELESS_HEAD = '{"expected": %s, "family": %s, "lhs": null, "params": '
_SIDELESS_TAIL = ', "rhs": null, "status": %s, "suite": %s}'


class UsageError(qmpairs.InputError):
    """Command combination outside the contract; maps to exit 2."""


def stream_reports(suite, family_token, power_range):
    """The report stream of one suite, read from its _SUITES row;
    family_token may be None only where the row accepts None, and is
    then ignored.

    Usage errors are raised by this call, before any report is decided.
    """
    runner, accepts = _SUITES[suite]
    if accepts is None:
        return runner(None, power_range)
    if family_token is None:
        raise UsageError("suite %s needs --type" % suite)
    if family_token not in accepts:
        raise UsageError("%s is defined for --type %s only"
                         % (suite, " or ".join(accepts)))
    return runner(_family(family_token), power_range)


def suites_for(family_token):
    """The sub-suites `--suite all` runs for one family, in output order."""
    return [suite for suite, (_, accepts) in _SUITES.items()
            if accepts is None or family_token in accepts]


def _report_json(report, params, heads):
    """The bytes _ENCODER.encode writes for the report's eight fields,
    given params, the encoded report.params.  A report with sides fills
    _REPORT_LINE; one with none is head + params + relation + tail, its
    head and tail kept in heads under (expected, family, status, suite).
    """
    lhs, rhs = report.lhs, report.rhs
    if lhs is None and rhs is None:
        key = (report.expected, report.family, report.status, report.suite)
        ends = heads.get(key)
        if ends is None:
            ends = heads[key] = (
                _SIDELESS_HEAD % ("true" if report.expected else "false",
                                  _STRING(report.family)),
                _SIDELESS_TAIL % (_STRING(report.status),
                                  _STRING(report.suite)))
        return "".join((ends[0], params, ', "relation": ',
                        _STRING(report.relation), ends[1]))
    return _REPORT_LINE % (
        "true" if report.expected else "false", _STRING(report.family),
        "null" if lhs is None else _STRING(lhs),
        params, _STRING(report.relation),
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
    """Write the reports of the iterable one grid point at a time,
    counting as it goes; text output ends with a summary line.

    The reports of one grid point share one params object (see
    RelationReport).  Their lines are held until a report with another
    params object arrives, or the stream ends or raises, and then go out
    in one write (see the module docstring for why).  The JSON of the
    held params is reused, and any other object is encoded afresh:
    params objects must not change while a stream is written.
    """
    checked = failed = expected = 0
    write = out.write
    held = []
    heads = {}
    last = last_json = None

    def write_held():
        # emptied before the write, so that a closed pipe is written once
        chunk = "\n".join(held) + "\n"
        held.clear()
        write(chunk)

    try:
        for report in reports:
            checked += 1
            if report.status != "holds":
                if report.expected:
                    expected += 1
                else:
                    failed += 1
            if report.params is not last:
                if held:
                    write_held()
                last = report.params
                if fmt == "json":
                    last_json = _ENCODER.encode(last)
            held.append(_report_json(report, last_json, heads)
                        if fmt == "json" else _report_text(report))
    finally:
        # also on an engine error: the lines decided so far reach out
        if held:
            write_held()
    if fmt == "text":
        write("%d relations checked, %d unexpected violations, "
              "%d expected diagnostics\n" % (checked, failed, expected))
    return FAILURE_EXIT if failed else 0


def _run_reduce(args, out):
    grammar = qmpairs.grammar
    if args.type == "mq2":
        value = grammar.parse_background(args.expression)
    else:
        value = grammar.parse_triangular(args.expression, _family(args.type))
    try:
        text = value.text()
    except ValueError as err:   # str() of an integer past the limit
        raise qmpairs.InputError(
            "the normal form has a coefficient longer than %d digits, the "
            "limit for printing an integer" % sys.get_int_max_str_digits()
        ) from err
    if args.format == "json":
        out.write(_ENCODER.encode({"family": args.type,
                                   "input": args.expression,
                                   "normal_form": text}) + "\n")
    else:
        out.write(text + "\n")
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
    modular, family = qmpairs.modular, _family(args.type)
    word = modular.parse_word(args.word)
    pair = modular.apply_word(word, qmpairs.pairs.generator_pair(family))
    rows = modular.exponent_rows(pair)
    shadow = modular.word_to_matrix(word)
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
                          choices=(*_FAMILIES, "mq2"))

    verify_p = sub.add_parser("verify", help="run a verification suite")
    verify_p.add_argument("--suite", required=True, choices=SUITES)
    verify_p.add_argument("--type", choices=_FAMILIES)
    verify_p.add_argument("--range", type=int, default=2,
                          help="half-width of the exponent grids")

    modular_p = sub.add_parser("modular", help="apply a letter word "
                                               "to the generator pair")
    modular_p.add_argument("--type", required=True, choices=_MODULAR)
    modular_p.add_argument("--word", required=True)

    for command, handler in ((reduce_p, _run_reduce), (verify_p, _run_verify),
                             (modular_p, _run_modular)):
        command.add_argument("--format", default="text",
                             choices=("text", "json"))
        command.set_defaults(handler=handler)
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
    except qmpairs.InputError as err:
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
