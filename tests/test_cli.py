"""CLI contract: commands, exit codes, deterministic JSON reports."""

import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import pinned
import qmpairs
from qmpairs import TYPE_II, cli, verify_prop1, verify_theorem2
from qmpairs.cli import SUITES, main, stream_reports, suites_for
from qmpairs.mq2 import QGElement
from qmpairs.reports import RelationReport

SCHEMA_KEYS = {"suite", "family", "params", "relation", "status",
               "expected", "lhs", "rhs"}


def _run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def test_reduce_text():
    code, out = _run(["reduce", "--type", "II", "a1 * b2"])
    assert code == 0
    assert out == "s^2 * b2 * g1\n"


def test_reduce_json():
    code, out = _run(["reduce", "--type", "I", "--format", "json", "U1^0"])
    assert code == 0
    obj = json.loads(out)
    assert obj == {"family": "I", "input": "U1^0",
                   "normal_form": "[[1, 0], [0, 1]]"}


def test_reduce_background():
    code, out = _run(["reduce", "--type", "mq2", "d * a"])
    assert code == 0
    assert out == "(s^-2 - s^2) * b * c + a * d\n"


def test_reduce_engine_error_exits_1(capsys):
    code, _ = _run(["reduce", "--type", "II", "b1 * b2"])
    assert code == 1
    assert "BetaDegreeExceeded" in capsys.readouterr().err


def test_reduce_non_invertible_entry_exits_1(capsys):
    code, out = _run(["reduce", "--type", "I",
                      "[[2 * a1, b1], [0, g1]]^-1"])
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == ("error: NonInvertibleEntry: "
                                       "coefficient 2 is not an invertible "
                                       "scalar\n")


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("family, expression",
                         [("I", "2^15000"), ("mq2", "2^15000 * a"),
                          ("I", "U1 * [[2^15000, b1], [0, g1]]")])
def test_reduce_unprintable_coefficient_exits_2(capsys, family, expression,
                                                fmt):
    # 2^15000 has 4516 decimal digits, past the interpreter's limit for
    # integer to string conversion, so the normal form cannot be printed
    code, out = _run(["reduce", "--type", family, expression,
                      "--format", fmt])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == (
        "error: the normal form has a coefficient longer than %d digits, "
        "the limit for printing an integer\n" % sys.get_int_max_str_digits())


@pytest.mark.parametrize("family, expression, normal_form",
                         [("I", "2^14000", "%d"),
                          ("mq2", "2^14000 * a", "%d * a")],
                         ids=["I", "mq2"])
def test_reduce_long_printable_coefficient_exits_0(family, expression,
                                                   normal_form):
    # 2^14000 has 4215 decimal digits, inside the limit
    code, out = _run(["reduce", "--type", family, expression])
    assert (code, out) == (0, normal_form % 2 ** 14000 + "\n")


def test_reduce_deep_background_word_exits_0():
    code, out = _run(["reduce", "--type", "mq2", "d^40 * a^40"])
    assert code == 0
    product = QGElement.generator("d", 40) * QGElement.generator("a", 40)
    assert len(product.terms) == 41
    assert out == product.text() + "\n"


def test_reduce_recursion_error_exits_1(capsys, monkeypatch):
    def too_deep(src):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr("qmpairs.grammar.parse_background", too_deep)
    code, out = _run(["reduce", "--type", "mq2", "d * a"])
    assert (code, out) == (1, "")
    err = capsys.readouterr().err
    assert err.startswith("error: RecursionError: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_reduce_parse_error_exits_2(capsys):
    code, _ = _run(["reduce", "--type", "I", "a1 + ^"])
    assert code == 2
    assert "column" in capsys.readouterr().err


def test_reduce_non_ascii_digit_exits_2(capsys):
    code, out = _run(["reduce", "--type", "I", "a1^\u00b2"])
    assert (code, out) == (2, "")
    err = capsys.readouterr().err
    assert err == "error: unexpected character '\u00b2' (column 4)\n"


@pytest.mark.parametrize("family, expression, column", [
    ("I", "9" * 5000 + " * a1", 1), ("mq2", "a^" + "9" * 5000, 3)],
    ids=["coefficient", "exponent"])
def test_reduce_over_long_integer_exits_2(capsys, family, expression,
                                          column):
    code, out = _run(["reduce", "--type", family, expression])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == \
        "error: integer literal too long (column %d)\n" % column


def test_verify_passing_suite():
    code, out = _run(["verify", "--suite", "theorem1", "--type", "I",
                      "--range", "2"])
    assert code == 0
    assert "0 unexpected violations" in out


def test_verify_expected_diagnostics_do_not_fail():
    code, out = _run(["verify", "--suite", "theorem1", "--type", "III",
                      "--range", "2"])
    assert code == 0
    assert "17 expected diagnostics" in out


def test_verify_json_schema():
    code, out = _run(["verify", "--suite", "prop1", "--type", "III",
                      "--range", "1", "--format", "json"])
    assert code == 0
    for line in out.splitlines():
        obj = json.loads(line)
        assert set(obj) == SCHEMA_KEYS
        assert obj["status"] in ("holds", "violated")
        assert isinstance(obj["expected"], bool)
        assert all(isinstance(v, int) for v in obj["params"].values())


def test_verify_json_byte_deterministic():
    argv = ["verify", "--suite", "all", "--type", "II", "--range", "2",
            "--format", "json"]
    first = _run(argv)
    second = _run(argv)
    assert first == second
    assert first[0] == 0


# argv that are usage errors, each with its one stderr line
USAGE_ERRORS = (
    *((["verify", "--suite", suite],                     # no --type
      "error: suite %s needs --type\n" % suite)
      for suite in ("prop1", "prop2", "prop3", "theorem1", "theorem2",
                    "theorem3", "all")),
    (["verify", "--suite", "prop2", "--type", "II"],
     "error: prop2 is defined for --type I only\n"),
    (["verify", "--suite", "prop2", "--type", "III"],
     "error: prop2 is defined for --type I only\n"),
    (["verify", "--suite", "theorem3", "--type", "III"],
     "error: theorem3 is defined for --type I or II only\n"),
    (["verify", "--suite", "prop1", "--type", "I", "--range", "0"],
     "error: --range must be at least 1\n"),
    (["modular", "--type", "I", "--word", "SQT"],
     "error: unexpected character 'Q' (column 2)\n"),
)

# usage errors that argparse reports: usage text, then one error line
# that starts as given (the list of choices after it varies with the
# Python version)
ARGPARSE_ERRORS = (
    (["verify", "--suite", "nope", "--type", "I"],
     "qmp verify: error: argument --suite: invalid choice: 'nope'"),
    (["modular", "--type", "III", "--word", "S"],
     "qmp modular: error: argument --type: invalid choice: 'III'"),
    (["reduce", "--type", "IV", "a1"],
     "qmp reduce: error: argument --type: invalid choice: 'IV'"),
    (["bogus"], "qmp: error: argument command: invalid choice: 'bogus'"),
)


def test_usage_errors_exit_2(capsys):
    for argv, message in USAGE_ERRORS:
        code, _ = _run(argv)
        assert (code, capsys.readouterr().err) == (2, message), argv
    for argv, start in ARGPARSE_ERRORS:
        code, _ = _run(argv)
        err = capsys.readouterr().err.splitlines()
        assert code == 2, argv
        assert err[0].startswith("usage: qmp"), argv
        assert [line for line in err if "error:" in line] == err[-1:], argv
        assert err[-1].startswith(start), argv


def test_suite_all_composition():
    assert suites_for("I") == ["prop1", "prop2", "prop3", "theorem1",
                               "theorem2", "theorem3", "mq2"]
    assert "prop2" not in suites_for("II")
    assert "theorem3" not in suites_for("III")
    assert suites_for("III")[-1] == "mq2"


def test_exported_names_resolve():
    # the names of __init__.__all__ are the package's contract: 65, each
    # exported once, and each one resolves
    assert len(qmpairs.__all__) == len(set(qmpairs.__all__)) == 65
    for name in qmpairs.__all__:
        assert getattr(qmpairs, name) is not None, name


def test_suite_rows_name_their_reports():
    # every report of a suite's runner carries the suite's row name, for
    # each --type token the row accepts
    for suite, (_, accepts) in cli._SUITES.items():
        for token in accepts or (None,):
            reports = list(stream_reports(suite, token, 1))
            assert reports, (suite, token)
            assert {r.suite for r in reports} == {suite}, (suite, token)


def test_collect_reports_mq2_needs_no_family():
    reports = list(stream_reports("mq2", None, 1))
    assert reports
    assert all(r.family == "mq2" for r in reports)
    # mq2 ignores --type: each token writes the bytes of no --type
    argv = ["verify", "--suite", "mq2", "--range", "1", "--format", "json"]
    want = _run(argv)
    assert want[0] == 0 and want[1]
    for token in ("I", "II", "III"):
        assert _run(argv + ["--type", token]) == want, token


def test_modular_text_output():
    code, out = _run(["modular", "--type", "I", "--word", "ST"])
    assert code == 0
    assert "V1 = " in out and "V2 = " in out
    assert "exponent rows = [[0, 1], [-1, -1]]" in out
    assert "letter matrix = [[0, 1], [-1, -1]]" in out


def test_modular_json_output():
    code, out = _run(["modular", "--type", "II", "--word", "S T",
                      "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["family"] == "II"
    assert obj["word"] == "ST"
    assert obj["rows"] == obj["sl2z"] == [[0, 1], [-1, -1]]


def test_console_entry_point_subprocess():
    # one end-to-end process check; everything else runs in-process
    result = subprocess.run(
        [sys.executable, "-c",
         "from qmpairs.cli import main; raise SystemExit("
         "main(['reduce', '--type', 'II', 'a1 * b2']))"],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert result.stdout.strip() == "s^2 * b2 * g1"


def test_verify_text_marks_expected():
    code, out = _run(["verify", "--suite", "theorem1", "--type", "III",
                      "--range", "1"])
    assert code == 0
    assert "[expected violation]" in out
    assert "[VIOLATION]" not in out


def _fresh(argv):
    """(exit code, stdout, stderr) of main(argv) in a new process."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
               COLUMNS="80")
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys\nfrom qmpairs.cli import main\n"
         "sys.exit(main(sys.argv[1:]))"] + argv,
        env=env, capture_output=True, text=True, timeout=60)
    return done.returncode, done.stdout, done.stderr


def test_repeated_calls_match_fresh_calls(capsys, monkeypatch):
    """One process calling main again and again on the one cached parser
    prints what a new process prints for each call, and exits the same."""
    monkeypatch.setenv("COLUMNS", "80")
    calls = [
        ["reduce", "--type", "III", "U1^5 * U2^-3"],
        ["reduce"],
        ["verify", "--suite", "mq2", "--range", "0"],
        ["reduce", "--type", "II", "--format", "json", "a1 * b2"],
        ["reduce", "--type", "II", "a1 * b2"],
        ["--help"],
    ]
    fresh = [_fresh(argv) for argv in calls]
    assert [code for code, _, _ in fresh] == [0, 2, 2, 0, 0, 0]
    assert cli.build_parser() is cli.build_parser()
    capsys.readouterr()
    for _ in range(2):
        for argv, want in zip(calls, fresh):
            out = io.StringIO()
            code = main(argv, out=out)
            printed = capsys.readouterr()
            assert printed.out == "", argv
            assert (code, out.getvalue(), printed.err) == want, argv


def test_usage_errors_write_nothing():
    """Usage errors are raised before the first report line: the argv of
    test_usage_errors_exit_2 exit 2 with nothing on out."""
    for argv, _ in (*USAGE_ERRORS, *ARGPARSE_ERRORS):
        assert _run(argv) == (2, ""), argv


def test_engine_error_mid_stream_keeps_written_lines(capsys, monkeypatch):
    """The failing grid point's reports are held for one write; the error
    still lets every line decided before it out."""
    params = {"n": 0}
    first = RelationReport("prop1", "I", params, "x = x")
    second = RelationReport("prop1", "I", params, "y = y")

    def failing(suite, family_token, power_range):
        yield first
        yield second
        raise ValueError("engine failure")

    monkeypatch.setattr(cli, "stream_reports", failing)
    code, out = _run(["verify", "--suite", "prop1", "--type", "I",
                      "--format", "json"])
    assert (code, out) == (1, _encoded(first) + "\n" + _encoded(second)
                           + "\n")
    assert capsys.readouterr().err == "error: ValueError: engine failure\n"


def _encoded(report):
    return json.dumps({
        "suite": report.suite, "family": report.family,
        "params": report.params, "relation": report.relation,
        "status": report.status, "expected": report.expected,
        "lhs": report.lhs, "rhs": report.rhs}, sort_keys=True)


def _json_lines(reports):
    """The JSON lines emit_reports writes for the reports."""
    out = io.StringIO()
    cli.emit_reports(reports, "json", out)
    return out.getvalue().splitlines()


@pytest.mark.parametrize("family", ["I", "II", "III"])
def test_report_json_matches_encoder(family):
    for suite in suites_for(family):
        reports = list(stream_reports(suite, family, 2))
        assert _json_lines(reports) == [_encoded(r) for r in reports]


def test_report_json_matches_encoder_on_made_up_reports():
    texts = ('quote " here', "back\\slash", "two\nlines", "q\u00b2 \u2260 1",
             "tab\t\u0001")
    reports = [RelationReport("s", "I", {}, "r")]
    for text in texts:
        reports += [
            RelationReport("s", "II", {"n": -1}, text),
            RelationReport("s", "III", {"n": 2, "m": 0}, "r", "violated",
                           False, text, "rhs"),
            RelationReport("s", "I", {}, "r", "violated", True, "lhs", text),
        ]
    assert _json_lines(reports) == [_encoded(r) for r in reports]


def test_params_json_is_reused_only_for_identical_bytes():
    """Consecutive params that are equal but encode differently, or that
    differ only in key order, each get their own encoding."""
    runs = [
        [{"n": 1}, {"n": True}, {"n": 1}, {"n": False}, {"n": 0}],
        [{"n": 1, "m": 2}, {"m": 2, "n": 1}, {"n": 1, "m": 2}],
        [{1: 0}, {True: 0}, {1.0: 0}, {1: 0}],
        [{"n": 0.0}, {"n": -0.0}, {"n": 0}, {"n": 0.0}],
        [{"n": [1]}, {"n": [True]}, {"n": [1.0]}, {"n": [1]}],
        [{"n": "1"}, {"n": 1}, {"n": "1"}, {}, {}],
    ]
    for run in runs:
        reports = [RelationReport("s", "I", params, "r") for params in run]
        assert _json_lines(reports) == [_encoded(r) for r in reports], run


def test_suite_functions_return_the_collected_stream():
    stream = verify_theorem2.stream(TYPE_II, 1)
    assert not isinstance(stream, list)
    assert list(stream) == verify_theorem2(TYPE_II, 1)
    assert isinstance(verify_prop1(TYPE_II, 1), list)


class _Discard:
    def write(self, text):
        return len(text)


class _Recorder:
    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_verify_writes_each_grid_point_once(fmt):
    """One write per theorem2 quadruple (3^4 = 81 at range 1), each
    holding that quadruple's reports only; text adds its summary line
    as a last write of its own, and the bytes are unchanged."""
    argv = ("verify", "--suite", "theorem2", "--type", "I", "--range", "1",
            "--format", fmt)
    out = _Recorder()
    assert main(list(argv), out=out) == 0
    joined = "".join(out.writes).encode()
    assert hashlib.sha256(joined).hexdigest() == pinned.SHA256[argv]
    reports = list(verify_theorem2.stream(qmpairs.TYPE_I, 1))
    # every report is alive in the list, so ids tell params objects apart
    points = [list(group) for _, group
              in itertools.groupby(reports, lambda r: id(r.params))]
    line = _encoded if fmt == "json" else cli._report_text
    expected = ["".join(line(r) + "\n" for r in point) for point in points]
    if fmt == "text":
        expected.append("1053 relations checked, 0 unexpected violations, "
                        "0 expected diagnostics\n")
    assert len(points) == 81
    assert out.writes == expected


def test_closed_pipe_is_not_written_again():
    """A write that finds the pipe closed is the last one: the grid point
    it held is not written again on the way out."""
    class ClosedAfterOneWrite:
        calls = 0

        def write(self, text):
            self.calls += 1
            if self.calls > 1:
                raise BrokenPipeError
            return len(text)

    out = ClosedAfterOneWrite()
    with pytest.raises(BrokenPipeError):
        main(["verify", "--suite", "theorem2", "--type", "I", "--range", "1",
              "--format", "json"], out=out)
    assert out.calls == 2


def test_reports_of_a_quadruple_share_one_params_object(monkeypatch):
    """The 11 reports of each Type II theorem2 quadruple hold one params
    object, so emit_reports encodes params once per quadruple: 5^4 = 625
    times on the Type I grid at range 2."""
    reports = verify_theorem2(TYPE_II, 2)
    assert len(reports) == 11 * 625
    for start in range(0, len(reports), 11):
        params = reports[start].params
        assert all(report.params is params
                   for report in reports[start:start + 11]), params
    encode = cli._ENCODER.encode
    calls = []
    monkeypatch.setattr(cli._ENCODER, "encode",
                        lambda value: calls.append(value) or encode(value))
    assert main(["verify", "--suite", "theorem2", "--type", "I", "--range",
                 "2", "--format", "json"], out=_Discard()) == 0
    assert len(calls) == 625


def test_verify_streams_in_bounded_memory():
    """Reports are written as they are decided, not kept: the theorem2
    grid at range 2 (8,125 reports) stays under 1 MB of Python heap."""
    tracemalloc.start()
    try:
        code = main(["verify", "--suite", "theorem2", "--type", "I",
                     "--range", "2", "--format", "json"], out=_Discard())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 1 << 20, peak


def test_closed_pipe_stops_quietly():
    """A reader that stops after one line ends the run without a
    traceback: exit 1 and nothing on stderr."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    with subprocess.Popen(
            [sys.executable, "-m", "qmpairs.cli", "verify", "--suite",
             "theorem2", "--type", "I", "--range", "3", "--format", "json"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert json.loads(line)["suite"] == "theorem2"
    assert b"Traceback" not in err
    assert (code, err) == (1, b"")


# the CLI vocabulary: subcommands, flags, their values (--range only up
# to 2, so that every call stays small) and short expressions and words
_RANGES = ("-1", "0", "1", "2")
_FORMATS = ("text", "json")
_WORDS = ("S", "T", "S'", "T'", "STS", "SQT", "")
_EXPRESSIONS = ("U1", "U2^-1 * U1", "a1 * b2", "b1 * b2", "(a1 + g2)^2",
                "d * a", "(a + d)^2", "[[a1, b1], [0, g1]]", "1 + s",
                "2 * U1", "a1^", "(")
_ARGV_WORDS = ("reduce", "verify", "modular", "--suite", "--type", "--range",
               "--format", "--word", "--help", "-h", "--", "-", "I", "II",
               "III", "mq2", *SUITES, *_RANGES, *_FORMATS, *_WORDS,
               *_EXPRESSIONS)
# junk has no digits, so that it cannot spell a larger --range
_JUNK = st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=5)
_WORD = st.one_of(st.sampled_from(_ARGV_WORDS), _JUNK)


def _mostly(choices):
    """One of choices three times in four, any word otherwise."""
    return st.integers(0, 3).flatmap(
        lambda pick: _WORD if pick == 0 else st.sampled_from(choices))


def _command(name, required, optional, positional=None):
    """name, each required flag and maybe each optional one with a value,
    the positional word, and now and then one word more."""
    def flag_value(flag, choices):
        return _mostly(choices).map(lambda value: [flag, value])

    parts = [st.just([name])]
    parts += [flag_value(flag, choices) for flag, choices in required]
    parts += [st.one_of(st.just([]), flag_value(flag, choices))
              for flag, choices in optional]
    if positional is not None:
        parts.append(_mostly(positional).map(lambda word: [word]))
    parts.append(st.integers(0, 3).flatmap(
        lambda pick: _WORD.map(lambda word: [word]) if pick == 0
        else st.just([])))
    return st.tuples(*parts).map(lambda lists: sum(lists, []))


_ARGV = st.one_of(
    st.lists(_WORD, max_size=7),
    _command("reduce", [("--type", ("I", "II", "III", "mq2"))],
             [("--format", _FORMATS)], _EXPRESSIONS),
    _command("verify", [("--suite", SUITES)],
             [("--type", ("I", "II", "III")), ("--range", _RANGES),
              ("--format", _FORMATS)]),
    _command("modular", [("--type", ("I", "II", "III")), ("--word", _WORDS)],
             [("--format", _FORMATS)]),
)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_ARGV)
def test_fuzz_argv(argv):
    """Any argument list ends in exit 0, 1 or 2, and nothing escapes."""
    assert main(argv, out=io.StringIO()) in (0, 1, 2), argv
