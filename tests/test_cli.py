"""CLI contract: commands, exit codes, deterministic JSON reports."""

import io
import json
import os
import subprocess
import sys
import tracemalloc

import pytest

from qmpairs import TYPE_II, cli, verify_prop1, verify_theorem2
from qmpairs.cli import main, collect_reports, suites_for
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


def test_reduce_deep_background_word_exits_0():
    code, out = _run(["reduce", "--type", "mq2", "d^40 * a^40"])
    assert code == 0
    product = QGElement.generator("d", 40) * QGElement.generator("a", 40)
    assert len(product.terms) == 41
    assert out == product.text() + "\n"


def test_reduce_recursion_error_exits_1(capsys, monkeypatch):
    def too_deep(src):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "parse_background", too_deep)
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


def test_usage_errors_exit_2():
    for argv in (
        ["verify", "--suite", "prop1"],                      # no --type
        ["verify", "--suite", "prop2", "--type", "II"],
        ["verify", "--suite", "theorem3", "--type", "III"],
        ["verify", "--suite", "prop1", "--type", "I", "--range", "0"],
        ["verify", "--suite", "nope", "--type", "I"],
        ["modular", "--type", "III", "--word", "S"],
        ["modular", "--type", "I", "--word", "SQT"],
        ["reduce", "--type", "IV", "a1"],
        ["bogus"],
    ):
        code, _ = _run(argv)
        assert code == 2, argv


def test_suite_all_composition():
    assert suites_for("I") == ["prop1", "prop2", "prop3", "theorem1",
                               "theorem2", "theorem3", "mq2"]
    assert "prop2" not in suites_for("II")
    assert "theorem3" not in suites_for("III")
    assert suites_for("III")[-1] == "mq2"


def test_collect_reports_mq2_needs_no_family():
    reports = collect_reports("mq2", None, 1)
    assert reports
    assert all(r.family == "mq2" for r in reports)


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
    for argv in (
        ["verify", "--suite", "prop1"],
        ["verify", "--suite", "prop2", "--type", "II"],
        ["verify", "--suite", "theorem3", "--type", "III"],
        ["verify", "--suite", "prop1", "--type", "I", "--range", "0"],
        ["verify", "--suite", "nope", "--type", "I"],
        ["modular", "--type", "III", "--word", "S"],
        ["modular", "--type", "I", "--word", "SQT"],
        ["reduce", "--type", "IV", "a1"],
        ["bogus"],
    ):
        assert _run(argv) == (2, ""), argv


def test_engine_error_mid_stream_keeps_written_lines(capsys, monkeypatch):
    first = RelationReport("prop1", "I", {"n": 0}, "x = x")

    def failing(suite, family_token, power_range):
        yield first
        raise ValueError("engine failure")

    monkeypatch.setattr(cli, "stream_reports", failing)
    code, out = _run(["verify", "--suite", "prop1", "--type", "I",
                      "--format", "json"])
    assert (code, out) == (1, cli._report_json(first) + "\n")
    assert capsys.readouterr().err == "error: ValueError: engine failure\n"


def _encoded(report):
    return json.dumps({
        "suite": report.suite, "family": report.family,
        "params": report.params, "relation": report.relation,
        "status": report.status, "expected": report.expected,
        "lhs": report.lhs, "rhs": report.rhs}, sort_keys=True)


@pytest.mark.parametrize("family", ["I", "II", "III"])
def test_report_json_matches_encoder(family):
    for suite in suites_for(family):
        for report in collect_reports(suite, family, 2):
            assert cli._report_json(report) == _encoded(report)


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
    for report in reports:
        assert cli._report_json(report) == _encoded(report)


def test_suite_functions_return_the_collected_stream():
    stream = verify_theorem2.stream(TYPE_II, 1)
    assert not isinstance(stream, list)
    assert list(stream) == verify_theorem2(TYPE_II, 1)
    assert isinstance(verify_prop1(TYPE_II, 1), list)


class _Discard:
    def write(self, text):
        return len(text)


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
