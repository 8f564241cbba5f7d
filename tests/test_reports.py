"""RelationReport: a plain slotted record, and a cheap import."""

import os
import subprocess
import sys

import pytest

from qmpairs.reports import HOLDS, VIOLATED, RelationReport


def test_positional_and_keyword_signature_with_defaults():
    report = RelationReport("prop1", "I")
    assert (report.suite, report.family, report.params, report.relation,
            report.status, report.expected, report.lhs, report.rhs) == \
        ("prop1", "I", {}, "", HOLDS, False, None, None)
    # each default params is a dict of its own
    assert report.params is not RelationReport("prop1", "I").params
    positional = RelationReport("s", "II", {"n": 1}, "x = y", VIOLATED, True,
                                "x", "y")
    keyword = RelationReport(rhs="y", lhs="x", expected=True,
                             status=VIOLATED, relation="x = y",
                             params={"n": 1}, family="II", suite="s")
    assert positional == keyword
    with pytest.raises(TypeError):
        RelationReport("s")
    with pytest.raises(TypeError):
        RelationReport("s", "I", {}, "r", HOLDS, False, None, None, "extra")


def test_equality_is_field_wise_between_reports_only():
    report = RelationReport("s", "I", {"n": 1}, "r")
    assert report == RelationReport("s", "I", {"n": 1}, "r")
    for field, other in (("suite", "t"), ("family", "II"),
                         ("params", {"n": 2}), ("relation", "q"),
                         ("status", VIOLATED), ("expected", True),
                         ("lhs", "x"), ("rhs", "y")):
        changed = RelationReport("s", "I", {"n": 1}, "r")
        setattr(changed, field, other)
        assert report != changed, field

    class Subclass(RelationReport):
        __slots__ = ()

    assert report != Subclass("s", "I", {"n": 1}, "r")
    assert report != ("s", "I", {"n": 1}, "r", HOLDS, False, None, None)
    assert report.__eq__(object()) is NotImplemented


def test_reports_are_not_hashable():
    assert RelationReport.__hash__ is None
    with pytest.raises(TypeError):
        hash(RelationReport("s", "I"))


def test_repr_names_every_field():
    report = RelationReport("s", "I", {"n": 1}, "x = y", VIOLATED, False,
                            "x", "y")
    assert repr(report) == (
        "RelationReport(suite='s', family='I', params={'n': 1}, "
        "relation='x = y', status='violated', expected=False, lhs='x', "
        "rhs='y')")


def test_ok():
    assert RelationReport("s", "I").ok()
    assert not RelationReport("s", "I", {}, "r", VIOLATED).ok()
    assert RelationReport("s", "I", {}, "r", VIOLATED, True).ok()


def test_report_has_no_instance_dict():
    with pytest.raises(AttributeError):
        RelationReport("s", "I").note = "x"


def test_cli_import_leaves_dataclasses_out():
    # dataclasses imports inspect, ast, dis and tokenize: about 12 ms of
    # startup in every qmp process
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    code = "import sys, qmpairs.cli; print('dataclasses' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == "False\n"
