"""Start-up: a qmp process imports only the engine modules its command runs.

Each check runs in a fresh interpreter, since the test process has long
loaded every module.
"""

import os
import subprocess
import sys

import pytest

import qmpairs
from qmpairs import cli, grammar, modular
from qmpairs.algebra import RelationFamily

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")

_PROBE = """
import sys
print("LOADED", " ".join(sorted(name[len("qmpairs."):] for name in sys.modules
                               if name.startswith("qmpairs."))))
"""


def _fresh(code):
    """Run code in a fresh interpreter; its stdout, and the set of
    qmpairs submodules loaded when it ends."""
    done = subprocess.run([sys.executable, "-c", code + _PROBE],
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    out, _, last = done.stdout.rstrip("\n").rpartition("\n")
    assert last.startswith("LOADED")
    return out, set(last.split()[1:])


def _after_main(*argv):
    """The submodules loaded by one cli.main call, and its exit code."""
    out, loaded = _fresh("import io\nfrom qmpairs import cli\n"
                         "print(cli.main(%r, out=io.StringIO()))"
                         % list(argv))
    return int(out.split()[-1]), loaded


def test_package_and_cli_import_no_engine_module():
    assert _fresh("import qmpairs")[1] == set()
    assert _fresh("import qmpairs.cli")[1] == {"cli"}


def test_background_grid_loads_scalars_reports_and_mq2():
    code, loaded = _after_main("verify", "--suite", "mq2", "--range", "1")
    assert (code, loaded) == (0, {"cli", "scalars", "reports", "mq2"})


def test_theorem2_loads_no_background_modular_or_parser():
    code, loaded = _after_main("verify", "--suite", "theorem2", "--type",
                               "I", "--range", "1")
    assert code == 0
    assert "pairs" in loaded
    assert not loaded & {"mq2", "modular", "grammar"}


@pytest.mark.parametrize("argv, code", [
    (("verify", "--suite", "prop1"), 2),
    (("verify", "--suite", "theorem3", "--type", "III"), 2),
    (("verify", "--suite", "all", "--type", "I", "--range", "0"), 2),
    (("reduce", "--type", "II", "b1 * b2"), 1)])
def test_exit_code_is_decided_without_parser_or_modular(argv, code):
    # exit 2 against exit 1 is told by one base class in the package
    got, loaded = _after_main(*argv)
    assert got == code
    assert not loaded & {"modular", "mq2"}
    if argv[0] == "verify":
        assert loaded == {"cli"}


def test_modular_command_loads_no_background_or_parser():
    code, loaded = _after_main("modular", "--type", "I", "--word", "S T")
    assert code == 0
    assert {"modular", "pairs"} <= loaded
    assert not loaded & {"mq2", "grammar"}


@pytest.mark.parametrize("code, engine", [
    ("from qmpairs import grammar\ngrammar.parse_background('d^3 * a')",
     {"mq2", "scalars", "reports"}),
    ("from qmpairs import grammar, TYPE_I\n"
     "grammar.parse_triangular('[[a1, b1], [0, g1]]^2 * U2', TYPE_I)",
     {"algebra", "matrices", "scalars"})], ids=["background", "triangular"])
def test_each_parser_mode_loads_only_its_engine(code, engine):
    assert _fresh(code)[1] == {"grammar"} | engine


@pytest.mark.parametrize("family, engine", [
    ("mq2", {"mq2", "scalars", "reports"}),
    ("I", {"algebra", "matrices", "scalars"})])
def test_reduce_loads_only_its_mode(family, engine):
    code, loaded = _after_main("reduce", "--type", family, "1")
    assert (code, loaded) == (0, {"cli", "grammar"} | engine)


def test_exports_are_their_home_module_objects():
    _fresh("""
import importlib, sys, qmpairs
assert len(qmpairs.__all__) == 65
for name in qmpairs.__all__[:-1]:
    home = importlib.import_module("qmpairs." + qmpairs._HOME[name])
    value = getattr(qmpairs, name)
    assert value is getattr(home, name), name
    assert qmpairs.__dict__[name] is value, name
    defined = getattr(value, "__module__", None)
    if defined is not None and defined.startswith("qmpairs."):
        assert getattr(sys.modules[defined], name) is value, name
assert qmpairs.__version__ == "0.1.0"
""")


def test_star_import_dir_and_unknown_names():
    _fresh("""
import sys, qmpairs
assert set(qmpairs.__all__) <= set(dir(qmpairs))
for name in ("nonexistent", "__wrapped__"):
    try:
        getattr(qmpairs, name)
    except AttributeError as err:
        assert str(err) == "module 'qmpairs' has no attribute %r" % name
    else:
        raise AssertionError(name)
from qmpairs import mq2, reports
assert mq2 is sys.modules["qmpairs.mq2"] is qmpairs.mq2
assert reports is sys.modules["qmpairs.reports"]
space = {}
exec("from qmpairs import *", space)
space.pop("__builtins__")
assert sorted(space) == sorted(qmpairs.__all__) and len(space) == 65
""")


def test_input_errors_share_one_base():
    for error in (grammar.ParseError, modular.WordSyntaxError,
                  modular.UnsupportedFamily, cli.UsageError):
        assert issubclass(error, qmpairs.InputError), error
        assert issubclass(error, ValueError), error
    assert qmpairs.ParseError is grammar.ParseError
    assert not issubclass(modular.CorrespondenceBroken, qmpairs.InputError)


def test_family_tokens_are_the_family_values():
    assert cli._FAMILIES == tuple(family.value for family in RelationFamily)
    assert all(cli._family(family.value) is family
               for family in RelationFamily)
