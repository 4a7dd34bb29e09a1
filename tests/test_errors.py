"""One error taxonomy.  The class of a PolsimError sets the exit code and the
stderr prefix of the command line, and every raise in src/ names such a
class, so that no bare error reaches cli.main as a traceback."""

import ast
from pathlib import Path

import pytest

from polsim import cli, errors
from polsim.errors import (
    ConfigError,
    IllPosedError,
    ParameterError,
    PolsimError,
    ZeroTraceError,
)

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "polsim").glob("*.py"))
ERROR_CLASSES = {name for name, value in vars(errors).items()
                 if isinstance(value, type) and issubclass(value, PolsimError)}
# (module, function, exception) of the two raises whose exception is caught
# where it is raised: _fit_values turns its OverflowError into a
# ParameterError, and argparse reports a malformed --gamma or --t list
CAUGHT_WHERE_RAISED = {
    ("tomography.py", "_fit_values", "OverflowError"),
    ("cli.py", "_csv_floats", "argparse.ArgumentTypeError"),
}
EXIT_CODES = {
    PolsimError: (2, "error: "),
    ConfigError: (2, "error: "),
    IllPosedError: (2, "error: "),
    ZeroTraceError: (2, "error: "),
    ParameterError: (3, "range error: "),
}


def raises(tree):
    """(enclosing function, raised expression) of every raise statement in a
    module: the class raised, or the variable a bare name re-raises."""
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise):
            scope = node
            while scope in parents and not isinstance(scope, ast.FunctionDef):
                scope = parents[scope]
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            yield getattr(scope, "name", None), None if exc is None else ast.unparse(exc)


def test_every_raise_names_a_polsim_error_class():
    others = {(path.name, scope, raised)
              for path in SOURCES
              for scope, raised in raises(ast.parse(path.read_text(encoding="utf-8")))
              if raised not in ERROR_CLASSES}
    assert others == CAUGHT_WHERE_RAISED


def test_the_exit_code_table_names_every_error_class():
    assert {cls.__name__ for cls in EXIT_CODES} == ERROR_CLASSES


@pytest.mark.parametrize("error", EXIT_CODES, ids=lambda cls: cls.__name__)
def test_the_error_class_sets_the_exit_code_and_the_stderr_prefix(monkeypatch, capsys, error):
    """cli.main maps an error by its class alone, whichever command raises it."""
    def command(args):
        raise error("refused")

    monkeypatch.setattr(cli, "_cmd_selftest", command)
    code, prefix = EXIT_CODES[error]
    assert cli.main(["selftest"]) == code
    captured = capsys.readouterr()
    assert captured.err == f"{prefix}refused\n"
    assert captured.out == ""


@pytest.mark.parametrize("error", EXIT_CODES, ids=lambda cls: cls.__name__)
def test_every_error_class_takes_a_line_number(error):
    assert str(error("refused", line=7)) == "line 7: refused"
    assert error("refused", line=7).line == 7
    assert error("refused").line is None
