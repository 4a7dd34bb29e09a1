"""The estimators stay apart.  The closed form reaches none of the biphoton
pipeline, the gedanken model takes only the grid range rule from zwm, and the
tomography fit's Newton solver imports nothing from polsim, so that their
agreement is a check and not a tautology."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "polsim"
PIPELINE = {"signal_amplitudes", "field_map", "coherence_grid", "coherence_matrix"}


def parse(module):
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def called_names(node):
    """The names a piece of code calls, bare or as an attribute."""
    for call in ast.walk(node):
        if isinstance(call, ast.Call):
            func = call.func
            yield func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def reached(tree, name):
    """The functions of a module that calling `name` runs, through the module's own
    functions, and the names those call."""
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    seen, todo = set(), [name]
    while todo:
        current = todo.pop()
        if current in seen:
            continue
        seen.add(current)
        if current in functions:
            todo.extend(called_names(functions[current]))
    return seen


def polsim_imports(tree):
    """(module, names) of every import from polsim: a relative one, or one that
    names polsim; names is None for a plain `import`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("polsim")):
            yield node.module, [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "polsim":
                    yield alias.name, None


def test_closed_form_calls_no_part_of_the_pipeline():
    assert not reached(parse("zwm"), "analytic_p_grid") & PIPELINE


def test_gedanken_takes_only_the_grid_range_rule_from_zwm():
    imports = [entry for entry in polsim_imports(parse("gedanken")) if entry[0] != "errors"]
    assert imports == [("zwm", ["_check_grid"])]


def test_newton_imports_nothing_from_polsim():
    assert not list(polsim_imports(parse("newton")))
