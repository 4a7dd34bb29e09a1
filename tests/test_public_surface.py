"""Every public name of polsim has a caller.  A module-level name that a
module of src/polsim defines, and that does not begin with an underscore, is
used in the code (not the docstrings) of src/, of tests/test_acceptance.py or
of the README's library example; a name nothing uses is a name to delete."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "polsim").glob("*.py"))
# run_sweep's one caller is perfbench/make_reference.py, which rebuilds the
# benchmark's reference rows and changes only with the benchmark
UNCALLED = {"run_sweep"}


def defined_names(tree):
    """The names a module's top-level defs, classes and assignments bind."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))


def used_names(tree):
    """The names a piece of code reads, bare or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_public_name_has_a_caller():
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES]
    public = {name for tree in trees for name in defined_names(tree) if not name.startswith("_")}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    example = re.search(r"```python\n(.*?)```", readme[readme.index("## Library use"):],
                        re.DOTALL).group(1)
    callers = [*trees, ast.parse(example),
               ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))]
    used = {name for tree in callers for name in used_names(tree)}
    assert public - used == UNCALLED
