"""Every module-level def and class in src/dunkl is used by the package, a
script or the benchmark, not only by the tests.

A use is a name, an attribute, an imported name, or a string that is exactly
the name (bench/tracing.py looks functions up by string), anywhere in
src/dunkl, bench or scripts outside the definition itself.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "dunkl").glob("*.py"))
CALLERS = PACKAGE + sorted((ROOT / "bench").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))


def _uses(tree):
    """(name, line) for every use of a name in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                yield node.value, node.lineno


def _definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            start = min([node.lineno] + [d.lineno for d in node.decorator_list])
            yield node.name, start, node.end_lineno


TREES = {path: ast.parse(path.read_text(), str(path)) for path in CALLERS}
USES = {path: list(_uses(tree)) for path, tree in TREES.items()}


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_every_module_level_name_has_a_caller(path):
    unused = []
    for name, start, end in _definitions(TREES[path]):
        if not any(
            used == name and (other != path or not start <= line <= end)
            for other, uses in USES.items()
            for used, line in uses
        ):
            unused.append(name)
    assert unused == [], f"{path.name} defines names that nothing calls: {unused}"
