"""Rules the package source keeps, checked on its syntax tree."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "eqtie"


def function_local_imports(tree):
    """(line, function name) of every import inside a function or method body."""
    found = []
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    found.append((node.lineno, func.name))
    return sorted(set(found))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_function_local_imports(path):
    assert function_local_imports(ast.parse(path.read_text(), str(path))) == []


def test_rule_sees_nested_imports():
    source = "import os\nclass A:\n    def f(self):\n        def g():\n            import re\n"
    tree = ast.parse(source)
    assert function_local_imports(tree) == [(5, "f"), (5, "g")]


# the modules allowed to call each constructor: a group is always <generators>,
# and an action is always generator rows its builders know to be images
CONSTRUCTOR_CALLERS = {
    "PermutationGroup": {"permcore"},
    "GroupAction": {"permcore", "designs"},
}


def constructor_calls(tree):
    """(line, class name) of every call of a class in ``CONSTRUCTOR_CALLERS``, bare or dotted."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in CONSTRUCTOR_CALLERS:
                found.append((node.lineno, name))
    return sorted(found)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_constructors_called_only_where_allowed(path):
    calls = constructor_calls(ast.parse(path.read_text(), str(path)))
    assert [(line, name) for line, name in calls if path.stem not in CONSTRUCTOR_CALLERS[name]] == []


def test_rule_sees_bare_and_dotted_calls():
    source = "a = PermutationGroup(r, i, 1)\nb = pc.GroupAction(g, 2, r)\nc = pc.GroupAction\n"
    assert constructor_calls(ast.parse(source)) == [(1, "PermutationGroup"), (2, "GroupAction")]
