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
