"""The benchmark tracer's wrap list names attributes that exist.

``bench/run.py`` wraps eqtie functions by (module, attribute) under
``--trace 1``; a rename in the package would only show there as a crash. The
list is read from the script's syntax tree, so nothing in the script runs.
"""

import ast
import importlib
from pathlib import Path

RUN_PY = Path(__file__).resolve().parent.parent / "bench" / "run.py"


def traced_targets():
    tree = ast.parse(RUN_PY.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return [(e.elts[0].value, e.elts[1].value) for e in node.value.elts]
    raise AssertionError("bench/run.py defines no TRACED list")


def test_traced_attributes_resolve():
    targets = traced_targets()
    assert len(targets) > 20
    missing = [
        f"{module}.{attr}"
        for module, attr in targets
        if not callable(getattr(importlib.import_module(f"eqtie.{module}"), attr, None))
    ]
    assert missing == []
