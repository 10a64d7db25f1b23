"""The benchmark's wrap list and library ops run against the package as it is.

``bench/run.py`` wraps eqtie functions by (module, attribute) under
``--trace 1`` and counts from each call's arguments and result, and its
library ops call the public API directly; a rename or a changed signature in
the package would only show there as a crash or a failed op. The list, the
counter functions and ``library_ops`` are run from the script's syntax tree,
so the script's top level, which sets thread environment variables, never
runs.
"""

import ast
import collections
import importlib
import json
from pathlib import Path

import pytest

from eqtie import autsearch, designs, layer, permcore, specio

ROOT = Path(__file__).resolve().parent.parent
RUN_PY = ROOT / "bench" / "run.py"
CORPUS = ROOT / "bench" / "corpus"
COUNTERS = {"_add", "_aut_counts", "_report_counts", "_structure_counts", "_refine_counts"}


def traced_table():
    """(module, attribute) -> counter (or None) of the script's TRACED list."""
    tree = ast.parse(RUN_PY.read_text())
    body = [
        node for node in tree.body
        if (isinstance(node, ast.FunctionDef) and node.name in COUNTERS)
        or (isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ))
    ]
    assert {node.name for node in body if isinstance(node, ast.FunctionDef)} == COUNTERS
    namespace = {}
    exec(compile(ast.Module(body=body, type_ignores=[]), str(RUN_PY), "exec"), namespace)
    assert "TRACED" in namespace, "bench/run.py defines no TRACED list"
    return {(module, attr): count for module, attr, count in namespace["TRACED"]}


TRACED = traced_table()


def library_ops():
    """The script's ``library_ops`` function, with the two module names it reads."""
    tree = ast.parse(RUN_PY.read_text())
    body = [node for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name == "library_ops"]
    assert len(body) == 1, "bench/run.py defines no library_ops function"
    namespace = {"json": json, "BENCH": RUN_PY.parent}
    exec(compile(ast.Module(body=body, type_ignores=[]), str(RUN_PY), "exec"), namespace)
    return namespace["library_ops"]


def test_library_ops_pass_their_own_checks():
    modules = {"permcore": permcore, "designs": designs, "layer": layer}
    ops = library_ops()(modules, seed=1)
    assert sorted(ops) == ["compose-s6", "gconv-z240"]
    for name, (run, check) in ops.items():
        assert check(run()) is None, name


def counts(module, attr, args, result):
    """What the script's counter for ``module.attr`` adds for one call."""
    counter = collections.Counter()
    TRACED[(module, attr)](counter, args, result)
    return dict(counter)


def load(name):
    spec = specio.parse_spec((CORPUS / f"{name}.json").read_text())
    return spec, specio.build_structure(spec), specio.expanded_joint(spec)


def test_traced_attributes_resolve():
    assert len(TRACED) > 20
    missing = [
        f"{module}.{attr}"
        for module, attr in TRACED
        if not callable(getattr(importlib.import_module(f"eqtie.{module}"), attr, None))
    ]
    assert missing == []


@pytest.mark.parametrize("name, listed, generators", [
    ("kk6", 0, 7),  # (6!)^2 > element_cap: 2 kernel and 5 strong generators, nothing listed
    ("sym5", 120, 4),  # listed in full, and still 4 strong generators
])
def test_aut_counts_on_certify(monkeypatch, name, listed, generators):
    _, s, joint = load(name)
    calls = []
    search = autsearch.enumerate_automorphisms

    def recording(*args, **kwargs):
        calls.append((args, search(*args, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(autsearch, "enumerate_automorphisms", recording)
    autsearch.certify_unique(s, joint)
    [(args, result)] = calls
    assert counts("autsearch", "enumerate_automorphisms", args, result) == {
        "autsearch.elements_listed": listed,
        "autsearch.generators_returned": generators,
    }


def test_report_counts_on_check():
    _, s, joint = load("sym5")
    args = (layer.tied_layer_from_structure(s), joint)
    report = layer.check_equivariance(*args, trials=3)
    # every one of the 120 joint elements, two matvecs per trial
    assert counts("layer", "check_equivariance", args, report) == {
        "layer.tested_elements": 120,
        "layer.float_matvecs": 2 * 120 * 3,
    }


def test_design_counts():
    spec, s, _ = load("sym5")
    structure = designs.dense_design(spec.joint)
    # S5 on 5 points both ways: the diagonal (5 cells) and the rest (20 cells)
    assert counts("designs", "dense_design", (spec.joint,), structure) == {
        "designs.relations": 2,
        "designs.edges": 25,
    }
    merged = designs.merge_colors(s)
    assert counts("designs", "merge_colors", (s,), merged) == {"designs.merge_colors_calls": 1}
    mask = specio.dump_mask(specio.build_mask_document(spec, s, certification=None))
    assert counts("specio", "dump_mask", (), mask) == {"specio.mask_bytes": len(mask)}
    dot = specio.to_dot(s, False)
    assert counts("specio", "to_dot", (s, False), dot) == {"specio.dot_bytes": len(dot)}
    group = permcore.close_generators(permcore.symmetric_generators(5))
    assert counts("permcore", "close_generators", (), group) == {"permcore.group_order_sum": 120}
    assert counts("permcore", "joint_action", (), spec.joint) == {"permcore.joint_order_sum": 120}


def test_refine_counts():
    _, s, _ = load("mirror")
    table = autsearch.color_refine(s)
    # one round splits the classes, a second finds them stable
    assert counts("autsearch", "color_refine", (s,), table) == {
        "autsearch.color_refine_calls": 1,
        "autsearch.refine_rounds": 2,
    }
