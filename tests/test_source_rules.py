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


def called_name(call):
    """The name a call's function is read by: ``f`` of ``f(...)`` and of ``m.f(...)``."""
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def constructor_calls(tree):
    """(line, class name) of every call of a class in ``CONSTRUCTOR_CALLERS``, bare or dotted."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and called_name(node) in CONSTRUCTOR_CALLERS:
            found.append((node.lineno, called_name(node)))
    return sorted(found)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_constructors_called_only_where_allowed(path):
    calls = constructor_calls(ast.parse(path.read_text(), str(path)))
    assert [(line, name) for line, name in calls if path.stem not in CONSTRUCTOR_CALLERS[name]] == []


def test_rule_sees_bare_and_dotted_calls():
    source = "a = PermutationGroup(r, i, 1)\nb = pc.GroupAction(g, 2, r)\nc = pc.GroupAction\n"
    assert constructor_calls(ast.parse(source)) == [(1, "PermutationGroup"), (2, "GroupAction")]


# what reads or builds the automorphism listing; certify finds its witness without it
LISTING_NAMES = {"_listed", "elements", "pair_set"}


def listing_reads(tree, function):
    """(line, name) of every attribute or name in ``LISTING_NAMES`` inside ``function``."""
    found = []
    for func in ast.walk(tree):
        if isinstance(func, ast.FunctionDef) and func.name == function:
            for node in ast.walk(func):
                name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
                if name in LISTING_NAMES:
                    found.append((node.lineno, name))
    return sorted(found)


def test_certify_reads_no_listing():
    tree = ast.parse((PACKAGE / "autsearch.py").read_text())
    assert any(isinstance(f, ast.FunctionDef) and f.name == "certify_unique" for f in tree.body)
    assert listing_reads(tree, "certify_unique") == []


def test_listing_rule_sees_attribute_and_name_reads():
    source = (
        "def certify_unique(s):\n    r = f(s)\n    return r._listed or r.elements\n"
        "def g(r):\n    return r.pair_set(), _listed\n"
    )
    tree = ast.parse(source)
    assert listing_reads(tree, "certify_unique") == [(3, "_listed"), (3, "elements")]
    assert listing_reads(tree, "g") == [(5, "_listed"), (5, "pair_set")]


# every mask leaves the package through specio.dump_mask, which keeps its bytes
JSON_WRITERS = {"dump", "dumps"}
MASK_WRITERS = ("_run_design", "_run_certify")


def json_writer_calls(tree, function):
    """(line, name) of every call of ``dump`` or ``dumps``, bare or dotted, inside ``function``."""
    found = []
    for func in ast.walk(tree):
        if isinstance(func, ast.FunctionDef) and func.name == function:
            for node in ast.walk(func):
                if isinstance(node, ast.Call) and called_name(node) in JSON_WRITERS:
                    found.append((node.lineno, called_name(node)))
    return sorted(found)


@pytest.mark.parametrize("function", MASK_WRITERS)
def test_mask_commands_write_only_through_dump_mask(function):
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    assert any(isinstance(f, ast.FunctionDef) and f.name == function for f in tree.body)
    assert json_writer_calls(tree, function) == []


def test_writer_rule_sees_bare_and_dotted_calls():
    source = (
        "def _run_design(a):\n    t = specio.dump_mask(d)\n    return json.dumps(d, indent=2)\n"
        "def _run_certify(a):\n    dumps(d)\n    json.dump(d, f)\n    return json.dumps\n"
    )
    tree = ast.parse(source)
    assert json_writer_calls(tree, "_run_design") == [(3, "dumps")]
    assert json_writer_calls(tree, "_run_certify") == [(5, "dumps"), (6, "dump")]


def calling_functions(tree, name):
    """Names of the functions whose bodies call ``name``, bare or dotted, nested ones included."""
    found = set()
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if any(
                isinstance(node, ast.Call) and called_name(node) == name for node in ast.walk(func)
            ):
                found.add(func.name)
    return found


def attribute_reads(tree, function):
    """Source text of every attribute read inside ``function``, e.g. ``result._chain``."""
    return {
        ast.unparse(node)
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef) and func.name == function
        for node in ast.walk(func)
        if isinstance(node, ast.Attribute)
    }


def test_certify_walks_the_results_chain():
    """Aut has one chain, built on the result; certify builds none of its own."""
    tree = ast.parse((PACKAGE / "autsearch.py").read_text())
    assert "certify_unique" not in calling_functions(tree, "_StabilizerChain")
    assert "result._chain" in attribute_reads(tree, "certify_unique")


def test_caller_rule_sees_methods_and_dotted_calls():
    source = (
        "class A:\n    @property\n    def t(self):\n        return pc._StabilizerChain(r)\n"
        "def certify_unique(s):\n    return _StabilizerChain(r), result._chain\n"
        "def other():\n    return _StabilizerChain\n"
    )
    tree = ast.parse(source)
    assert calling_functions(tree, "_StabilizerChain") == {"t", "certify_unique"}
    assert attribute_reads(tree, "certify_unique") == {"result._chain"}


# the automorphism search keeps candidate sets as int bitmasks
SEARCH_SET_NAMES = {"frozenset"}


def names_read(tree, names):
    """(line, name) of every bare or dotted name in ``names``, annotations included."""
    found = []
    for node in ast.walk(tree):
        name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
        if isinstance(node, (ast.Name, ast.Attribute)) and name in names:
            found.append((node.lineno, name))
    return sorted(found)


def test_search_names_no_frozenset():
    tree = ast.parse((PACKAGE / "autsearch.py").read_text())
    assert names_read(tree, SEARCH_SET_NAMES) == []


def test_set_rule_sees_calls_annotations_and_attributes():
    source = (
        "def f(c: list[frozenset[int]]) -> int:\n    return frozenset(c)\n"
        "g = builtins.frozenset\nh = 'frozenset'\n"
    )
    assert names_read(ast.parse(source), SEARCH_SET_NAMES) == [
        (1, "frozenset"), (2, "frozenset"), (3, "frozenset"),
    ]


# the search keeps each base orbit as a set of points: no transversal, no chain
TRANSVERSAL_NAMES = {"_transversal", "_transversal_rows", "transversals", "_StabilizerChain"}


def test_search_builds_no_transversal():
    tree = ast.parse((PACKAGE / "autsearch.py").read_text())
    search = next(
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "enumerate_automorphisms"
    )
    assert names_read(search, TRANSVERSAL_NAMES) == []
    assert names_read(tree, TRANSVERSAL_NAMES) != []  # the rule sees the listing's use


# the float replay permutes by one flat scatter and one flat take: no inverse
# rows and no broadcast index per element
REPLAY_NAMES = {"argsort", "take_along_axis"}


def test_replay_sorts_no_rows_and_broadcasts_no_index():
    tree = ast.parse((PACKAGE / "layer.py").read_text())
    verify = next(
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_verify"
    )
    assert names_read(verify, REPLAY_NAMES) == []
    assert names_read(verify, {"take"}) != []  # the rule sees the replay's own calls


# retired with the breadth-first ids: element ids are the chain's sorted listing
RETIRED_PERMCORE_NAMES = {"_breadth_first", "_NARROW_LAYER_EDGES", "_cayley_right"}


def defined_names(tree):
    """Every function, class and assignment target a module binds, at any depth."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            found.add(node.id)
    return found


def test_permcore_keeps_no_breadth_first_walk_or_cayley_table():
    tree = ast.parse((PACKAGE / "permcore.py").read_text())
    assert defined_names(tree) & RETIRED_PERMCORE_NAMES == set()


def private_group_reads(tree):
    """(line, source) of every private attribute read off ``group`` or ``<anything>.group``."""
    return sorted(
        (node.lineno, ast.unparse(node))
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("_") and not node.attr.startswith("__")
        and ast.unparse(node.value).split(".")[-1] == "group"
    )


def test_specio_reads_no_private_attribute_of_a_group():
    """Genset words go through ``PermutationGroup.word_ids``; generators through ``generators``."""
    assert private_group_reads(ast.parse((PACKAGE / "specio.py").read_text())) == []


def test_retired_rules_see_their_targets():
    source = (
        "_NARROW_LAYER_EDGES = 64\nclass G:\n    def _cayley_right(self):\n        pass\n"
        "r = group._cayley_right\nc = spec.group._chain\nk = group.order\nd = grouping._x\n"
    )
    tree = ast.parse(source)
    assert defined_names(tree) & RETIRED_PERMCORE_NAMES == {"_NARROW_LAYER_EDGES", "_cayley_right"}
    assert private_group_reads(tree) == [(5, "group._cayley_right"), (6, "spec.group._chain")]
