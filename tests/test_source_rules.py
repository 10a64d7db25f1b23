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
LISTING_NAMES = {"elements", "_table", "_closure"}


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
        "def certify_unique(s):\n    r = f(s)\n    return r._group._table or r.elements\n"
        "def g(r):\n    return r._closure, elements\n"
    )
    tree = ast.parse(source)
    assert listing_reads(tree, "certify_unique") == [(3, "_table"), (3, "elements")]
    assert listing_reads(tree, "g") == [(5, "_closure"), (5, "elements")]


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
    """Aut has one group, built on the result; certify builds none of its own."""
    tree = ast.parse((PACKAGE / "autsearch.py").read_text())
    assert "certify_unique" not in calling_functions(tree, "_StabilizerChain")
    assert "certify_unique" not in calling_functions(tree, "_row_group")
    assert "result._group" in attribute_reads(tree, "certify_unique")


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


def test_transversal_rule_sees_calls_and_attributes():
    source = "t = _transversal(0, r)\nc = pc._StabilizerChain(r)\nu = c.transversals\n"
    assert names_read(ast.parse(source), TRANSVERSAL_NAMES) == [
        (1, "_transversal"), (2, "_StabilizerChain"), (3, "transversals"),
    ]


def enclosing_calls(tree, name):
    """(line, innermost enclosing function, or None) of every call of ``name``, bare or dotted."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and called_name(child) == name:
                found.append((child.lineno, function))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else function)

    visit(tree, None)
    return sorted(found)


def test_only_row_group_builds_a_chain():
    """Every stabilizer chain in the package is a ``PermutationGroup``'s, built in one place."""
    builders = [
        (path.stem, function)
        for path in sorted(PACKAGE.glob("*.py"))
        for _, function in enclosing_calls(ast.parse(path.read_text()), "_StabilizerChain")
    ]
    assert builders == [("permcore", "_row_group")]


def test_chain_rule_sees_module_level_nested_and_dotted_calls():
    source = (
        "c = _StabilizerChain(r)\nclass A:\n    def f(self):\n"
        "        def g():\n            return pc._StabilizerChain(r)\n"
        "        return _StabilizerChain(r, 5)\n"
    )
    assert enclosing_calls(ast.parse(source), "_StabilizerChain") == [
        (1, None), (5, "g"), (6, "f"),
    ]


def test_only_the_closure_builds_a_lookup():
    """One lookup per group, its element table: built in ``PermutationGroup._closure`` alone."""
    tree = ast.parse((PACKAGE / "permcore.py").read_text())
    assert [function for _, function in enclosing_calls(tree, "_BaseLookup")] == ["_closure"]
    assert [cls for cls, name in class_methods(tree) if name == "_closure"] == ["PermutationGroup"]
    # one key per element: no run of levels is sorted apart
    assert names_read(tree, {"lexsort"}) == []


# what a group holds inside: the search and certify go through the group's own methods
CHAIN_INTERNALS = {
    "_StabilizerChain", "transversals", "_transversal_products", "_products", "_compose_tuple",
}


def test_autsearch_reads_no_chain_internals():
    tree = ast.parse((PACKAGE / "autsearch.py").read_text())
    assert names_read(tree, CHAIN_INTERNALS) == []


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
RETIRED_PERMCORE_NAMES = {
    "_breadth_first", "_NARROW_LAYER_EDGES", "_cayley_right", "_row_pairs", "_Closure", "index_of",
}


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


# actions, joint actions and Aut are int tables: no class keeps a ``Permutation`` view of one
RETIRED_VIEWS = {"images", "joint_elements", "pair_set", "_pairs", "_listed"}


def class_methods(tree):
    """(class name, method name) of every function defined directly in a class body."""
    return {
        (cls.name, node.name)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


@pytest.mark.parametrize("module", ["permcore", "autsearch"])
def test_no_class_keeps_a_permutation_view(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    assert {(c, name) for c, name in class_methods(tree) if name in RETIRED_VIEWS} == set()


def test_aut_generators_are_one_table():
    """The search's rows over N then M are kept whole: nothing stacks two halves back."""
    assert names_read(ast.parse((PACKAGE / "autsearch.py").read_text()), {"hstack"}) == []


# where ``autsearch`` may build a ``Permutation``: its two views and certify's witness
PERMUTATION_MAKERS = {"perm", "Permutation"}
PERMUTATION_BUILDERS = {
    "AutomorphismResult.generators", "AutomorphismResult.elements", "certify_unique",
}


def annotation_nodes(tree):
    """ids of the nodes inside argument, return and variable annotations."""
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            roots.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            roots.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            roots.append(node.annotation)
    return {id(node) for root in roots for node in ast.walk(root)}


def permutation_reads(tree):
    """(enclosing classes and functions, whether called) of each read of ``perm`` or ``Permutation``.

    Annotations are not reads. A read that is not called passes the
    constructor on as a value, to build ``Permutation`` objects elsewhere.
    """
    skip = annotation_nodes(tree)
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if id(child) in skip:
                continue
            name = child.attr if isinstance(child, ast.Attribute) else getattr(child, "id", None)
            if isinstance(child, (ast.Name, ast.Attribute)) and name in PERMUTATION_MAKERS:
                found.add((".".join(scope), id(child) in called))
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, scope + (child.name,) if named else scope)

    visit(tree, ())
    return found


def test_autsearch_builds_permutations_only_in_its_views_and_witness():
    reads = permutation_reads(ast.parse((PACKAGE / "autsearch.py").read_text()))
    assert reads <= {(scope, True) for scope in PERMUTATION_BUILDERS}


def test_view_rules_see_the_retired_definitions():
    """The views as they were defined: methods named for them, and ``perm`` passed as a view."""
    source = (
        "class Permutation:\n    images: tuple[int, ...]\n"
        "class GroupAction:\n    @cached_property\n    def images(self) -> tuple[Permutation]:\n"
        "        return tuple(Permutation(tuple(r)) for r in self._table.tolist())\n"
        "class JointAction:\n    def _pairs(self, view=tuple):\n        pass\n"
        "    def joint_elements(self):\n        return tuple(self._pairs(perm))\n"
        "class AutomorphismResult:\n    witness: Optional[Permutation] = None\n"
        "    def generators(self) -> tuple[Permutation, ...]:\n"
        "        return tuple(permcore._row_pairs(*self._generator_rows, perm))\n"
        "    def _group(self, x: Permutation):\n"
        "        return permcore._row_group(np.hstack([pns, pms + pns.shape[1]]))\n"
        "    def _listed(self):\n        pass\n    def pair_set(self):\n        pass\n"
        "def certify_unique(s):\n    return perm(pn), pc.Permutation(pm)\n"
    )
    tree = ast.parse(source)
    assert {(c, name) for c, name in class_methods(tree) if name in RETIRED_VIEWS} == {
        ("GroupAction", "images"), ("JointAction", "_pairs"), ("JointAction", "joint_elements"),
        ("AutomorphismResult", "_listed"), ("AutomorphismResult", "pair_set"),
    }
    assert names_read(tree, {"hstack"}) == [(17, "hstack")]
    assert permutation_reads(tree) == {
        ("GroupAction.images", True), ("JointAction.joint_elements", False),
        ("AutomorphismResult.generators", False), ("certify_unique", True),
    }
