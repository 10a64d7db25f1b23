"""Element and action tables listed from stabilizer chains, against the per-element references.

A group's element table, Cayley right table and tree come from its chain's
transversal products, found by their images of the base points; an action's
table comes from the chain of its pairs (s^X, s). Each is compared with the
breadth-first references in ``oracles.py``: a closure with one ``compose``
per product, a Cayley table and tree built from it, and a per-edge action
walk. The cases cover repeated and identity generators, degrees on both sides
of 15 and 32 (the chain's tuple and array routes) and a base long enough
that the lookup splits its keys over two runs.
"""

from __future__ import annotations

import contextlib
import io
import random
from pathlib import Path

import numpy as np
import pytest

import oracles
from eqtie import cli, designs, permcore as pc, specio
from eqtie.permcore import Permutation

CORPUS = Path(__file__).resolve().parent.parent / "bench" / "corpus"


def cycles(degree, *texts):
    return [pc.parse_cycles(t, degree) for t in texts]


def disjoint_factors(degree, factors):
    """Generators of a direct product on consecutive blocks of points, padded to ``degree``."""
    gens, offset = [], 0
    for size, texts in factors:
        for text in texts:
            body = text.strip("()").split(")(")
            shifted = ")(".join(" ".join(str(int(v) + offset) for v in c.split()) for c in body)
            gens.append(pc.parse_cycles(f"({shifted})", degree))
        offset += size
    return gens


CASES = {
    # repeats add no products and the identity generator reaches nothing
    "repeats-and-identity": cycles(4, "(0 1 2)", "()", "(0 1)", "(0 1 2)", "()"),
    "identity-only": cycles(3, "()", "()"),
    "s4": pc.symmetric_generators(4),
    "wreath-2x3": pc.wreath_generators(2, 3),
    # degree 15 and 16: the old row-key boundary; 31 and 32: the tuple route's last degrees
    **{
        f"degree-{d}": cycles(d, "(0 10)(1 13)", "(0 11)", "(3 12)", f"(2 {d - 1})")
        for d in (15, 16, 31, 32)
    },
    # the chain's array route, with several levels
    "degree-33": cycles(33, "(0 1 2 3)(10 20 30)", "(0 1)(32 5)", "(4 6 8)"),
    "degree-48": disjoint_factors(48, [(3, ["(0 1)", "(0 1 2)"]), (4, ["(0 1 2 3)", "(0 2)"])]),
    "d20-on-40": [
        Permutation(tuple(list(g.images) + list(range(20, 40))))
        for g in pc.dihedral_generators(20)
    ],
    # degree 128 and a base of 9 points: 128 ** 9 = 2 ** 63 splits the keys into two runs
    "two-runs": disjoint_factors(
        128, [(3, ["(0 1)", "(0 1 2)"]), (3, ["(0 1)", "(0 1 2)"])] + [(2, ["(0 1)"])] * 5
    ),
}


@pytest.fixture(scope="module", params=list(CASES))
def case(request):
    gens = CASES[request.param]
    group = pc.close_generators(gens)
    elements, gen_ids = oracles.closure_per_element(gens)
    return request.param, gens, group, elements, gen_ids


class TestGroupTables:
    def test_element_table(self, case):
        _, _, group, elements, gen_ids = case
        assert group._table.tolist() == [list(p.images) for p in elements]
        assert group.generator_ids == tuple(gen_ids)
        assert not group._table.flags.writeable

    def test_cayley_right_and_tree(self, case):
        _, _, group, elements, gen_ids = case
        assert group._cayley_right.tolist() == oracles.cayley_right_per_element(elements, gen_ids)
        tree = [tuple(a.tolist() for a in layer) for layer in group._cayley_tree]
        assert tree == oracles.cayley_tree_per_element(elements, gen_ids)

    def test_inverses(self, case):
        _, _, group, elements, _ = case
        index = {p.images: i for i, p in enumerate(elements)}
        expected = [index[pc.inverse(p).images] for p in elements]
        assert [group.inv(i) for i in range(group.order)] == expected
        assert "_index" not in group.__dict__

    def test_lookup_runs(self, case):
        name, _, group, _, _ = case
        runs = group._closure.lookup.runs
        assert len(runs) == (2 if name == "two-runs" else 1 if group._chain.base else 0)
        # the runs cover the base, each level once
        assert [level for a, c, *_ in runs for level in range(a, c)] == list(
            range(len(group._chain.base))
        )


def relabelled_images(group, rng):
    """The natural action conjugated by a random relabelling: always a homomorphism."""
    sigma = list(range(group.degree))
    rng.shuffle(sigma)
    sigma = Permutation(tuple(sigma))
    inverse = pc.inverse(sigma)
    return [pc.compose(sigma, pc.compose(g, inverse)) for g in group.generators]


def actions_of(group):
    rng = random.Random(group.order)
    yield "natural", pc.natural_action(group)
    yield "trivial", pc.trivial_action(group, 3)
    yield "replicated", designs.replicate_action(pc.natural_action(group), 2)
    yield "built", pc.build_action(group, relabelled_images(group, rng), group.degree)
    # the images of the points in the orbit of 0 only: often a quotient
    orbit = np.flatnonzero(pc._orbit_minima(group._generator_rows) == 0)
    images = [
        Permutation(tuple(np.searchsorted(orbit, row[orbit]).tolist()))
        for row in group._generator_rows
    ]
    yield "orbit", pc.build_action(group, images, len(orbit))


class TestActionTables:
    def test_tables_match_the_per_edge_walk(self, case):
        _, _, group, elements, gen_ids = case
        for name, action in actions_of(group):
            gen_images = [Permutation(tuple(row)) for row in action._generator_rows.tolist()]
            expected = oracles.action_per_edge(elements, gen_ids, gen_images, action.target_size)
            assert action._table.tolist() == [list(p.images) for p in expected], name
            assert not action._table.flags.writeable

    def test_natural_action_shares_the_element_table(self, case):
        group = case[2]
        assert pc.natural_action(group)._table is group._table

    def test_built_action_keeps_its_checked_chain(self, case):
        group = case[2]
        action = dict(actions_of(group))["built"]
        chain = action.__dict__["_pair_chain"]
        assert chain.order == group.order
        action._table
        assert action.__dict__["_pair_chain"] is chain


def test_transversal_products_read_only_the_chosen_columns():
    group = pc.close_generators(pc.wreath_generators(3, 2))
    levels = group._chain.transversals
    full = pc._transversal_products(levels, np.arange(group.degree)[None, :])
    assert len(full) == group.order
    assert sorted(map(tuple, full.tolist())) == sorted(map(tuple, group._table.tolist()))
    columns = np.array([4, 0, 5])
    assert np.array_equal(pc._transversal_products(levels, columns[None, :]), full[:, columns])
    # a start table of several rows varies fastest
    starts = np.array([[0, 1, 2, 3, 4, 5], [1, 0, 2, 3, 4, 5]])
    paired = pc._transversal_products(levels, starts)
    assert np.array_equal(paired[1::2], full[:, starts[1]])


@pytest.mark.parametrize("narrow", [0, 10_000], ids=["every-layer-gathered", "every-layer-in-python"])
def test_walk_is_the_same_at_any_layer_width(narrow, monkeypatch):
    gens = pc.symmetric_generators(5)
    elements, gen_ids = oracles.closure_per_element(gens)
    monkeypatch.setattr(pc, "_NARROW_LAYER_EDGES", narrow)
    group = pc.close_generators(gens)
    assert group._table.tolist() == [list(p.images) for p in elements]
    tree = [tuple(a.tolist() for a in layer) for layer in group._cayley_tree]
    assert tree == oracles.cayley_tree_per_element(elements, gen_ids)


def run_cli(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def test_sparse_z240_never_builds_the_tuple_index(monkeypatch, tmp_path):
    def refuse(self):
        raise AssertionError("the tuple index was built")

    monkeypatch.setattr(pc.PermutationGroup, "_index", property(refuse))
    path = CORPUS / "gconv-tied-z240.json"
    structure = specio.build_structure(specio.parse_spec(path.read_text()))
    assert structure.base_color_count > 0
    assert run_cli(["design", "--spec", str(path), "--dot", str(tmp_path / "g.dot")]) == 0


COMMANDS = {"group_info": ["group", "info"], "design": ["design"], "check": ["check", "equivariance"]}


@pytest.mark.parametrize("command", list(COMMANDS))
@pytest.mark.parametrize(
    "spec, expected",
    [
        # one partition per action
        ("gconv-tied-z120", {"group_info": 2, "design": 2, "check": 2}),
        ("mirror", {"group_info": 2, "design": 2, "check": 2}),
        # a dense design reads no action's orbits, only the orbits of its cells
        ("sym7", {"group_info": 2, "design": 1, "check": 1}),
    ],
)
def test_orbits_are_computed_once_per_action(command, spec, expected, monkeypatch):
    calls = []
    minima = pc._orbit_minima

    def counted(gens):
        calls.append(gens.shape)
        return minima(gens)

    monkeypatch.setattr(pc, "_orbit_minima", counted)
    assert run_cli(COMMANDS[command] + ["--spec", str(CORPUS / f"{spec}.json")]) == 0
    assert len(calls) == expected[command]
