"""Element and action tables listed from stabilizer chains, against the per-element references.

A group's element table comes from its chain's transversal products, sorted
and found by their images of the base points; an action's table comes from
the chain of its pairs (s^X, s). Each is compared with the references in
``oracles.py``: a closure with one ``compose`` per product, sorted, and a
per-edge action walk, whose error texts rejected images must also give. The
cases cover repeated and identity generators, degrees on both sides of 15
and of 256 (the chain's byte and array routes; a pair chain of more than 256
points takes the array route too) and two groups whose keys, base images
read as base-degree digits, overflow int64 and are held as Python ints.
"""

from __future__ import annotations

import contextlib
import io
import json
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
    # degree 15 and 16: the old row-key boundary; 31, 32 and 33: the old tuple route's
    # last degree and past it; 255 and 256: the byte route's last; 257: the array route
    **{
        f"degree-{d}": cycles(d, "(0 10)(1 13)", "(0 11)", "(3 12)", f"(2 {d - 1})")
        for d in (15, 16, 31, 32, 255, 256, 257)
    },
    # several levels on the byte route, then on the array route
    "degree-33": cycles(33, "(0 1 2 3)(10 20 30)", "(0 1)(32 5)", "(4 6 8)"),
    "degree-48": disjoint_factors(48, [(3, ["(0 1)", "(0 1 2)"]), (4, ["(0 1 2 3)", "(0 2)"])]),
    "d20-on-40": [
        Permutation(tuple(list(g.images) + list(range(20, 40))))
        for g in pc.dihedral_generators(20)
    ],
    "degree-300": disjoint_factors(
        300, [(3, ["(0 1)", "(0 1 2)"]), (4, ["(0 1 2 3)", "(0 2)"]), (5, ["(0 1 2 3 4)"])]
    ),
    # degree 128 and a base of 9 points: 128 ** 9 = 2 ** 63, one past the int64 keys (named
    # for the two int64 runs an older lookup split its keys into)
    "two-runs": disjoint_factors(
        128, [(3, ["(0 1)", "(0 1 2)"]), (3, ["(0 1)", "(0 1 2)"])] + [(2, ["(0 1)"])] * 5
    ),
    # 12 disjoint transpositions on 64 points: |G| = 4096 and 64 ** 12 = 2 ** 72
    "transpositions-64": cycles(64, *(f"({2 * i} {2 * i + 1})" for i in range(12))),
}

# the cases whose base images overflow an int64 key
OBJECT_KEYS = {"two-runs", "transpositions-64"}


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
        # byte rows are listed as ints: a table adds offsets past 255 without wrapping
        assert group._table.dtype == np.intp
        assert all(t.dtype == np.intp for t in group._chain.transversals)

    def test_inverses(self, case):
        _, _, group, elements, _ = case
        index = {p.images: i for i, p in enumerate(elements)}
        expected = [index[pc.inverse(p).images] for p in elements]
        assert [group.inv(i) for i in range(group.order)] == expected
        assert "_index" not in group.__dict__

    def test_lookup_keys(self, case):
        """One key per element, its base images as base-degree digits; each row finds itself."""
        name, _, group, _, _ = case
        lookup = group._closure
        assert lookup._keys.dtype == (object if name in OBJECT_KEYS else np.int64)
        assert lookup.table is group._table
        base = group._chain.base
        assert np.array_equal(lookup.base, base)
        assert np.array_equal(group._ids(group._table[:, base]), np.arange(group.order))


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

    def test_built_action_keeps_its_checked_chain(self, case, monkeypatch):
        """The pair group ``build_action`` checked, until the table is listed from it."""
        group = case[2]
        built = []
        row_group = pc._row_group
        monkeypatch.setattr(
            pc, "_row_group", lambda *args, **kw: built.append(row_group(*args, **kw)) or built[-1]
        )
        action = dict(actions_of(group))["built"]
        pair_group = action.__dict__["_pair_group"]
        assert any(pair_group is checked for checked in built)
        assert pair_group.order == group.order

        def refuse(*args, **kwargs):
            raise AssertionError("a second chain was built")

        group._table
        monkeypatch.setattr(pc, "_StabilizerChain", refuse)
        assert len(action._table) == group.order
        assert "_pair_group" not in action.__dict__


def test_transversal_products_read_only_the_chosen_columns():
    group = pc.close_generators(pc.wreath_generators(3, 2))
    full = group._products(np.arange(group.degree))
    assert len(full) == group.order
    assert sorted(map(tuple, full.tolist())) == sorted(map(tuple, group._table.tolist()))
    columns = np.array([4, 0, 5])
    assert np.array_equal(group._products(columns), full[:, columns])


def error_texts(group, gen_images, target_size):
    """The GroupError texts of ``build_action`` and of the per-edge reference walk."""
    texts = []
    for build, args in (
        (pc.build_action, (group,)),
        (oracles.action_per_edge, (group.elements, group.generator_ids)),
    ):
        with pytest.raises(pc.GroupError) as info:
            build(*args, gen_images, target_size)
        texts.append(str(info.value))
    return texts


class TestErrorWalk:
    """Rejected images name the first Cayley edge they break, as the per-edge walk does."""

    def test_late_conflict(self):
        # Z240 sent onto a 480-cycle: every edge agrees until g^240 would be the cycle's 240th power
        group = pc.close_generators(pc.cyclic_generators(240))
        shift = [Permutation(tuple((i + 1) % 480 for i in range(480)))]
        expected = "inconsistent action: element () receives two distinct images"
        assert error_texts(group, shift, 480) == [expected] * 2

    @pytest.mark.parametrize("name", ["degree-33", "degree-48", "d20-on-40", "degree-300"])
    def test_conflicts_off_the_identity_above_degree_32(self, name):
        group = pc.close_generators(CASES[name])
        rng = random.Random(name)
        named = set()
        for _ in range(6):
            images = [Permutation(tuple(rng.sample(range(5), 5))) for _ in group.generator_ids]
            built, walked = error_texts(group, images, 5)
            assert built == walked
            named.add(built.split()[3])
        assert named - {"()"}, "every conflict was at the identity"

    # The ids name the walk's two former layer routes; each now picks the seed of its images.
    @pytest.mark.parametrize(
        "seed", [0, 10_000], ids=["every-layer-gathered", "every-layer-in-python"]
    )
    def test_the_same_at_any_layer_width(self, seed):
        group = pc.close_generators(pc.symmetric_generators(5))
        rng = random.Random(seed)
        for _ in range(10):
            images = [Permutation(tuple(rng.sample(range(6), 6))) for _ in group.generator_ids]
            built, walked = error_texts(group, images, 6)
            assert built == walked


def run_cli(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def test_parsing_z240_builds_three_chains(monkeypatch):
    """The group's chain and each action's pair chain; the genset holds G's generator."""
    built = []
    chain = pc._StabilizerChain

    def counted(gens, limit=None):
        built.append(gens.shape)
        return chain(gens, limit)

    monkeypatch.setattr(pc, "_StabilizerChain", counted)
    specio.parse_spec((CORPUS / "gconv-tied-z240.json").read_text())
    assert sorted(built) == [(1, 240), (1, 480), (1, 480)]


def test_sparse_z240_never_builds_the_tuple_index(monkeypatch, tmp_path):
    def refuse(self):
        raise AssertionError("the tuple index was built")

    monkeypatch.setattr(pc.PermutationGroup, "_index", property(refuse))
    path = CORPUS / "gconv-tied-z240.json"
    structure = specio.build_structure(specio.parse_spec(path.read_text()))
    assert structure.base_color_count > 0
    assert run_cli(["design", "--spec", str(path), "--dot", str(tmp_path / "g.dot")]) == 0


DENSE_SPECS = sorted(
    path.stem for path in CORPUS.glob("*.json") if json.loads(path.read_text())["design"] == "dense"
)


@pytest.mark.parametrize(
    "command", [["group", "info"], ["design"], ["certify", "unique"]],
    ids=["group_info", "design", "certify"],
)
@pytest.mark.parametrize("spec", DENSE_SPECS)
def test_dense_paths_list_no_element(spec, command, monkeypatch):
    """A dense spec's parse, design and certificate read generators and chains, never G's table."""
    argv = command + ["--spec", str(CORPUS / f"{spec}.json")]
    expected = run_cli(argv)

    def refuse(self):
        raise AssertionError("the group's elements were listed")

    monkeypatch.setattr(pc.PermutationGroup, "_closure", property(refuse))
    assert run_cli(argv) == expected


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
