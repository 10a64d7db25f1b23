"""Generator-only answers against the element-listing references.

``close_generators``, ``build_action``, ``JointAction``, ``orbits`` and
``classify_action`` answer order questions from a stabilizer chain over the
generators and list no element. These tests compare them with the references
in ``oracles.py`` (a closure with one ``compose`` per product, a per-edge
action walk, table-based orbits and profiles) and with sympy, on seeded random
generator lists of degree at most 8 and on cyclic and dihedral groups of
degree up to 240. Tables built on first use must equal the eager ones. The
chain's own order, base and membership are checked against sympy on sparse
generator sets of degree 1 to 300, across the byte route's 256-point bound.
"""

from __future__ import annotations

import contextlib
import io
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import oracles
from eqtie import cli, designs, layer, permcore as pc, specio
from eqtie.permcore import GroupError, Permutation

CORPUS = Path(__file__).resolve().parent.parent / "bench" / "corpus"


def random_perm(rng: random.Random, degree: int) -> Permutation:
    """A random permutation moving a random subset of the points, so small groups come up too."""
    moved = rng.sample(range(degree), rng.randint(0, degree))
    images = list(range(degree))
    for a, b in zip(moved, moved[1:] + moved[:1]):
        images[a] = b
    if rng.random() < 0.3:  # a second, disjoint-or-not factor
        other = rng.sample(range(degree), rng.randint(0, degree))
        swap = list(range(degree))
        for a, b in zip(other, other[1:] + other[:1]):
            swap[a] = b
        images = [images[v] for v in swap]
    return Permutation(tuple(images))


def random_generator_lists(count: int, seed: int) -> list[list[Permutation]]:
    rng = random.Random(seed)
    lists = []
    for _ in range(count):
        degree = rng.randint(1, 8)
        gens = [random_perm(rng, degree) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.2:
            gens.append(rng.choice(gens + [pc.identity(degree)]))  # a repeat or the identity
        lists.append(gens)
    return lists


combinatorics = pytest.importorskip("sympy.combinatorics")


def sympy_order(rows) -> int:
    return combinatorics.PermutationGroup(
        [combinatorics.Permutation(list(r)) for r in rows]
    ).order()


RANDOM_LISTS = random_generator_lists(120, seed=20261018)
# every sixth list whose group is within the order cap
LISTED = [
    i for i, gens in enumerate(RANDOM_LISTS)
    if sympy_order(g.images for g in gens) <= pc.DEFAULT_ORDER_CAP
][::6]
WIDE_GROUPS = {
    "z120": pc.cyclic_generators(120),
    "z240": pc.cyclic_generators(240),
    "d60": pc.dihedral_generators(60),
    "d120": pc.dihedral_generators(120),
}


class TestChainOrder:
    def test_random_lists_match_sympy_and_the_closure(self):
        checked = capped = 0
        for gens in RANDOM_LISTS:
            expected = sympy_order(g.images for g in gens)
            assert pc._row_group(np.array([g.images for g in gens])).order == expected
            if expected > pc.DEFAULT_ORDER_CAP:
                with pytest.raises(GroupError, match="order cap exceeded"):
                    pc.close_generators(gens)
                capped += 1
                continue
            group = pc.close_generators(gens)
            assert "_closure" not in group.__dict__
            elements, gen_ids = oracles.closure_per_element(gens)
            assert group.order == len(elements) == expected
            assert group.generator_ids == tuple(gen_ids)
            assert group.elements == tuple(elements)
            checked += 1
        assert checked > 80 and capped > 0

    @pytest.mark.parametrize("name", list(WIDE_GROUPS))
    def test_wide_groups(self, name):
        gens = WIDE_GROUPS[name]
        group = pc.close_generators(gens)
        elements, gen_ids = oracles.closure_per_element(gens)
        assert group.order == len(elements) == sympy_order(g.images for g in gens)
        assert group.generator_ids == tuple(gen_ids)
        assert group.elements == tuple(elements)

    def test_cap_is_checked_against_the_order(self):
        assert pc.close_generators(pc.symmetric_generators(7), cap=5040).order == 5040
        with pytest.raises(GroupError, match="more than 5039 elements; raise the cap"):
            pc.close_generators(pc.symmetric_generators(7), cap=5039)
        # S_30 stops once the orbits alone pass the cap; nothing is listed
        with pytest.raises(GroupError, match="order cap exceeded"):
            pc.close_generators(pc.symmetric_generators(30))

    def test_limit_stops_above_it(self):
        rows = np.array([g.images for g in pc.symmetric_generators(12)])
        assert pc._row_group(rows, limit=1000).order > 1000
        assert pc._row_group(rows).order == 479001600

    def test_capped_orbit_holds_at_most_cap_plus_one_reps(self):
        # Z_3000 on 3000 points: the whole transversal would be 3000 x 3000 ints
        rows = np.array([g.images for g in pc.cyclic_generators(3000)])
        tracemalloc.start()
        try:
            with pytest.raises(GroupError, match="more than 100 elements"):
                pc.close_generators(pc.cyclic_generators(3000), cap=100)
            assert pc._row_group(rows, limit=100).order == 101
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_degree_one(self):
        group = pc.close_generators([pc.identity(1), pc.identity(1)])
        assert (group.order, group.generator_ids) == (1, (0,))
        assert group._table.tolist() == [[0]]


def sparse_generators(rng: random.Random, degree: int) -> list[list[int]]:
    """1-3 image rows that cycle points of one small random support, so sympy stays quick."""
    support = rng.sample(range(degree), min(degree, rng.randint(1, 9)))
    rows = []
    for _ in range(rng.randint(1, 3)):
        moved = rng.sample(support, rng.randint(0, len(support)))
        images = list(range(degree))
        for a, b in zip(moved, moved[1:] + moved[:1]):
            images[a] = b
        rows.append(images)
    return rows


def sympy_base(group) -> list[int]:
    """Smallest point moved by the pointwise stabilizer of the points so far, level by level."""
    base = []
    while True:
        stab = group.pointwise_stabilizer(base) if base else group
        moved = set().union(*(g.support() for g in stab.generators))
        if not moved:
            return base
        base.append(min(moved))


# the byte route's widths and both sides of its 256-point bound, then random degrees
CHAIN_DEGREES = [1, 2, 33, 255, 256, 257, 300] + random.Random(31).choices(range(1, 301), k=33)


@pytest.mark.parametrize("seed", range(len(CHAIN_DEGREES)))
def test_chain_matches_sympy(seed):
    """Order, base and membership of a chain against sympy's Schreier-Sims."""
    rng = random.Random(seed)
    degree = CHAIN_DEGREES[seed]
    rows = sparse_generators(rng, degree)
    chain = pc._StabilizerChain(np.array(rows))
    assert chain.narrow == (degree <= 256)
    group = combinatorics.PermutationGroup([combinatorics.Permutation(r) for r in rows])
    assert chain.order == group.order()
    assert chain.base == sympy_base(group)
    # products of the generators lie in the group; a shuffle of the moved points may not
    members = [rng.choice(rows)]
    for _ in range(4):
        members.append([members[-1][v] for v in rng.choice(rows)])
    moved = sorted({i for r in rows for i, v in enumerate(r) if v != i})
    shuffles = []
    for _ in range(4):
        images = list(range(degree))
        for a, b in zip(moved, rng.sample(moved, len(moved))):
            images[a] = b
        shuffles.append(images)
    for images in members + shuffles + [rng.sample(range(degree), degree)]:
        expected = group.contains(combinatorics.Permutation(images))
        assert (tuple(images) in chain) == expected
    assert all(tuple(images) in chain for images in members)


class TestLazyGroupTables:
    @pytest.mark.parametrize("index", LISTED)
    def test_random_group_tables_match_the_eager_ones(self, index):
        """The closed tables against the per-element closure, sorted."""
        gens = RANDOM_LISTS[index]
        group = pc.close_generators(gens)
        elements, gen_ids = oracles.closure_per_element(gens)
        assert group._table.tolist() == [list(p.images) for p in elements]
        assert group.generator_ids == tuple(gen_ids)
        ids = {p.images: i for i, p in enumerate(elements)}
        assert [group.inv(i) for i in range(group.order)] == [
            ids[pc.inverse(p).images] for p in elements
        ]

    def test_equality_does_not_list(self):
        group = pc.close_generators(pc.symmetric_generators(6))
        assert group == group and "_table" not in group.__dict__
        assert group != pc.close_generators(pc.cyclic_generators(6))
        assert group == pc.close_generators(pc.symmetric_generators(6))
        # the same elements from reordered generators: actions' rows would not line up
        assert group != pc.close_generators(list(reversed(group.generators)))
        assert "_table" not in group.__dict__


def homomorphic_images(group: pc.PermutationGroup, rng: random.Random):
    """Generator images that define actions: orbits of the natural action, relabelled."""
    rows = group._generator_rows
    low = pc._orbit_minima(rows)
    for rep in np.unique(low).tolist():
        orbit = np.flatnonzero(low == rep)
        relabel = np.full(group.degree, -1)
        relabel[orbit] = rng.sample(range(len(orbit)), len(orbit))
        yield [
            Permutation(tuple(int(v) for v in relabel[rows[s][orbit]][np.argsort(relabel[orbit])]))
            for s in range(len(rows))
        ], len(orbit)


def walk_or_error(group, images, size):
    try:
        return oracles.action_per_edge(group.elements, group.generator_ids, images, size)
    except GroupError as exc:
        return str(exc)


def build_or_error(group, images, size):
    try:
        return pc.build_action(group, images, size)
    except GroupError as exc:
        return str(exc)


def small_groups():
    groups = []
    for gens in RANDOM_LISTS[:60]:
        if sympy_order(g.images for g in gens) <= 2000:
            groups.append(pc.close_generators(gens))
    return groups


class TestOrderTest:
    """``build_action`` accepts exactly the images the per-edge walk accepts, with its texts."""

    def test_random_images(self):
        rng = random.Random(7)
        accepted = rejected = 0
        for group in small_groups():
            count = len(group.generator_ids)
            candidates = [
                ([random_perm(rng, size) for _ in range(count)], size)
                for size in (1, 2, 3, 4)
            ] + list(homomorphic_images(group, rng))
            for images, size in candidates:
                expected = walk_or_error(group, images, size)
                got = build_or_error(group, images, size)
                if isinstance(expected, str):
                    assert got == expected
                    rejected += 1
                else:
                    assert isinstance(got, pc.GroupAction)
                    assert "_table" not in got.__dict__
                    assert got.images == tuple(expected)
                    accepted += 1
        assert accepted > 50 and rejected > 20

    def test_identity_generator_with_a_moving_image(self):
        group = pc.close_generators([pc.identity(3), pc.parse_cycles("(0 1 2)", 3)])
        images = [pc.parse_cycles("(0 1)", 3), pc.parse_cycles("(0 1 2)", 3)]
        message = "inconsistent action: element () receives two distinct images"
        assert walk_or_error(group, images, 3) == build_or_error(group, images, 3) == message

    @pytest.mark.parametrize("name", list(WIDE_GROUPS))
    def test_wide_groups(self, name):
        group = pc.close_generators(WIDE_GROUPS[name])
        n = group.degree
        regular_shift = Permutation(tuple((i + 1) % n for i in range(n)))
        flip = Permutation(tuple((n - i) % n for i in range(n)))
        cases = [
            ([pc.parse_cycles("(0 1 2)", 3)] * len(group.generator_ids), 3),
            (list(group.generators), n),
            ([regular_shift, flip][:len(group.generator_ids)], n),
            ([pc.parse_cycles("(0 1)", 2)] * len(group.generator_ids), 2),
        ]
        for images, size in cases:
            expected = walk_or_error(group, images, size)
            got = build_or_error(group, images, size)
            if isinstance(expected, str):
                assert got == expected
            else:
                assert got.images == tuple(expected)


def actions_of(group: pc.PermutationGroup, rng: random.Random):
    yield pc.natural_action(group)
    yield pc.trivial_action(group, 2)
    if group.order <= 200:
        yield pc.regular_action(group)
    for images, size in homomorphic_images(group, rng):
        yield pc.build_action(group, images, size)
    yield designs.replicate_action(pc.natural_action(group), 2)


def first_pair_ids(n_act, m_act):
    """Ids of the first element of each distinct (g^N, g^M) pair, in id order."""
    first = {}
    for i, pair in enumerate(zip(n_act._table.tolist(), m_act._table.tolist())):
        first.setdefault(tuple(map(tuple, pair)), i)
    return sorted(first.values())


class TestGeneratorColumns:
    def test_orbits_and_profiles_match_the_tables(self):
        rng = random.Random(11)
        for group in small_groups() + [pc.close_generators(WIDE_GROUPS["d60"])]:
            for action in actions_of(group, rng):
                table = np.array([p.images for p in action.images])
                part = pc.orbits(action)
                assert (part.orbit_of, part.representatives) == oracles.orbits_from_table(table)
                profile = pc.classify_action(action)
                assert (
                    profile.faithful, profile.transitive, profile.semi_regular,
                    profile.regular, profile.kernel_size, profile.image_order,
                ) == oracles.classify_from_table(table, group.order)

    def test_joint_order_and_element_ids(self):
        rng = random.Random(13)
        for group in small_groups():
            acts = list(actions_of(group, rng))
            for n_act, m_act in zip(acts, acts[1:] + acts[:1]):
                joint = pc.joint_action(n_act, m_act)
                pairs = oracles.distinct_pairs(
                    [p.images for p in n_act.images], [p.images for p in m_act.images]
                )
                assert joint.joint_order == len(pairs)
                assert joint._element_ids.tolist() == first_pair_ids(n_act, m_act)

    def test_element_ids_of_joint_groups_below_g(self):
        s4 = pc.close_generators(pc.symmetric_generators(4))
        # the sign on 2 points (kernel A4), and S4 -> S3 on the 3 splittings of
        # {0..3} into two pairs (kernel V4): together the kernel is V4
        sign = pc.build_action(s4, [(1, 0), (1, 0)], 2)
        s3 = pc.build_action(s4, [(0, 2, 1), (2, 1, 0)], 3)
        trivial = pc.joint_action(pc.trivial_action(s4, 2), pc.trivial_action(s4, 3))
        for joint, order in [(pc.joint_action(sign, s3), 6), (trivial, 1)]:
            assert joint.joint_order == order < s4.order
            ids = joint._element_ids.tolist()
            assert ids == first_pair_ids(joint.n_action, joint.m_action)
            assert len(ids) == order and ids[0] == 0

    def test_sift_decides_joint_membership(self):
        rng = random.Random(17)
        for group in small_groups()[:20]:
            acts = list(actions_of(group, rng))
            joint = pc.joint_action(acts[0], acts[-1])
            inside = joint.pair_set()

            def stacked(pn, pm):
                """The pair as one row on N then M, M shifted by n_size."""
                return pn + tuple(v + joint.n_size for v in pm)

            for pn, pm in inside:
                assert stacked(pn, pm) in joint._group
            for _ in range(20):
                pn = random_perm(rng, joint.n_size).images
                pm = random_perm(rng, joint.m_size).images
                assert (stacked(pn, pm) in joint._group) == ((pn, pm) in inside)


class TestListsNothing:
    """Dense specs answer ``group info``, ``design`` and ``certify unique`` from generators."""

    @staticmethod
    def run_capturing_spec(command, monkeypatch):
        specs = []
        parse = specio.parse_spec

        def capturing(text):
            specs.append(parse(text))
            return specs[-1]

        monkeypatch.setattr(specio, "parse_spec", capturing)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(command + ["--spec", str(CORPUS / "sym7.json")])
        assert code == 0
        (spec,) = specs
        return spec

    @pytest.mark.parametrize(
        "command", [["group", "info"], ["design"], ["certify", "unique"]],
        ids=["group_info", "design", "certify"],
    )
    def test_dense_sym7_builds_no_table(self, command, monkeypatch):
        spec = self.run_capturing_spec(command, monkeypatch)
        assert "_table" not in spec.group.__dict__
        assert "_table" not in spec.n_action.__dict__
        assert "_table" not in spec.m_action.__dict__
        if "joint" in spec.__dict__:
            assert "_element_ids" not in spec.joint.__dict__

    def test_check_builds_them(self, monkeypatch):
        spec = self.run_capturing_spec(["check", "equivariance"], monkeypatch)
        assert "_closure" in spec.group.__dict__  # the element and Cayley tables
        assert "_table" in spec.n_action.__dict__
        assert "_table" in spec.m_action.__dict__
        assert "_element_ids" in spec.joint.__dict__


class TestJointOncePerSpec:
    @pytest.mark.parametrize("name", ["sym7", "readme", "mirror"])
    def test_expanded_joint_is_the_spec_joint_for_one_channel(self, name):
        spec = specio.parse_spec((CORPUS / f"{name}.json").read_text())
        assert spec.joint is spec.joint
        assert specio.expanded_joint(spec) is spec.joint

    def test_channels_expand_a_new_joint(self):
        spec = specio.parse_spec((CORPUS / "readme-ch23.json").read_text())
        joint = specio.expanded_joint(spec)
        assert joint is not spec.joint
        assert (joint.n_size, joint.m_size) == (6, 18)
        assert joint.joint_order == spec.joint.joint_order


def merge_cases():
    for path in sorted(CORPUS.glob("*.json")):
        spec = specio.parse_spec(path.read_text())
        yield path.stem, specio.build_structure(spec)
    d5 = pc.close_generators(pc.dihedral_generators(5))
    joint = pc.joint_action(pc.natural_action(d5), pc.regular_action(d5))
    genset = pc.symmetrize_genset(d5, d5.generator_ids)
    yield "d5-conv-tied", layer.group_conv_structure(joint, genset, tie_across_orbits=True)
    rng = random.Random(5)
    for k in range(6):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        relations = tuple(
            designs.Relation(
                c + 1,
                [(rng.randrange(n), rng.randrange(m)) for _ in range(rng.randint(0, 8))],
                {"kind": "random"},
            )
            for c in range(rng.randint(0, 6))
        )
        yield f"random-{k}", designs.SharingStructure(n, m, relations)


MERGE_CASES = dict(merge_cases())


@pytest.mark.parametrize("name", list(MERGE_CASES))
def test_merge_colors_matches_the_per_cell_loop(name):
    structure = MERGE_CASES[name]
    cm = designs.merge_colors(structure)
    grid, merged_to_base = oracles.merge_colors_per_cell(structure)
    assert cm.grid.dtype == grid.dtype and np.array_equal(cm.grid, grid)
    assert list(cm.merged_to_base.items()) == list(merged_to_base.items())
    assert all(type(c) is int for key in cm.merged_to_base for c in (key, *cm.merged_to_base[key]))
