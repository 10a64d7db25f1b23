import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from eqtie import autsearch, designs, layer, permcore as pc
from eqtie.designs import ChannelSpec, DesignError, Relation, SharingStructure

from conftest import cyclic_group_conv_joint, diagonal_symmetric_joint


@pytest.fixture(scope="module")
def wreath_joint():
    g = pc.close_generators(pc.wreath_generators(3, 2))
    nat = pc.natural_action(g)
    return pc.joint_action(nat, nat)


def trivial_joint(n):
    g = pc.close_generators([tuple(range(n))])
    nat = pc.natural_action(g)
    return pc.joint_action(nat, nat)


class TestDenseDesign:
    def test_s4_two_colors(self):
        joint = diagonal_symmetric_joint(4)
        s = designs.dense_design(joint)
        assert s.base_color_count == 2
        by_color = {r.color_id: r.edges.tolist() for r in s.relations}
        assert by_color[1] == [[n, n] for n in range(4)]
        assert by_color[2] == [[n, m] for n in range(4) for m in range(4) if n != m]

    def test_wreath_three_colors_cell_by_cell(self, wreath_joint):
        s = designs.dense_design(wreath_joint)
        assert s.base_color_count == 3
        for n in range(6):
            for m in range(6):
                expected = oracles.wreath_dense_color(n, m, block_size=3)
                assert oracles.alpha(s, n, m) == frozenset([expected])

    def test_trivial_group_no_tying(self):
        s = designs.dense_design(trivial_joint(2))
        assert s.base_color_count == 4
        assert all(len(r.edges) == 1 for r in s.relations)

    def test_coloring_is_invariant(self, reverse_conv, wreath_joint):
        for joint in (reverse_conv, wreath_joint):
            s = designs.dense_design(joint)
            for gn, gm in oracles.joint_pairs(joint):
                for n in range(s.n_size):
                    for m in range(s.m_size):
                        assert oracles.alpha(s, n, m) == oracles.alpha(s, gn[n], gm[m])

    def test_colors_partition_all_cells(self, reverse_conv):
        s = designs.dense_design(reverse_conv)
        seen = {}
        for rel in s.relations:
            for edge in oracles.edge_set(rel):
                assert edge not in seen
                seen[edge] = rel.color_id
        assert len(seen) == s.n_size * s.m_size


class TestRelationEdges:
    def test_unsorted_duplicates_normalized(self):
        pairs = [(2, 1), (0, 3), (2, 0), (0, 3), (1, 1), (2, 1)]
        given = np.array(pairs)
        for edges in (pairs, given):
            rel = Relation(1, edges, {"kind": "dense"})
            assert rel.edges.dtype == np.intp
            assert rel.edges.tolist() == [[0, 3], [1, 1], [2, 0], [2, 1]]
            assert not rel.edges.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                rel.edges[0, 0] = 1
        # the caller's array is copied, not sorted or frozen in place
        assert given.flags.writeable and given.tolist() == [list(p) for p in pairs]

    def test_sorted_rows_kept_as_a_copy(self, monkeypatch):
        # strictly increasing rows are already normal: no sort, and still a copy
        given = np.array([(0, 1), (0, 2), (1, 0), (3, 3)])
        monkeypatch.setattr(np, "lexsort", lambda keys: pytest.fail("sorted rows were re-sorted"))
        rel = Relation(1, given, {"kind": "dense"})
        assert rel.edges.tolist() == given.tolist() and rel.edges.dtype == np.intp
        assert not rel.edges.flags.writeable and given.flags.writeable
        given[0, 0] = 9
        assert rel.edges[0].tolist() == [0, 1]
        for edges in ([(5, 5)], []):
            assert Relation(2, edges, {"kind": "dense"}).edges.tolist() == [list(p) for p in edges]

    @pytest.mark.parametrize("pairs, normal", [
        ([(0, 1), (0, 1)], [[0, 1]]),  # equal neighbours are not strictly increasing
        ([(0, 2), (1, 0), (0, 3)], [[0, 2], [0, 3], [1, 0]]),
        ([(1, 0), (0, 5)], [[0, 5], [1, 0]]),
        ([(0, 1), (0, 0)], [[0, 0], [0, 1]]),
    ])
    def test_nearly_sorted_rows_normalized(self, pairs, normal):
        assert Relation(1, pairs, {"kind": "dense"}).edges.tolist() == normal

    def test_malformed_pairs_rejected(self):
        with pytest.raises(DesignError, match="pairs"):
            Relation(1, [(0, 1, 2)], {"kind": "dense"})

    def test_empty_relation(self):
        empty = Relation(2, [], {"kind": "dense"})
        assert empty.edges.shape == (0, 2)
        s = SharingStructure(2, 2, (Relation(1, [(0, 0), (1, 1)], {"kind": "dense"}), empty))
        cm = designs.merge_colors(s)
        assert cm.grid.tolist() == [[1, 0], [0, 1]] and cm.merged_to_base == {1: (1,)}
        bare = designs.merge_colors(SharingStructure(2, 2, (empty,)))
        assert not bare.grid.any() and bare.merged_to_base == {}
        ok = autsearch._preserves_structure(s, [[0, 1], [1, 0], [1, 0]], [[0, 1], [0, 1], [1, 0]])
        assert ok.tolist() == [True, False, True]


@st.composite
def edge_tables(draw):
    """(n_size, m_size, rows of each slice): sorted or not, repeats, empty slices, maybe out of bounds."""
    n_size, m_size = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    low, high = (0, (n_size - 1, m_size - 1)) if draw(st.booleans()) else (-1, (n_size, m_size))
    rows = st.tuples(st.integers(low, high[0]), st.integers(low, high[1]))
    return n_size, m_size, draw(st.lists(st.lists(rows, max_size=6), max_size=5))


@settings(max_examples=200, deadline=None)
@given(edge_tables())
@example((2, 3, [[(1, 2), (0, 1), (1, 2)], [], [(0, 0), (0, 1)], [(1, 0), (0, 2)], []]))
@example((2, 2, [[(0, 0)], [(1, 1), (2, 0)], [(-1, 0)]]))
def test_one_table_matches_per_relation_construction(case):
    """``_from_table`` makes the structure, or the error, of one ``Relation`` per slice."""
    n_size, m_size, slices = case
    provenances = [{"kind": "dense", "slice": k} for k in range(len(slices))]
    source = np.array([row for rows in slices for row in rows], dtype=np.intp).reshape(-1, 2)
    starts = np.cumsum([0] + [len(rows) for rows in slices])[:-1]
    try:
        reference = oracles.structure_per_relation(n_size, m_size, list(zip(slices, provenances)))
    except DesignError as exc:
        with pytest.raises(DesignError) as info:
            designs._from_table(n_size, m_size, source, starts, provenances)
        assert str(info.value) == str(exc)
        return
    built = designs._from_table(n_size, m_size, source, starts, provenances)
    oracles.assert_same_structure(built, reference)
    kept = [rel.edges.copy() for rel in built.relations]
    source[:] = 0  # writing to the builder's inputs afterwards changes no relation
    starts[:] = 0
    assert all(np.array_equal(rel.edges, k) for rel, k in zip(built.relations, kept))


def test_one_table_refuses_what_a_relation_refuses():
    with pytest.raises(DesignError, match="edge table: edges must be"):
        designs._from_table(2, 2, [(0, 1, 2)], [0], [{"kind": "dense"}])


class TestSparseDesign:
    def test_reverse_conv_matches_reference_pattern(self, reverse_conv_structure):
        s = reverse_conv_structure
        assert s.base_color_count == 2
        assert all(len(r.edges) == 6 for r in s.relations)
        cm = designs.merge_colors(s)
        # the printed weight pattern: rows cycle [0 a b], [a b 0], [b 0 a]
        expected = np.array(
            [[0, 1, 2], [1, 2, 0], [2, 0, 1], [0, 1, 2], [1, 2, 0], [2, 0, 1]]
        )
        assert np.array_equal(cm.grid, expected)

    def test_rot90_eight_relations(self, rot90_structure, rot90):
        assert len(rot90_structure.relations) == 8
        assert all(len(r.edges) == rot90.joint_order for r in rot90_structure.relations)

    def test_mirror_group_conv_two_relations(self, mirror_conv):
        s = designs.sparse_design(mirror_conv, [1])
        assert s.base_color_count == 2
        by_color = {r.color_id: r.edges.tolist() for r in s.relations}
        assert by_color[1] == [[0, 1], [3, 0]]
        assert by_color[2] == [[1, 1], [2, 0]]

    def test_relation_count_is_p_q_a(self, rot90):
        s = designs.sparse_design(rot90, [1, 3])
        provs = {(r.provenance["n_orbit"], r.provenance["m_orbit"], r.provenance["generator"])
                 for r in s.relations}
        assert provs == {(p, q, a) for p in range(2) for q in range(2) for a in (1, 3)}

    def test_non_generating_a(self, reverse_conv):
        with pytest.raises(pc.GroupError, match="does not generate"):
            designs.sparse_design(reverse_conv, [2])

    def test_asymmetric_a(self, reverse_conv):
        with pytest.raises(DesignError, match="not symmetric"):
            designs.sparse_design(reverse_conv, [1])

    def test_relations_are_setwise_invariant(self, reverse_conv_structure, reverse_conv):
        for gn, gm in oracles.joint_pairs(reverse_conv):
            for rel in reverse_conv_structure.relations:
                image = frozenset((gn[n], gm[m]) for n, m in rel.edges.tolist())
                assert image == oracles.edge_set(rel)

    def test_semi_regular_edge_counts_and_distinct_colors(self, rot90_structure, rot90):
        # every relation has joint_order edges, and at any node the colors of
        # incident edges across relations sharing (p, q) are pairwise distinct
        assert all(len(r.edges) == rot90.joint_order for r in rot90_structure.relations)
        for node in range(rot90_structure.n_size):
            for q in range(2):
                colors = [
                    r.color_id
                    for r in rot90_structure.relations
                    if r.provenance["m_orbit"] == q
                    for (n, _m) in r.edges.tolist()
                    if n == node
                ]
                assert len(colors) == len(set(colors))

    def test_warning_on_non_semi_regular(self, reverse_conv_structure):
        g2 = pc.close_generators(pc.cyclic_generators(2))
        flip5 = pc.build_action(g2, [pc.parse_cycles("(0 4)(1 3)", 5)], 5)
        joint = pc.joint_action(flip5, pc.regular_action(g2))
        s = designs.sparse_design(joint, [1])
        assert any("not semi-regular" in w for w in s.warnings)
        # g^3 acts trivially on the 3 inputs, so every input stabilizer is {e, g^3}
        assert reverse_conv_structure.warnings == (
            "input action is not semi-regular: uniqueness not guaranteed",
        )

    def test_no_warning_when_semi_regular(self, rot90_structure, mirror_conv):
        # both actions faithful with every point stabilizer trivial
        assert rot90_structure.warnings == ()
        assert designs.sparse_design(mirror_conv, [1]).warnings == ()


# every library route that takes element ids: each reads them through symmetrize_genset
GENSET_TAKERS = {
    "symmetrize_genset": lambda joint, ids: pc.symmetrize_genset(joint.group, ids),
    "sparse_design": designs.sparse_design,
    "group_conv_structure": layer.group_conv_structure,
    "group_conv": layer.group_conv,
}


class TestLibraryElementIds:
    @pytest.mark.parametrize("take", list(GENSET_TAKERS))
    @pytest.mark.parametrize("bad, message", [
        (1.0, "element id 1.0 is not an integer"),
        (1.5, "element id 1.5 is not an integer"),
        (True, "element id True is not an integer"),
        ("1", "element id '1' is not an integer"),
        (np.True_, "element id np.True_ is not an integer"),
        (np.array(1.0), "element id array(1.) is not an integer"),
        (np.int64(6), "element id 6 out of range for a group of order 6"),
    ], ids=["float-whole", "float", "bool", "str", "numpy-bool", "float-array", "out-of-range"])
    def test_bad_id_is_named(self, take, bad, message):
        with pytest.raises(pc.GroupError) as info:
            GENSET_TAKERS[take](cyclic_group_conv_joint(6), [bad, 5])
        assert str(info.value) == message

    def test_numpy_ids_give_python_ints(self):
        joint = cyclic_group_conv_joint(6)
        assert pc.symmetrize_genset(joint.group, np.array([1])) == (1, 5)
        assert all(type(i) is int for i in pc.symmetrize_genset(joint.group, np.array([1, 5])))
        s = designs.sparse_design(joint, np.array([1, 5]))
        assert [r.provenance["generator"] for r in s.relations] == [1, 5]
        assert all(type(r.provenance["generator"]) is int for r in s.relations)
        json.dumps([r.provenance for r in s.relations])
        expected = designs.sparse_design(joint, [1, 5]).relations
        assert [(r.edges.tolist(), r.provenance) for r in s.relations] == [
            (r.edges.tolist(), r.provenance) for r in expected
        ]


class TestMergeColors:
    def test_reverse_conv_counts(self, reverse_conv_structure):
        cm = designs.merge_colors(reverse_conv_structure)
        assert cm.merged_color_count == 2
        assert int(np.count_nonzero(cm.grid)) == 12
        assert int((cm.grid == 0).sum()) == 6

    def test_dense_merged_equals_base(self):
        joint = diagonal_symmetric_joint(4)
        cm = designs.merge_colors(designs.dense_design(joint))
        assert cm.merged_color_count == 2
        assert cm.merged_to_base == {1: (1,), 2: (2,)}

    def test_overlapping_relations_sum(self):
        s = designs.SharingStructure(
            2, 2,
            (
                designs.Relation(1, [(0, 0), (1, 1)], {"kind": "dense"}),
                designs.Relation(2, [(0, 0)], {"kind": "dense"}),
            ),
        )
        cm = designs.merge_colors(s)
        assert oracles.merged_alpha(cm, 0, 0) == frozenset({1, 2})
        w = layer.materialize(cm, np.array([1, 2]))
        assert w[0, 0] == 3

    def test_round_trip_alpha(self, reverse_conv_structure, rot90_structure):
        for s in (reverse_conv_structure, rot90_structure):
            cm = designs.merge_colors(s)
            for n in range(s.n_size):
                for m in range(s.m_size):
                    assert oracles.merged_alpha(cm, n, m) == oracles.alpha(s, n, m)

    def test_structure_keeps_one_merge(self, monkeypatch):
        s = designs.dense_design(diagonal_symmetric_joint(3))
        calls = []
        merge = designs.merge_colors
        monkeypatch.setattr(designs, "merge_colors", lambda st: calls.append(st) or merge(st))
        first = s.color_matrix
        assert s.color_matrix is first and calls == [s]
        assert np.array_equal(first.grid, merge(s).grid)
        assert first.merged_to_base == merge(s).merged_to_base

    def test_merged_ids_dense_from_one(self, rot90_structure):
        cm = designs.merge_colors(rot90_structure)
        assert sorted(cm.merged_to_base) == list(range(1, cm.merged_color_count + 1))


class TestChannels:
    def test_color_multiplication(self, reverse_conv_structure):
        out = designs.expand_channels(reverse_conv_structure, ChannelSpec(2, 3))
        assert out.base_color_count == 2 * 2 * 3
        assert out.n_size == 6 and out.m_size == 18

    def test_identity_channels(self, reverse_conv_structure):
        assert designs.expand_channels(reverse_conv_structure, ChannelSpec(1, 1)) is reverse_conv_structure

    def test_channel_major_layout(self, reverse_conv_structure):
        s = designs.expand_channels(reverse_conv_structure, ChannelSpec(2, 1))
        base = designs.merge_colors(reverse_conv_structure).grid
        cm = designs.merge_colors(s)
        # input block ki=0 repeats the base pattern; ki=1 uses fresh colors
        assert np.array_equal(cm.grid[:, :3] != 0, base != 0)
        assert np.array_equal(cm.grid[:, 3:] != 0, base != 0)
        left = set(cm.grid[:, :3].ravel()) - {0}
        right = set(cm.grid[:, 3:].ravel()) - {0}
        assert left.isdisjoint(right)

    def test_expanded_equivariance(self, reverse_conv_structure, reverse_conv):
        s = designs.expand_channels(reverse_conv_structure, ChannelSpec(2, 1))
        joint = pc.joint_action(
            designs.replicate_action(reverse_conv.n_action, 2),
            designs.replicate_action(reverse_conv.m_action, 1),
        )
        tied = layer.tied_layer_from_structure(s)
        assert layer.check_equivariance(tied, joint, trials=3).passed

    def test_bad_channel_spec(self):
        with pytest.raises(DesignError):
            ChannelSpec(0, 1)

    BAD_COUNTS = {
        "zero": (0, "channel counts must be positive"),
        "negative": (-1, "channel counts must be positive"),
        "float": (1.5, "channel count 1.5 is not an integer"),
        "whole-float": (2.0, "channel count 2.0 is not an integer"),
        "bool": (True, "channel count True is not an integer"),
        "str": ("2", "channel count '2' is not an integer"),
        "float-array": (np.array(2.0), "channel count array(2.) is not an integer"),
    }

    @pytest.mark.parametrize("side", ["in", "out"])
    @pytest.mark.parametrize("count, message", BAD_COUNTS.values(), ids=list(BAD_COUNTS))
    def test_bad_channel_count_is_named(self, count, message, side):
        with pytest.raises(DesignError) as info:
            ChannelSpec(count, 1) if side == "in" else ChannelSpec(1, count)
        assert str(info.value) == message

    @pytest.mark.parametrize("count, message", BAD_COUNTS.values(), ids=list(BAD_COUNTS))
    def test_bad_replicate_count(self, reverse_conv, count, message):
        with pytest.raises(DesignError) as info:
            designs.replicate_action(reverse_conv.n_action, count)
        assert str(info.value) == message

    def test_numpy_counts_give_python_ints(self, reverse_conv, reverse_conv_structure):
        ch = ChannelSpec(np.int64(2), np.int64(1))
        assert (type(ch.k_in), type(ch.k_out)) == (int, int) and ch == ChannelSpec(2, 1)
        assert designs.replicate_action(reverse_conv.n_action, np.int64(1)) is reverse_conv.n_action
        doubled = designs.replicate_action(reverse_conv.n_action, np.int64(2))
        assert doubled.target_size == 6
        assert designs.expand_channels(reverse_conv_structure, ch).n_size == 6


@pytest.fixture(scope="module")
def d5_fixture():
    """Pentagon-wrapped 4x5 image: rotations shift columns, the reflection
    reverses columns and flips rows; the output is the bare 5-point dihedral
    action."""

    def idx(r, c):
        return r * 5 + c

    rot = [0] * 20
    ref = [0] * 20
    for r in range(4):
        for c in range(5):
            rot[idx(r, c)] = idx(r, (c + 1) % 5)
            ref[idx(r, c)] = idx(3 - r, (5 - c) % 5)
    d5 = pc.close_generators(pc.dihedral_generators(5))
    n_act = pc.build_action(d5, [rot, ref], 20)
    joint = pc.joint_action(n_act, pc.natural_action(d5))
    rot_id, ref_id = d5.generator_ids
    genset = sorted({rot_id, d5.inv(rot_id), ref_id})
    return joint, designs.sparse_design(joint, genset)


class TestDihedralImageFixture:
    def test_orbit_counts(self, d5_fixture):
        joint, s = d5_fixture
        assert pc.orbits(joint.n_action).orbit_count == 2
        assert pc.orbits(joint.m_action).orbit_count == 1
        assert joint.joint_order == 10

    def test_six_relations_of_ten_edges(self, d5_fixture):
        _, s = d5_fixture
        assert s.base_color_count == 6
        assert all(len(r.edges) == 10 for r in s.relations)

    def test_output_side_flagged(self, d5_fixture):
        # reflections fix one pentagon vertex, so uniqueness is not guaranteed
        _, s = d5_fixture
        assert any("output action is not semi-regular" in w for w in s.warnings)

    def test_equivariant_and_aut_contains_joint(self, d5_fixture):
        from eqtie import autsearch, layer

        joint, s = d5_fixture
        tied = layer.tied_layer_from_structure(s)
        assert layer.check_equivariance(tied, joint, trials=2).passed
        res = autsearch.enumerate_automorphisms(s, reference=joint, node_budget=25)
        assert res.verdict in ("equal", "proper_supergroup")
        assert res.order == 10  # equality holds here despite the missing guarantee


class TestIdentityRelation:
    def test_appends_diagonal(self, rot90_structure):
        out = designs.with_identity_relation(rot90_structure)
        assert out.base_color_count == 9
        last = out.relations[-1]
        assert last.edges.tolist() == [[i, i] for i in range(8)]
        assert last.provenance == {"kind": "identity"}

    def test_size_mismatch(self, reverse_conv_structure):
        with pytest.raises(DesignError, match="n_size == m_size"):
            designs.with_identity_relation(reverse_conv_structure)

    def test_edge_bounds_validated(self):
        # a negative endpoint would wrap around under fancy indexing, so it is rejected too
        for edge in [(2, 0), (-1, 0), (0, -1), (0, 2)]:
            with pytest.raises(DesignError, match="outside"):
                designs.SharingStructure(2, 2, (designs.Relation(1, [edge], {"kind": "dense"}),))
