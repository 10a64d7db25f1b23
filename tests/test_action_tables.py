"""Table-based groups and actions against the per-element references in ``oracles``.

Random actions are restrictions of a direct product's natural action to a
list of its orbits (repeats allowed), relabelled and optionally replicated
per channel: restricting to one factor's points gives a non-faithful action,
several orbits a multi-orbit one.
"""

import contextlib
import io
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import diagonal_symmetric_joint
from eqtie import autsearch, cli, designs, layer, permcore as pc
from eqtie.designs import Relation, SharingStructure
from eqtie.permcore import GroupError, Permutation

CORPUS = Path(__file__).resolve().parent.parent / "bench" / "corpus"

FACTORS = [
    lambda: pc.cyclic_generators(1),
    lambda: pc.cyclic_generators(2),
    lambda: pc.cyclic_generators(3),
    lambda: pc.cyclic_generators(4),
    lambda: pc.dihedral_generators(4),
    lambda: pc.symmetric_generators(3),
]


def restricted_action(draw, group):
    """The natural action restricted to drawn orbits, relabelled, maybe replicated."""
    natural = pc.orbits(pc.natural_action(group))
    chosen = draw(st.lists(st.integers(0, natural.orbit_count - 1), min_size=1, max_size=3))
    blocks = [natural.members(o) for o in chosen]
    size = sum(len(b) for b in blocks)
    sigma = draw(st.permutations(list(range(size))))
    gen_images = []
    for g in group.generators:
        images, offset = [], 0
        for members in blocks:
            images += [offset + members.index(g(x)) for x in members]
            offset += len(members)
        relabelled = [0] * size
        for i, v in enumerate(images):
            relabelled[sigma[i]] = sigma[v]
        gen_images.append(Permutation(tuple(relabelled)))
    action = pc.build_action(group, gen_images, size)
    return designs.replicate_action(action, draw(st.integers(1, 3)))


@st.composite
def random_joints(draw):
    factors = draw(st.lists(st.sampled_from(FACTORS), min_size=1, max_size=2))
    group = pc.close_generators(pc.direct_product_generators(*[f() for f in factors]))
    return pc.joint_action(restricted_action(draw, group), restricted_action(draw, group))


def image_tuples(action):
    return [p.images for p in action.images]


def distinct_pairs(joint):
    return oracles.distinct_pairs(image_tuples(joint.n_action), image_tuples(joint.m_action))


def z6_on_three_points():
    """Z6 acting through its Z3 quotient on both sides: a joint with a kernel of order 2."""
    z6 = pc.close_generators(pc.cyclic_generators(6))
    action = pc.build_action(z6, [pc.parse_cycles("(0 1 2)", 3)], 3)
    return pc.joint_action(action, action)


def colors(structure):
    assert [r.color_id for r in structure.relations] == list(
        range(1, structure.base_color_count + 1)
    )
    return [(oracles.edge_set(r), dict(r.provenance)) for r in structure.relations]


@settings(max_examples=60, deadline=None)
@given(random_joints())
@example(z6_on_three_points())  # a non-faithful joint takes the row de-dup branch
def test_joint_elements_match_tuple_dedup(joint):
    pairs = distinct_pairs(joint)
    assert [(gn.images, gm.images) for gn, gm in joint.joint_elements] == pairs
    assert joint.pair_set() == set(pairs)
    assert joint.joint_order == len(pairs)


@settings(max_examples=60, deadline=None)
@given(random_joints())
def test_classify_matches_per_image(joint):
    for action in (joint.n_action, joint.m_action):
        profile = pc.classify_action(action)
        kernel_size, image_order, semi_regular = oracles.classify_per_image(image_tuples(action))
        assert (profile.kernel_size, profile.image_order, profile.semi_regular) == (
            kernel_size, image_order, semi_regular
        )
        assert profile.faithful == (kernel_size == 1)


@settings(max_examples=60, deadline=None)
@given(random_joints())
def test_dense_design_matches_per_element(joint):
    expected = oracles.dense_design_per_element(distinct_pairs(joint), joint.n_size, joint.m_size)
    assert colors(designs.dense_design(joint)) == expected


@settings(max_examples=60, deadline=None)
@given(random_joints())
def test_sparse_design_matches_per_element(joint):
    genset = pc.symmetrize_genset(joint.group, joint.group.generator_ids)
    expected = oracles.sparse_design_per_element(
        image_tuples(joint.n_action), image_tuples(joint.m_action), genset
    )
    assert colors(designs.sparse_design(joint, genset)) == expected


@settings(max_examples=60, deadline=None)
@given(random_joints(), st.booleans(), st.data())
def test_exact_route_matches_all_pairs(joint, perturbed, data):
    s = designs.dense_design(joint)
    if perturbed:
        # one more color on one cell: equivariant only when that cell's orbit is itself
        cell = (
            data.draw(st.integers(0, joint.n_size - 1)),
            data.draw(st.integers(0, joint.m_size - 1)),
        )
        extra = Relation(s.base_color_count + 1, [cell], {"kind": "extra"})
        s = SharingStructure(s.n_size, s.m_size, s.relations + (extra,))
    tied = layer.tied_layer_from_structure(s)
    w = layer.materialize(tied.color_matrix, layer.first_primes(s.base_color_count))
    report = layer.check_equivariance(tied, joint, trials=1)
    assert report.exact_pass == oracles.exact_pass_all_pairs(w, distinct_pairs(joint))
    assert report.tested_elements == joint.joint_order


@settings(max_examples=40, deadline=None)
@given(random_joints(), st.integers(2, 3))
def test_replicated_images_match_per_element(joint, copies):
    action = joint.n_action
    size = action.target_size
    expected = [
        tuple(c * size + p[i] for c in range(copies) for i in range(size))
        for p in image_tuples(action)
    ]
    assert image_tuples(designs.replicate_action(action, copies)) == expected


class TestHandBuiltActions:
    """``build_action`` on hand-written generator images, as Permutations or int arrays."""

    def test_non_homomorphic_images_raise(self, z6):
        # a 4-cycle has no order dividing 6
        with pytest.raises(GroupError, match="inconsistent action"):
            pc.build_action(z6, [pc.parse_cycles("(0 1 2 3)", 6)], 6)

    def test_non_homomorphic_table_raises(self, z6):
        table = np.array([[1, 2, 3, 0, 4, 5]])
        with pytest.raises(GroupError, match="inconsistent action"):
            pc.build_action(z6, table, 6)

    def test_hand_built_natural_images(self, z6):
        action = pc.build_action(z6, np.array([p.images for p in z6.generators]), 6)
        assert action.images == z6.elements
        assert pc.classify_action(action).regular

    def test_table_is_read_only(self, z6):
        table = np.array([p.images for p in z6.generators])
        action = pc.build_action(z6, table, 6)
        table[0] = np.arange(6)  # the action keeps its own copy
        assert action.images == z6.elements
        built_in = [pc.natural_action(z6), pc.regular_action(z6), pc.trivial_action(z6, 3), action]
        for act in built_in:
            for rows in (act._generator_rows, act._table):
                with pytest.raises(ValueError):
                    rows[0, 0] = 1


class TestImageTableCheck:
    BAD_ROWS = {
        "float": ([[0, 1, 2], [1.7, 0, 2]], "must hold integers"),
        "out-of-range": ([[0, 1, 2], [0, 1, 3]], "not a permutation of 0..2"),
        "repeated": ([[0, 1, 2], [0, 0, 2]], "not a permutation of 0..2"),
    }

    @pytest.mark.parametrize("as_array", [False, True], ids=["rows", "array"])
    @pytest.mark.parametrize("rows, message", BAD_ROWS.values(), ids=list(BAD_ROWS))
    def test_bad_rows_raise_in_both_constructors(self, rows, message, as_array):
        """Bad generator images raise in ``build_action``, as int rows or as one array."""
        group = pc.close_generators([pc.identity(3), Permutation((1, 0, 2))])
        assert len(group.generator_ids) == 2
        table = np.array(rows) if as_array else rows
        with pytest.raises(GroupError, match=message):
            pc.build_action(group, table, 3)

    @pytest.mark.parametrize("as_array", [False, True], ids=["rows", "array"])
    def test_wrong_degree_raises(self, as_array):
        z2 = pc.close_generators(pc.cyclic_generators(2))
        rows = [[1, 0]]
        with pytest.raises(GroupError, match=r"^generator image degree 2 != 3$"):
            pc.build_action(z2, np.array(rows) if as_array else rows, 3)


def test_built_in_tables_match_per_element_references():
    """natural, trivial and regular actions, against tables built one element at a time."""
    for gens in (pc.cyclic_generators(6), pc.symmetric_generators(4), pc.wreath_generators(2, 2),
                 [pc.identity(3), pc.parse_cycles("(0 1 2)", 3)]):
        group = pc.close_generators(gens)
        elements, _ = oracles.closure_per_element(gens)
        index = {p: i for i, p in enumerate(elements)}
        ids = list(group.generator_ids)
        natural = pc.natural_action(group)
        assert natural._table.tolist() == [list(p.images) for p in elements]
        assert pc.trivial_action(group, 2)._table.tolist() == [[0, 1]] * len(elements)
        regular = pc.regular_action(group)
        assert regular._table.tolist() == [
            [index[pc.compose(p, q)] for q in elements] for p in elements
        ]
        assert np.array_equal(regular._generator_rows, regular._table[ids])
        for action in (natural, regular):
            gen_images = [Permutation(tuple(r)) for r in action._generator_rows.tolist()]
            assert list(action.images) == oracles.action_per_edge(
                elements, ids, gen_images, action.target_size
            )


def test_table_views_match_per_element_references(
    reverse_conv, reverse_conv_structure, mirror_conv
):
    """Group elements, listings, pair sets and the witness, as the per-element code built them."""
    s4 = diagonal_symmetric_joint(4)
    cases = [
        (s4, designs.dense_design(s4)),
        (mirror_conv, designs.dense_design(mirror_conv)),
        (reverse_conv, reverse_conv_structure),
    ]
    for joint, s in cases:
        group = joint.group
        elements, generator_ids = oracles.closure_per_element(list(group.generators))
        assert group.elements == tuple(elements)
        assert group.generator_ids == tuple(generator_ids)
        assert [group.inv(i) for i in range(group.order)] == [
            elements.index(pc.inverse(p)) for p in elements
        ]
        assert joint.pair_set() == set(distinct_pairs(joint))
        brute = oracles.brute_force_automorphisms(s)
        result = autsearch.enumerate_automorphisms(s, reference=joint)
        assert [(pn.images, pm.images) for pn, pm in result.elements] == brute
        assert result.pair_set() == set(brute)
        witness = autsearch.certify_unique(s, joint).witness
        outside = [pair for pair in brute if pair not in joint.pair_set()]
        if outside:
            assert (witness[0].images, witness[1].images) == outside[0]
        else:
            assert witness is None


@pytest.mark.parametrize("spec", ["sym7", "agl1-7"])
@pytest.mark.parametrize(
    "command", [["design"], ["check", "equivariance"], ["certify", "unique"]],
    ids=["design", "check", "certify"],
)
def test_cli_builds_no_permutation_per_element(spec, command, monkeypatch):
    """|G| = 5040 on sym7, 5040 listed automorphisms on agl1-7: neither is built per element."""
    built = []
    post_init = Permutation.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Permutation, "__post_init__", counting)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(command + ["--spec", str(CORPUS / f"{spec}.json")])
    assert code in (0, 1)
    assert len(built) < 100
