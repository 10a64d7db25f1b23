import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from eqtie import permcore as pc
from eqtie.permcore import GroupError, Permutation

from conftest import cyclic_group_conv_joint, diagonal_symmetric_joint


def P(*images):
    return tuple(images)


perms = st.integers(2, 6).flatmap(lambda n: st.permutations(list(range(n))).map(tuple))


def same_degree_pairs(max_n=6):
    return st.integers(2, max_n).flatmap(
        lambda n: st.tuples(
            st.permutations(list(range(n))).map(tuple),
            st.permutations(list(range(n))).map(tuple),
        )
    )


class TestPermutationBasics:
    """``compose`` of two ``Permutation`` objects, and the tuple references in ``oracles``."""

    def test_compose_three_cycle_squared(self):
        three = Permutation((1, 2, 0))
        assert pc.compose(three, three) == Permutation((2, 0, 1))

    def test_compose_with_inverse_is_identity(self):
        p = P(3, 0, 2, 1)
        p_inv = oracles.inverse(p)
        assert pc.compose(Permutation(p), Permutation(p_inv)).images == oracles.identity(4)
        assert pc.compose(Permutation(p_inv), Permutation(p)).images == oracles.identity(4)

    def test_identity_is_neutral(self):
        p, ident = Permutation((2, 0, 1)), Permutation(oracles.identity(3))
        assert pc.compose(ident, p) == p
        assert pc.compose(p, ident) == p

    def test_degree_mismatch(self):
        with pytest.raises(GroupError, match="degree mismatch"):
            pc.compose(Permutation((1, 0)), Permutation((1, 2, 0)))

    def test_inverse_examples(self):
        assert oracles.inverse(P(1, 2, 0)) == P(2, 0, 1)
        assert oracles.inverse(oracles.identity(5)) == oracles.identity(5)
        # Z3's elements are (), (0 1 2) and (0 2 1), the last two each other's inverse
        z3 = pc.close_generators([P(1, 2, 0)])
        assert [z3.inv(i) for i in range(3)] == [0, 2, 1]

    def test_not_a_permutation(self):
        with pytest.raises(GroupError, match="not a permutation"):
            Permutation((0, 0, 1))

    @given(perms)
    def test_double_inverse(self, p):
        assert oracles.inverse(oracles.inverse(p)) == p

    @given(same_degree_pairs())
    def test_compose_is_consistent_pointwise(self, pair):
        p, q = pair
        r = pc.compose(Permutation(p), Permutation(q)).images
        assert r == oracles.compose(p, q)
        assert all(r[i] == p[q[i]] for i in range(len(p)))

    @given(same_degree_pairs())
    def test_matrix_homomorphism(self, pair):
        p, q = pair
        lhs = oracles.permutation_matrix(oracles.compose(p, q))
        rhs = oracles.permutation_matrix(p) @ oracles.permutation_matrix(q)
        assert np.array_equal(lhs, rhs)

    @given(perms)
    def test_vector_action_matches_matrix(self, p):
        x = np.arange(10, 10 + len(p), dtype=float)
        assert np.array_equal(oracles.act_on_vector(p, x), oracles.permutation_matrix(p) @ x)

    @given(perms)
    def test_vector_action_definition(self, p):
        x = np.arange(len(p), dtype=float)
        y = oracles.act_on_vector(p, x)
        assert all(y[p[i]] == x[i] for i in range(len(p)))


class TestCycleNotation:
    def test_format(self):
        assert pc.format_cycles(P(1, 2, 0, 3, 5, 4)) == "(0 1 2)(4 5)"
        assert pc.format_cycles(oracles.identity(4)) == "()"
        assert pc.format_cycles([1, 0, 2]) == pc.format_cycles(np.array([1, 0, 2])) == "(0 1)"

    def test_parse(self):
        assert pc.parse_cycles("(0 1 2)(4 5)", 6) == P(1, 2, 0, 3, 5, 4)
        assert pc.parse_cycles("()", 3) == oracles.identity(3)
        assert pc.parse_cycles("", 3) == oracles.identity(3)

    @pytest.mark.parametrize("text", ["(0 1) (2 3)", " (0 1)\t(2 3) ", "(0 1)()(2 3)"])
    def test_whitespace_between_cycles(self, text):
        assert pc.parse_cycles(text, 4) == P(1, 0, 3, 2)

    @pytest.mark.parametrize("text", ["((0 1))", "(0 1", "(0 1))", "(0 (1) 2)", ")0 1("])
    def test_malformed_parenthesis_is_named(self, text):
        with pytest.raises(GroupError) as info:
            pc.parse_cycles(text, 3)
        assert str(info.value) == f"malformed parenthesis in cycle notation {text!r}"

    def test_one_based(self):
        p = P(1, 2, 0)
        text = pc.format_cycles(p, one_based=True)
        assert text == "(1 2 3)"
        assert pc.parse_cycles(text, 3, one_based=True) == p

    @given(perms)
    def test_round_trip(self, p):
        assert pc.parse_cycles(pc.format_cycles(p), len(p)) == p

    @pytest.mark.parametrize(
        "bad", ["(0 1)(1 2)", "(0 9)", "(0 x)", "0 1 2"]
    )
    def test_parse_errors(self, bad):
        with pytest.raises(GroupError):
            pc.parse_cycles(bad, 3)


class TestClosure:
    def test_z3(self):
        g = pc.close_generators([P(1, 2, 0)])
        assert g.order == 3

    def test_d5(self):
        g = pc.close_generators(pc.dihedral_generators(5))
        assert g.order == 10

    def test_s4(self):
        g = pc.close_generators([P(1, 0, 2, 3), P(1, 2, 3, 0)])
        assert g.order == 24

    def test_identity_first_and_closure(self):
        g = pc.close_generators(pc.dihedral_generators(4))
        rows = oracles.image_rows(g)
        assert rows[0] == oracles.identity(4)
        elems = set(rows)
        for a in rows:
            assert oracles.inverse(a) in elems
            for b in rows:
                assert oracles.compose(a, b) in elems

    def test_order_divides_symmetric_group_order(self):
        for gens in (pc.dihedral_generators(4), pc.wreath_generators(2, 2)):
            g = pc.close_generators(gens)
            assert math.factorial(g.degree) % g.order == 0

    def test_cap_exceeded(self):
        with pytest.raises(GroupError, match="order cap exceeded"):
            pc.close_generators(pc.symmetric_generators(6), cap=100)

    def test_deterministic_element_order(self):
        a = pc.close_generators(pc.dihedral_generators(5))
        b = pc.close_generators(pc.dihedral_generators(5))
        assert a.elements == b.elements

    @pytest.mark.parametrize("images, dtype", [
        ((1.0, 0.0), "float64"), ((True, False), "bool"), ((0.0, 2.0, 1.0), "float64"),
    ], ids=["float", "bool", "float-3"])
    def test_non_integer_images_are_refused(self, images, dtype):
        # such rows sort to 0..n-1, so the closure checks their type as build_action does
        with pytest.raises(GroupError) as info:
            pc.close_generators([images])
        assert str(info.value) == f"generator image table must hold integers, not {dtype}"

    def test_numpy_integer_images_are_accepted(self):
        assert pc.close_generators([(np.int64(1), np.int64(0))]).order == 2
        assert pc.close_generators(np.array([[1, 2, 0]])).order == 3

    def test_cyclic_order_matches_shift_count(self):
        # single generator: BFS layers are consecutive powers
        g = pc.close_generators(pc.cyclic_generators(6))
        for k in range(6):
            assert oracles.image_rows(g)[k] == P(*[(i + k) % 6 for i in range(6)])


class TestNamedGroups:
    def test_cyclic6(self):
        gens = pc.named_group("cyclic", n=6)
        assert gens == [P(1, 2, 3, 4, 5, 0)]
        assert pc.close_generators(gens).order == 6

    def test_wreath_order_formula(self):
        for d, blocks in [(2, 2), (3, 2), (2, 3)]:
            g = pc.close_generators(pc.wreath_generators(d, blocks))
            assert g.order == oracles.wreath_order(d, blocks)

    def test_dihedral5(self):
        assert pc.close_generators(pc.named_group("dihedral", n=5)).order == 10

    def test_symmetric_orders(self):
        for n in (1, 2, 3, 4, 5):
            g = pc.close_generators(pc.symmetric_generators(n))
            assert g.order == math.factorial(n)

    def test_direct_product(self):
        gens = pc.direct_product_generators(
            pc.cyclic_generators(3), pc.cyclic_generators(4)
        )
        g = pc.close_generators(gens)
        assert g.degree == 7
        assert g.order == 12

    @pytest.mark.parametrize("factor", [[P(1, 0), P(1, 0, 2)], [P(1, 0, 2), P(1, 0)]],
                             ids=["short-first", "long-first"])
    def test_direct_product_factor_of_mixed_degrees(self, factor):
        first, second = (len(g) for g in factor)
        with pytest.raises(GroupError) as info:
            pc.direct_product_generators([P(0)], factor)
        assert str(info.value) == (
            f"direct_product: factor 1 generator 1 has degree {second}, not {first}"
        )

    def test_invalid_params(self):
        with pytest.raises(GroupError):
            pc.named_group("cyclic", n=0)
        with pytest.raises(GroupError):
            pc.named_group("frobnicate", n=3)


class TestLibraryInputErrors:
    @pytest.mark.parametrize("call, message", [
        (lambda: pc.close_generators([]), "need at least one generator"),
        (lambda: pc.close_generators([P(1, 0)], cap=0), "cap must be positive"),
        (lambda: pc.close_generators([P(1, 0), P(1, 2, 0)]), "generator image degree 3 != 2"),
        (lambda: pc.dihedral_generators(0), "dihedral: n must be >= 1"),
        (lambda: pc.symmetric_generators(0), "symmetric: n must be >= 1"),
        (lambda: pc.wreath_generators(0, 2), "wreath: d and blocks must be >= 1"),
        (lambda: pc.wreath_generators(2, 0), "wreath: d and blocks must be >= 1"),
        (lambda: pc.direct_product_generators(), "direct_product: need at least one factor"),
        (lambda: pc.direct_product_generators([P(1, 0)], []),
         "direct_product: empty factor generator list"),
        (lambda: pc.close_generators([Permutation((1, 0))]),
         "generator image 0 is not an int sequence: a Permutation"),
        (lambda: pc.close_generators([P(1, 0), 3]), "generator image 1 is not an int sequence: a int"),
        (lambda: pc.close_generators(P(1, 0)), "generator image 0 is not an int sequence: a int"),
        (lambda: pc.build_action(pc.close_generators([P(1, 0)]), [Permutation((1, 0))], 2),
         "generator image 0 is not an int sequence: a Permutation"),
        (lambda: pc.build_action(pc.close_generators([P(1, 0)]), [None], 2),
         "generator image 0 is not an int sequence: a NoneType"),
        (lambda: pc.named_group("cyclic"), "cyclic: missing field 'n'"),
        (lambda: pc.named_group("wreath", d=2), "wreath: missing field 'blocks'"),
        (lambda: pc.named_group("cyclic", n=3, m=4), "cyclic: unexpected field 'm'"),
    ], ids=[
        "no-generators", "cap-0", "mixed-degrees", "dihedral-0", "symmetric-0", "wreath-d-0",
        "wreath-blocks-0", "no-factor", "empty-factor", "permutation-object", "int-row",
        "one-row-not-a-list", "action-permutation-object", "action-none-row",
        "named-missing-field", "named-missing-second-field", "named-unexpected-field",
    ])
    def test_refused_with_its_message(self, call, message):
        with pytest.raises(GroupError) as info:
            call()
        assert str(info.value) == message

    @pytest.mark.parametrize("d, blocks", [(1, 3), (3, 1), (1, 1)])
    def test_wreath_with_one_point_blocks_or_one_block(self, d, blocks):
        gens = pc.wreath_generators(d, blocks)
        assert all(len(g) == d * blocks for g in gens)
        assert pc.close_generators(gens).order == oracles.wreath_order(d, blocks)

    def test_named_group_dispatches_wreath_and_direct_product(self):
        assert pc.named_group("wreath", d=2, blocks=3) == pc.wreath_generators(2, 3)
        factors = [pc.cyclic_generators(3), pc.symmetric_generators(3)]
        assert pc.named_group("direct_product", factors=factors) == (
            pc.direct_product_generators(*factors)
        )

    def test_empty_cycles_are_the_identity(self):
        assert pc.parse_cycles("()()", 3) == oracles.identity(3)

    def test_repr_and_hash(self):
        assert repr(Permutation((1, 2, 0, 3))) == "Permutation('(0 1 2)', degree=4)"
        a = pc.close_generators(pc.dihedral_generators(5))
        b = pc.close_generators(pc.dihedral_generators(5))
        assert repr(a) == "PermutationGroup(degree=5, order=10)"
        assert a is not b and a == b and hash(a) == hash(b)


class TestBuildAction:
    def test_unfaithful_z6_on_3(self, z6):
        act = pc.build_action(z6, [P(1, 2, 0)], 3)
        for k in range(6):
            assert act._table[k].tolist() == [(i + k) % 3 for i in range(3)]

    def test_trivial_image(self, z6):
        act = pc.build_action(z6, [oracles.identity(3)], 3)
        assert (act._table == np.arange(3)).all()

    def test_inconsistent_action(self):
        z3 = pc.close_generators([P(1, 2, 0)])
        with pytest.raises(GroupError, match="inconsistent action"):
            pc.build_action(z3, [P(1, 0)], 2)

    def test_wrong_image_count(self, z6):
        with pytest.raises(GroupError, match="generator images"):
            pc.build_action(z6, [P(1, 2, 0), P(1, 2, 0)], 3)

    @pytest.mark.parametrize(
        "joint_factory", [lambda: diagonal_symmetric_joint(4), lambda: cyclic_group_conv_joint(5)]
    )
    def test_homomorphism_exhaustive(self, joint_factory):
        joint = joint_factory()
        for action in (joint.n_action, joint.m_action):
            g = action.group
            table = action._table
            assert g.order <= 512
            for i in range(g.order):
                for j in range(g.order):
                    assert np.array_equal(table[g.mul(i, j)], table[i][table[j]])

    def test_homomorphism_sampled_above_512(self):
        # larger groups: generator pairs plus 1000 seeded random pairs
        joint = diagonal_symmetric_joint(6)
        action = joint.n_action
        g = action.group
        table = action._table
        assert g.order > 512
        for i in g.generator_ids:
            for j in g.generator_ids:
                assert np.array_equal(table[g.mul(i, j)], table[i][table[j]])
        rng = np.random.default_rng(0)
        for i, j in rng.integers(0, g.order, size=(1000, 2)):
            assert np.array_equal(table[g.mul(i, j)], table[i][table[j]])


def generator_lists(max_degree=7, max_gens=3):
    """Random generator lists on 1..max_degree points (duplicates and identities allowed)."""
    return st.integers(1, max_degree).flatmap(
        lambda n: st.lists(
            st.permutations(list(range(n))).map(tuple),
            min_size=1,
            max_size=max_gens,
        )
    )


def reference_images(group, gen_images, target_size):
    """``oracles.action_per_edge`` on a group: its image tuples, or its GroupError text."""
    try:
        return oracles.action_per_edge(
            oracles.image_rows(group), group.generator_ids, gen_images, target_size
        )
    except GroupError as exc:
        return str(exc)


def table_images(group, gen_images, target_size):
    try:
        return oracles.image_rows(pc.build_action(group, gen_images, target_size))
    except GroupError as exc:
        return str(exc)


class TestTableClosureAndAction:
    """The table-based closure and action builder against the per-element references."""

    @settings(max_examples=150, deadline=None)
    @given(generator_lists())
    def test_closure_matches_per_element_reference(self, gens):
        group = pc.close_generators(gens)
        elements, gen_ids = oracles.closure_per_element(gens)
        assert oracles.image_rows(group) == elements
        assert group.generator_ids == tuple(gen_ids)

    @settings(max_examples=150, deadline=None)
    @given(generator_lists(max_degree=6), st.integers(1, 5), st.booleans(), st.data())
    def test_action_matches_per_edge_reference(self, gens, target_size, relabel, data):
        group = pc.close_generators(gens)
        if relabel:
            # conjugating the natural action by a relabelling is always consistent
            sigma = tuple(data.draw(st.permutations(list(range(group.degree)))))
            sigma_inv = oracles.inverse(sigma)
            gen_images = [
                oracles.compose(sigma, oracles.compose(g, sigma_inv)) for g in group.generators
            ]
            target_size = group.degree
        else:
            gen_images = [
                tuple(data.draw(st.permutations(list(range(target_size)))))
                for _ in group.generator_ids
            ]
        expected = reference_images(group, gen_images, target_size)
        assert table_images(group, gen_images, target_size) == expected
        if relabel:
            assert not isinstance(expected, str)

    def test_closure_order_with_images_past_255(self):
        # (0 1) and (0 256) differ first at 1 vs 256, and (1 256) fixes 0: it sorts first
        gens = [pc.parse_cycles("(0 256)", 257), pc.parse_cycles("(0 1)", 257)]
        group = pc.close_generators(gens)
        elements, gen_ids = oracles.closure_per_element(gens)
        assert group.order == 6
        assert oracles.image_rows(group) == elements
        assert group.generator_ids == tuple(gen_ids) == (5, 2)
        assert elements[1] == pc.parse_cycles("(1 256)", 257)

    @pytest.mark.parametrize(
        "gens, degree, images, target_size, element",
        [
            # S4 from (0 1) and (0 1 2 3)
            (None, 4, ["(0 1)", "(0 1 2)"], 3, "(0 3 2)"),
            # the conflict surfaces in a layer whose discovery order is not its index order
            (["(0 1 4 2)", "(0 4 1 3 2)"], 5, ["(1 2)", "(0 2 1)"], 3, "(0 1)(2 3)"),
        ],
        ids=["s4", "discovery-order"],
    )
    def test_names_the_first_failing_edge(self, gens, degree, images, target_size, element):
        gens = (
            pc.symmetric_generators(degree)
            if gens is None
            else [pc.parse_cycles(g, degree) for g in gens]
        )
        group = pc.close_generators(gens)
        gen_images = [pc.parse_cycles(m, target_size) for m in images]
        message = f"inconsistent action: element {element} receives two distinct images"
        assert reference_images(group, gen_images, target_size) == message
        with pytest.raises(GroupError) as exc:
            pc.build_action(group, gen_images, target_size)
        assert str(exc.value) == message

    def test_trivial_group(self):
        trivial = pc.close_generators([oracles.identity(3), oracles.identity(3)])
        assert trivial.order == 1
        assert trivial.generator_ids == (0,)
        assert trivial._table.tolist() == [[0, 1, 2]]
        act = pc.build_action(trivial, [oracles.identity(2)], 2)
        assert act._table.tolist() == [[0, 1]]
        swap = [P(1, 0)]
        message = "inconsistent action: element () receives two distinct images"
        assert reference_images(trivial, swap, 2) == table_images(trivial, swap, 2) == message

    def test_target_size_one(self, z6):
        act = pc.build_action(z6, [(0,)], 1)
        assert oracles.image_rows(act) == reference_images(z6, [(0,)], 1)
        assert act._table.tolist() == [[0]] * 6


@st.composite
def small_support_lists(draw, max_degree=9):
    """1-3 generators of degree 1..max_degree, each moving points of one shared support of <= 6."""
    degree = draw(st.integers(1, max_degree))
    support = draw(st.lists(st.integers(0, degree - 1), min_size=1, max_size=6, unique=True))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        images = list(range(degree))
        for a, b in zip(support, draw(st.permutations(support))):
            images[a] = b
        gens.append(tuple(images))
    return gens


def assert_order_contract(gens, other):
    """The element order of <gens>: sorted image arrays, the identity first, from any generators.

    ``other`` generates the same group from another list.
    """
    group = pc.close_generators(gens)
    elements, _ = oracles.closure_per_element(gens)
    rows = list(map(tuple, group._table.tolist()))
    assert rows == elements
    assert all(a < b for a, b in zip(rows, rows[1:]))
    assert rows[0] == tuple(range(group.degree))
    assert np.array_equal(group._table[list(group.generator_ids)], group._generator_rows)
    assert np.array_equal(pc.close_generators(other)._table, group._table)


class TestElementOrder:
    """Element ids follow the lexicographic order of the image arrays: a function of the group."""

    @settings(max_examples=150, deadline=None)
    @given(small_support_lists(), st.data())
    def test_sorted_rows_from_any_generating_list(self, gens, data):
        group = pc.close_generators(gens)
        picks = data.draw(st.lists(st.integers(0, group.order - 1), max_size=3))
        other = [oracles.image_rows(group)[i] for i in picks] + gens[::-1]
        assert_order_contract(gens, other)

    def test_above_degree_256(self):
        gens = [pc.parse_cycles("(0 257 299)(5 150)", 300), pc.parse_cycles("(0 150)", 300)]
        other = [oracles.compose(gens[1], gens[0]), gens[1], oracles.identity(300)]
        assert pc.close_generators(gens)._chain.narrow is False
        assert_order_contract(gens, other)

    @pytest.mark.parametrize("n", [*range(1, 65), 120, 240])
    def test_cyclic_element_k_is_the_kth_power(self, n):
        """Z_n from its n-cycle s: element k is s^k, so ``regular_action`` labels point k by s^k."""
        group = pc.close_generators(pc.cyclic_generators(n))
        shifts = (np.arange(n)[:, None] + np.arange(n)) % n  # row k sends i to i + k
        assert np.array_equal(group._table, shifts)
        assert group.generator_ids == ((1,) if n > 1 else (0,))
        assert np.array_equal(pc.regular_action(group)._table, shifts)  # s^j s^k = s^(j+k)


class TestRowKeyBoundary:
    """Rows that first differ late keep their image-array order at degrees 14 to 17."""

    # (0 10)(1 13) and (0 11): their rows first differ at 10 vs 11, while the
    # next entry (13 vs 1) would reverse the order under a too-small base
    CYCLES = ["(0 10)(1 13)", "(0 11)", "(3 12)", "(0 11)"]

    @pytest.mark.parametrize("degree", [14, 15, 16, 17])
    def test_closure_matches_per_element_reference(self, degree):
        gens = [pc.parse_cycles(c, degree) for c in self.CYCLES]
        group = pc.close_generators(gens)
        elements, gen_ids = oracles.closure_per_element(gens)
        assert 1 < group.order < 200
        assert oracles.image_rows(group) == elements
        assert group.generator_ids == tuple(gen_ids)
        # sorted by image array: (3 12) fixes 0, then (0 10)(1 13) before (0 11)
        assert group.generator_ids == (12, 17, 2)


class TestFaithfulImage:
    def test_z6_quotient(self, z6):
        act = pc.build_action(z6, [P(1, 2, 0)], 3)
        image, profile = pc.faithful_image(act)
        assert image.order == 3
        assert profile.kernel_size == 2
        assert not profile.faithful

    def test_identity_action(self, z6):
        image, profile = pc.faithful_image(pc.trivial_action(z6, 4))
        assert image.order == 1
        assert profile.kernel_size == 6

    def test_reverse_conv_pairing_faithful(self, reverse_conv):
        # the pair map g -> (g^N, g^M) is injective: all six pairs distinct
        assert reverse_conv.joint_order == 6
        pairs = set(oracles.joint_pairs(reverse_conv))
        assert len(pairs) == 6

    def test_one_image_group_per_action(self, z6, monkeypatch):
        row_group = pc._row_group
        calls = []
        monkeypatch.setattr(pc, "_row_group", lambda *a, **k: calls.append(a) or row_group(*a, **k))
        action = pc.regular_action(z6)
        image, profile = pc.faithful_image(action)
        assert len(calls) == 1 and image is action._image_group
        assert image.order == profile.image_order == 6
        assert pc.faithful_image(action)[0] is image and len(calls) == 1

    def test_order_times_kernel(self, z6, reverse_conv):
        for act in (
            pc.build_action(z6, [P(1, 2, 0)], 3),
            pc.trivial_action(z6, 3),
            reverse_conv.m_action,
        ):
            image, profile = pc.faithful_image(act)
            assert image.order * profile.kernel_size == act.group.order


def mirror_action(n):
    g2 = pc.close_generators(pc.cyclic_generators(2))
    flip = tuple(n - 1 - i for i in range(n))
    return pc.build_action(g2, [flip], n)


class TestOrbitsAndClassification:
    def test_mirror_orbits_even(self):
        part = pc.orbits(mirror_action(6))
        assert part.orbit_count == 3
        assert [part.members(o) for o in range(3)] == [[0, 5], [1, 4], [2, 3]]
        assert part.representatives == (0, 1, 2)
        # a trivial action has one orbit per point: listing them all stays linear
        g2 = pc.close_generators(pc.cyclic_generators(2))
        part = pc.orbits(pc.trivial_action(g2, 4000))
        assert [part.members(o) for o in range(part.orbit_count)] == [[i] for i in range(4000)]

    def test_rot90_two_orbits(self, rot90):
        part = pc.orbits(rot90.n_action)
        assert part.orbit_count == 2
        assert part.members(0) == [0, 1, 2, 3]
        assert part.members(1) == [4, 5, 6, 7]

    def test_symmetric_transitive(self):
        joint = diagonal_symmetric_joint(5)
        assert pc.orbits(joint.n_action).orbit_count == 1

    def test_mirror_even_semi_regular_not_transitive(self):
        profile = pc.classify_action(mirror_action(6))
        assert profile.semi_regular and not profile.transitive and not profile.regular

    def test_mirror_odd_not_semi_regular(self):
        profile = pc.classify_action(mirror_action(5))
        assert not profile.semi_regular
        assert pc.orbits(mirror_action(5)).orbit_count == 3

    def test_z3_regular(self):
        z3 = pc.close_generators([P(1, 2, 0)])
        profile = pc.classify_action(pc.natural_action(z3))
        assert profile.regular and profile.transitive and profile.semi_regular

    def test_reverse_conv_profiles(self, reverse_conv):
        # g^3 fixes all 3 inputs: a non-faithful action is never semi-regular
        assert pc.classify_action(reverse_conv.n_action) == pc.ActionProfile(
            faithful=False,
            transitive=True,
            semi_regular=False,
            regular=False,
            kernel_size=2,
            image_order=3,
        )
        # the output side is the regular action group convolution relies on
        m_profile = pc.classify_action(reverse_conv.m_action)
        assert m_profile.faithful and m_profile.semi_regular and m_profile.regular

    def test_regular_iff_transitive_and_semi_regular(self, reverse_conv, rot90, mirror_conv):
        actions = [
            reverse_conv.n_action, reverse_conv.m_action,
            rot90.n_action, mirror_conv.n_action, mirror_conv.m_action,
            mirror_action(5), mirror_action(6),
        ]
        for act in actions:
            p = pc.classify_action(act)
            assert p.regular == (p.transitive and p.semi_regular)

    def test_orbit_stabilizer(self, reverse_conv, rot90, mirror_conv):
        for act in (reverse_conv.n_action, rot90.n_action, mirror_conv.n_action):
            image, _ = pc.faithful_image(act)
            perms = oracles.image_rows(image)
            for x in range(act.target_size):
                orbit, stab = oracles.orbit_stabilizer_counts(perms, x)
                assert image.order == orbit * stab


class TestJointAction:
    def test_reverse_conv(self, reverse_conv):
        assert reverse_conv.joint_order == 6

    def test_s4_diagonal(self):
        joint = diagonal_symmetric_joint(4)
        assert joint.joint_order == 24
        assert all(gn == gm for gn, gm in oracles.joint_pairs(joint))

    def test_trivial_m_side(self, z6):
        n_act = pc.build_action(z6, [P(1, 2, 0)], 3)
        joint = pc.joint_action(n_act, pc.trivial_action(z6, 4))
        image, _ = pc.faithful_image(n_act)
        assert joint.joint_order == image.order

    def test_group_mismatch(self, z6):
        z3 = pc.close_generators([P(1, 2, 0)])
        with pytest.raises(GroupError, match="reference-group mismatch"):
            pc.joint_action(pc.natural_action(z6), pc.natural_action(z3))

    def test_reordered_generators_mismatch(self):
        """Z2 x Z3 from (x, y) and from (y, x): same elements, generator rows in other orders."""
        x, y = pc.parse_cycles("(0 1)", 5), pc.parse_cycles("(2 3 4)", 5)
        xy, yx = pc.close_generators([x, y]), pc.close_generators([y, x])
        shift, ident = pc.parse_cycles("(0 1 2)", 3), oracles.identity(3)
        # both sides act through Z3 (x acts trivially); paired row by row, 9 pairs for 3
        n_act = pc.build_action(xy, [ident, shift], 3)
        with pytest.raises(GroupError, match="reference-group mismatch"):
            pc.joint_action(n_act, pc.build_action(yx, [shift, ident], 3))
        assert pc.joint_action(n_act, pc.build_action(xy, [ident, shift], 3)).joint_order == 3

    def test_joint_elements_form_a_group(self, reverse_conv, mirror_conv):
        for joint in (reverse_conv, mirror_conv):
            pairs = set(oracles.joint_pairs(joint))
            assert (tuple(range(joint.n_size)), tuple(range(joint.m_size))) in pairs
            for (an, am) in pairs:
                for (bn, bm) in pairs:
                    prod = (tuple(an[v] for v in bn), tuple(am[v] for v in bm))
                    assert prod in pairs
            assert joint.joint_order % 1 == 0
            assert joint.group.order % joint.joint_order == 0


class TestSymmetrizeGenset:
    def test_adds_inverse(self, z6):
        assert pc.symmetrize_genset(z6, [1]) == (1, 5)

    def test_non_generating(self, z6):
        # closure of {2, 4} inside Z6 only reaches the even shifts
        sub = pc.close_generators(z6._table[[2, 4]])
        assert sub.order == 3
        with pytest.raises(GroupError, match="does not generate"):
            pc.symmetrize_genset(z6, [2])

    def test_full_set_unchanged(self, z6):
        assert pc.symmetrize_genset(z6, range(6)) == tuple(range(6))

    def test_generating_set_checked_once_per_group(self, monkeypatch):
        z5 = pc.close_generators(pc.cyclic_generators(5))
        orders = []
        row_group = pc._row_group

        def counted(rows, **kw):
            orders.append(len(rows))
            return row_group(rows, **kw)

        monkeypatch.setattr(pc, "_row_group", counted)
        # a set holding the group's generator generates without a check
        assert [pc.symmetrize_genset(z5, ids) for ids in ([1], [4], [1, 4])] == [(1, 4)] * 3
        assert orders == []
        # ids are still range-checked, and another set is checked, either way round
        with pytest.raises(GroupError, match="out of range"):
            pc.symmetrize_genset(z5, [1, 5])
        assert [pc.symmetrize_genset(z5, ids) for ids in ([2], [3])] == [(2, 3)] * 2
        assert orders == [2, 2]

    def test_some_generators_are_checked(self):
        # S4 from (0 1) and (0 1 2 3): either generator alone, with its inverse, falls short
        s4 = pc.close_generators(pc.symmetric_generators(4))
        for gen_id in s4.generator_ids:
            with pytest.raises(GroupError, match="does not generate"):
                pc.symmetrize_genset(s4, [gen_id])
        # (0 1), (0 1 2 3) and (0 3 2 1) at their ranks in the lexicographic order of S4
        assert pc.symmetrize_genset(s4, s4.generator_ids) == (6, 9, 18)

    def test_non_generating_set_raises_every_time(self, z6):
        for _ in range(2):
            with pytest.raises(GroupError, match="does not generate"):
                pc.symmetrize_genset(z6, [2])
