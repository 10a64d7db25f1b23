import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from eqtie import designs, layer, permcore as pc
from eqtie.designs import Relation, SharingStructure
from eqtie.layer import LayerError

from conftest import cyclic_group_conv_joint, diagonal_symmetric_joint


@pytest.fixture(scope="module")
def rc_layer(reverse_conv_structure):
    return layer.tied_layer_from_structure(reverse_conv_structure, np.array([1.0, 2.0]))


def perturbed_reverse_conv(reverse_conv_structure):
    """One extra color overlaid on a single tied cell: breaks the tying."""
    extra = Relation(3, [(1, 0)], {"kind": "dense", "representative": (1, 0)})
    return SharingStructure(3, 6, reverse_conv_structure.relations + (extra,))


def reverse_stack_second(reverse_conv, nonlinearity=layer.IDENTITY):
    """The joint and layer that map reverse conv's outputs back onto its inputs."""
    swapped = pc.joint_action(reverse_conv.m_action, reverse_conv.n_action)
    second = layer.tied_layer_from_structure(
        designs.sparse_design(swapped, [1, 5]), nonlinearity=nonlinearity
    )
    return swapped, second


class TestMaterializeForward:
    def test_reference_weight_matrix(self, reverse_conv_structure):
        cm = designs.merge_colors(reverse_conv_structure)
        w = layer.materialize(cm, np.array([1, 2]))
        expected = np.array(
            [[0, 1, 2], [1, 2, 0], [2, 0, 1], [0, 1, 2], [1, 2, 0], [2, 0, 1]]
        )
        assert np.array_equal(w, expected)
        assert w.dtype == np.int64

    def test_zero_theta(self, reverse_conv_structure):
        cm = designs.merge_colors(reverse_conv_structure)
        assert not layer.materialize(cm, np.zeros(2)).any()

    def test_theta_length_mismatch(self, reverse_conv_structure):
        cm = designs.merge_colors(reverse_conv_structure)
        with pytest.raises(LayerError, match="theta length"):
            layer.materialize(cm, np.ones(3))

    def test_forward_single_spike(self, rc_layer):
        y = layer.forward(rc_layer, np.array([1.0, 0.0, 0.0]))
        assert np.array_equal(y, [0, 1, 2, 0, 1, 2])

    def test_forward_zero_input(self, rc_layer, reverse_conv_structure):
        zero = np.zeros(3)
        assert not layer.forward(rc_layer, zero).any()
        leaky_layer = layer.tied_layer_from_structure(
            reverse_conv_structure, np.array([1.0, 2.0]), layer.leaky(0.5)
        )
        assert not layer.forward(leaky_layer, zero).any()

    def test_leaky_definition(self):
        assert np.array_equal(layer.leaky(0.5).apply(np.array([-2.0, 4.0])), [-1.0, 4.0])

    def test_leaky_slope_validation(self):
        with pytest.raises(LayerError):
            layer.leaky(1.0)
        with pytest.raises(LayerError):
            layer.leaky(0.0)

    def test_first_primes(self):
        assert layer.first_primes(5).tolist() == [2, 3, 5, 7, 11]

    def test_first_primes_match_trial_division(self):
        primes = oracles.primes_by_trial_division(2000)
        for count in range(2001):
            got = layer.first_primes(count)
            assert got.dtype == np.int64 and got.tolist() == primes[:count], count

    def test_require_distinct_theta(self, reverse_conv_structure):
        tied = layer.tied_layer_from_structure(reverse_conv_structure, np.array([1.0, 1.0]))
        with pytest.raises(LayerError, match="distinct"):
            tied.require_distinct_theta()


class TestCheckEquivariance:
    def test_reverse_conv_passes_exactly(self, rc_layer, reverse_conv):
        rep = layer.check_equivariance(rc_layer, reverse_conv, trials=4)
        assert rep.passed and rep.exact_pass
        assert rep.max_residual == 0.0
        assert rep.tested_elements == 6

    def test_s4_dense_passes(self):
        joint = diagonal_symmetric_joint(4)
        tied = layer.tied_layer_from_structure(designs.dense_design(joint))
        assert layer.check_equivariance(tied, joint, trials=3).passed

    def test_broken_tie_fails(self, reverse_conv_structure, reverse_conv):
        tied = layer.tied_layer_from_structure(perturbed_reverse_conv(reverse_conv_structure))
        rep = layer.check_equivariance(tied, reverse_conv, trials=4)
        assert not rep.passed and not rep.exact_pass
        assert rep.max_residual > 0

    def test_size_mismatch(self, rc_layer):
        joint = diagonal_symmetric_joint(4)
        with pytest.raises(LayerError):
            layer.check_equivariance(rc_layer, joint)

    def test_nonlinearity_transparency(self, reverse_conv_structure, reverse_conv):
        for structure in (reverse_conv_structure, perturbed_reverse_conv(reverse_conv_structure)):
            verdicts = []
            for sigma in (layer.IDENTITY, layer.leaky(0.5)):
                tied = layer.tied_layer_from_structure(structure, nonlinearity=sigma)
                verdicts.append(layer.check_equivariance(tied, reverse_conv, trials=4).passed)
            assert verdicts[0] == verdicts[1]

    def test_generator_sufficiency(self, reverse_conv, rot90, mirror_conv):
        # commutation on the generator pairs alone already decides the verdict
        for joint in (reverse_conv, rot90, mirror_conv):
            genset = pc.symmetrize_genset(joint.group, joint.group.generator_ids)
            s = designs.sparse_design(joint, genset)
            w = layer.materialize(designs.merge_colors(s), layer.first_primes(s.base_color_count))
            gen_ok = all(
                layer.matrix_commutes(w, joint.n_action._table[g], joint.m_action._table[g])
                for g in joint.group.generator_ids
            )
            full_ok = all(
                layer.matrix_commutes(w, gn, gm) for gn, gm in oracles.joint_pairs(joint)
            )
            assert gen_ok and full_ok

    def test_exact_route_asks_the_generators(self, monkeypatch):
        joint = diagonal_symmetric_joint(5)
        tied = layer.tied_layer_from_structure(designs.dense_design(joint))
        calls = []
        commutes = layer.matrix_commutes
        monkeypatch.setattr(
            layer, "matrix_commutes",
            lambda w, gn, gm: calls.append((gn, gm)) or commutes(w, gn, gm),
        )
        report = layer.check_equivariance(tied, joint, trials=1)
        assert report.exact_pass and report.tested_elements == 120
        # the generator pairs' int rows, in order: no Permutation is built
        assert all(isinstance(row, np.ndarray) for pair in calls for row in pair)
        gens = [list(g.images) for g in joint.group.generators]
        assert [(gn.tolist(), gm.tolist()) for gn, gm in calls] == [(g, g) for g in gens]
        calls.clear()
        report = layer.compose_layers(tied, tied, joint, joint, trials=1)
        assert report.exact_pass and len(calls) == len(joint.group.generator_ids) == 2

    def test_report_records_seed(self, rc_layer, reverse_conv):
        rep = layer.check_equivariance(rc_layer, reverse_conv, trials=2, seed=17)
        assert rep.seed == 17 and rep.trials == 2

    def test_matrix_commutes_matches_literal_products(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            m_size, n_size = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            w = rng.integers(0, 3, size=(m_size, n_size))
            gn = pc.Permutation(tuple(rng.permutation(n_size).tolist()))
            gm = pc.Permutation(tuple(rng.permutation(m_size).tolist()))
            literal = np.array_equal(
                oracles.permutation_matrix(gm) @ w, w @ oracles.permutation_matrix(gn)
            )
            assert layer.matrix_commutes(w, gn, gm) == literal
            assert layer.matrix_commutes(w, np.array(gn.images), np.array(gm.images)) == literal
            assert oracles.commutes_exactly(w, gn.images, gm.images) == literal


class TestFloatRouteOracle:
    """The batched float route against the per-(element, trial) reference loop."""

    @pytest.mark.parametrize("perturbed", [False, True])
    @pytest.mark.parametrize("sigma", [layer.IDENTITY, layer.leaky(0.5)])
    @pytest.mark.parametrize("seed", [0, 5, 301])
    def test_check_equivariance_residual(
        self, reverse_conv_structure, reverse_conv, perturbed, sigma, seed
    ):
        s = reverse_conv_structure
        if perturbed:
            s = perturbed_reverse_conv(s)
        tied = layer.tied_layer_from_structure(s, nonlinearity=sigma)
        rep = layer.check_equivariance(tied, reverse_conv, trials=5, seed=seed)
        expected = oracles.float_residual_per_trial(
            lambda x: layer.forward(tied, x), oracles.joint_pairs(reverse_conv), 3, 5, seed
        )
        assert rep.max_residual == expected
        assert (expected > 0) == perturbed

    @pytest.mark.parametrize("sigma", [layer.IDENTITY, layer.leaky(0.5)])
    @pytest.mark.parametrize("seed", [0, 5, 301])
    def test_compose_layers_residual(self, reverse_conv_structure, reverse_conv, sigma, seed):
        swapped, second = reverse_stack_second(reverse_conv, sigma)
        first = layer.tied_layer_from_structure(
            perturbed_reverse_conv(reverse_conv_structure), nonlinearity=sigma
        )
        rep = layer.compose_layers(first, second, reverse_conv, swapped, trials=4, seed=seed)
        pairs = oracles.distinct_pairs(
            oracles.image_rows(reverse_conv.n_action),
            oracles.image_rows(swapped.m_action),
        )
        expected = oracles.float_residual_per_trial(
            lambda x: layer.forward(second, layer.forward(first, x)), pairs, 3, 4, seed
        )
        assert rep.tested_elements == len(pairs)
        assert rep.max_residual == expected > 0
        assert not rep.passed and not rep.exact_pass

    @staticmethod
    def perturbed_dense(n, sigma=layer.IDENTITY):
        """Dense diagonal S_n with one extra color on cell (0, 1): not equivariant."""
        joint = diagonal_symmetric_joint(n)
        s = designs.dense_design(joint)
        extra = Relation(
            s.base_color_count + 1, [(0, 1)], {"kind": "dense", "representative": (0, 1)}
        )
        s = SharingStructure(n, n, s.relations + (extra,))
        return joint, layer.tied_layer_from_structure(s, nonlinearity=sigma)

    def test_wide_group_residual(self):
        joint, tied = self.perturbed_dense(4, layer.leaky(0.5))
        rep = layer.check_equivariance(tied, joint, trials=3, seed=11)
        expected = oracles.float_residual_per_trial(
            lambda x: layer.forward(tied, x), oracles.joint_pairs(joint), 4, 3, 11
        )
        assert rep.max_residual == expected > 0

    @pytest.mark.parametrize("seed", [0, 1, 3])
    def test_non_integer_theta_within_rounding(self, seed):
        # a matrix product may sum in another order than n matrix-vector
        # products; each output entry is within n * eps * sum_j |W_ij x_j| of
        # the exact value, whose residual is 0, so the two residuals differ by
        # at most four such bounds
        joint = diagonal_symmetric_joint(4)
        s = designs.dense_design(joint)
        theta = np.random.default_rng(seed).normal(size=s.base_color_count)
        tied = layer.tied_layer_from_structure(s, theta, layer.leaky(0.5))
        rep = layer.check_equivariance(tied, joint, trials=4, seed=seed)
        expected = oracles.float_residual_per_trial(
            lambda x: layer.forward(tied, x), oracles.joint_pairs(joint), 4, 4, seed
        )
        bound = 4 * 4 * np.finfo(float).eps * 9 * np.abs(tied.weights()).sum(axis=1).max()
        assert abs(rep.max_residual - expected) <= bound
        assert rep.passed

    @pytest.mark.parametrize("cells", [1, 40, 1 << 14])
    @pytest.mark.parametrize("sigma", [layer.IDENTITY, layer.leaky(0.5)])
    def test_blocks_of_elements(self, monkeypatch, cells, sigma):
        # 120 elements of 15 cells each: blocks of 1, of 2, and one block
        monkeypatch.setattr(layer, "_FLOAT_BATCH_CELLS", cells)
        joint, tied = self.perturbed_dense(5, sigma)
        rep = layer.check_equivariance(tied, joint, trials=3, seed=9)
        expected = oracles.float_residual_per_trial(
            lambda x: layer.forward(tied, x), oracles.joint_pairs(joint), 5, 3, 9
        )
        assert rep.max_residual == expected > 0
        assert not rep.passed and rep.tested_elements == 120

    def test_default_blocks_span_several(self):
        # 720 elements of 8 x 6 cells: three blocks at the default block size
        assert 720 * 8 * 6 > 2 * layer._FLOAT_BATCH_CELLS
        joint, tied = self.perturbed_dense(6, layer.leaky(0.5))
        rep = layer.check_equivariance(tied, joint, trials=8, seed=4)
        expected = oracles.float_residual_per_trial(
            lambda x: layer.forward(tied, x), oracles.joint_pairs(joint), 6, 8, 4
        )
        assert rep.max_residual == expected > 0

    @pytest.mark.parametrize("cells", [1, 50])
    def test_compose_layers_blocks(self, monkeypatch, reverse_conv_structure, reverse_conv, cells):
        # 6 elements of 4 trials x 6 middle cells: blocks of 1, or of 2
        monkeypatch.setattr(layer, "_FLOAT_BATCH_CELLS", cells)
        swapped, second = reverse_stack_second(reverse_conv, layer.leaky(0.5))
        first = layer.tied_layer_from_structure(
            perturbed_reverse_conv(reverse_conv_structure), nonlinearity=layer.leaky(0.5)
        )
        rep = layer.compose_layers(first, second, reverse_conv, swapped, trials=4, seed=2)
        pairs = oracles.distinct_pairs(
            oracles.image_rows(reverse_conv.n_action),
            oracles.image_rows(swapped.m_action),
        )
        expected = oracles.float_residual_per_trial(
            lambda x: layer.forward(second, layer.forward(first, x)), pairs, 3, 4, 2
        )
        assert rep.max_residual == expected > 0
        rep = layer.compose_layers(first, second, reverse_conv, swapped, trials=0)
        assert rep.trials == 0 and rep.max_residual == 0.0

    @pytest.mark.parametrize("cells", [1, 7])
    def test_zero_trials_in_blocks(self, monkeypatch, cells):
        monkeypatch.setattr(layer, "_FLOAT_BATCH_CELLS", cells)
        joint, tied = self.perturbed_dense(4)
        rep = layer.check_equivariance(tied, joint, trials=0)
        assert rep.trials == 0 and rep.max_residual == 0.0
        assert not rep.exact_pass and not rep.passed

    def test_nan_survives_later_blocks(self, monkeypatch):
        # one element per block: a NaN block must not be replaced by a later finite one
        monkeypatch.setattr(layer, "_FLOAT_BATCH_CELLS", 1)
        joint = diagonal_symmetric_joint(3)
        tied = layer.tied_layer_from_structure(designs.dense_design(joint), [1e308, 1e308])
        with np.errstate(over="ignore", invalid="ignore"):
            rep = layer.check_equivariance(tied, joint, trials=2)
        assert np.isnan(rep.max_residual) and not rep.passed

    @pytest.mark.parametrize("n_size", [3, 4, 7])
    @pytest.mark.parametrize("trials", [1, 3, 8])
    def test_block_draw_matches_per_element_draws(self, n_size, trials):
        # the draw contract the float route relies on: one (k, trials, n) draw
        # is k (trials, n) draws, so block size never changes the inputs
        block = np.random.default_rng(31).integers(-9, 10, size=(5, trials, n_size))
        rng = np.random.default_rng(31)
        single = [rng.integers(-9, 10, size=(trials, n_size)) for _ in range(5)]
        assert np.array_equal(block, np.stack(single))

    def test_scratch_memory_is_bounded(self):
        # dense S7, 5040 elements x 8 trials x 7 inputs: the blocks keep the
        # check's peak allocation below 2 MiB
        joint = diagonal_symmetric_joint(7)
        tied = layer.tied_layer_from_structure(designs.dense_design(joint))
        rep, peak = self.peak_bytes(lambda: layer.check_equivariance(tied, joint, trials=8))
        assert rep.passed and rep.tested_elements == 5040
        assert peak < 2 * 2**20

    @staticmethod
    def peak_bytes(run):
        # the process's first random generator allocates about 1 MiB of module state;
        # made here, it stays out of the traced call whichever test runs first
        np.random.default_rng()
        tracemalloc.start()
        try:
            result = run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return result, peak

    @pytest.fixture(scope="class")
    def s6_actions(self):
        """S6 acting trivially on 1 point, naturally on 6, regularly on 720."""
        g = pc.close_generators(pc.symmetric_generators(6))
        return pc.trivial_action(g, 1), pc.natural_action(g), pc.regular_action(g)

    def test_scratch_memory_bounded_by_output_side(self, s6_actions):
        # one input point against the 720 outputs of the regular action: a
        # block sized by n alone would hold 720 elements x 8 trials x 720 outputs
        trivial, _, reg = s6_actions
        joint = pc.joint_action(trivial, reg)
        tied = layer.tied_layer_from_structure(designs.dense_design(joint))
        rep, peak = self.peak_bytes(lambda: layer.check_equivariance(tied, joint, trials=8))
        assert rep.passed and rep.tested_elements == 720
        assert peak < 2 * 2**20

    def test_scratch_memory_bounded_by_middle_side(self, s6_actions):
        # 6 inputs, the 720 regular points in the middle, 6 outputs: a block
        # sized by the ends alone would hold 341 elements x 8 trials x 720
        _, nat, reg = s6_actions
        joint_nm, joint_mo = pc.joint_action(nat, reg), pc.joint_action(reg, nat)
        first = layer.tied_layer_from_structure(designs.dense_design(joint_nm))
        second = layer.tied_layer_from_structure(designs.dense_design(joint_mo))
        rep, peak = self.peak_bytes(
            lambda: layer.compose_layers(first, second, joint_nm, joint_mo, trials=8)
        )
        assert rep.passed and rep.tested_elements == 720
        assert peak < 2 * 2**20

    def test_zero_trials(self, reverse_conv_structure, reverse_conv):
        tied = layer.tied_layer_from_structure(perturbed_reverse_conv(reverse_conv_structure))
        rep = layer.check_equivariance(tied, reverse_conv, trials=0)
        assert rep.trials == 0 and rep.max_residual == 0.0
        assert not rep.exact_pass and not rep.passed
        swapped, second = reverse_stack_second(reverse_conv)
        rep = layer.compose_layers(tied, second, reverse_conv, swapped, trials=0)
        assert rep.trials == 0 and rep.max_residual == 0.0

    @pytest.mark.parametrize("trials", [0, 1, 8])
    def test_zero_point_layers(self, trials):
        # 0 x 0 layers: blocks are sized as if one point wide, and the one
        # joint element replays empty vectors
        g = pc.close_generators(pc.symmetric_generators(3))
        empty = pc.trivial_action(g, 0)
        joint = pc.joint_action(empty, empty)
        tied = layer.tied_layer_from_structure(designs.dense_design(joint))
        assert (tied.n_size, tied.m_size) == (0, 0)
        for rep in (
            layer.check_equivariance(tied, joint, trials=trials),
            layer.compose_layers(tied, tied, joint, joint, trials=trials),
        ):
            assert rep.passed and rep.exact_pass and rep.max_residual == 0.0
            assert rep.tested_elements == joint.joint_order and rep.trials == trials

    def test_negative_trials_rejected(self, rc_layer, reverse_conv):
        with pytest.raises(LayerError, match="trials must be >= 0"):
            layer.check_equivariance(rc_layer, reverse_conv, trials=-3)
        swapped, second = reverse_stack_second(reverse_conv)
        with pytest.raises(LayerError, match="trials must be >= 0"):
            layer.compose_layers(rc_layer, second, reverse_conv, swapped, trials=-1)

    def test_negative_seed_rejected(self, rc_layer, reverse_conv):
        with pytest.raises(LayerError, match=r"^seed must be >= 0$"):
            layer.check_equivariance(rc_layer, reverse_conv, seed=-1)
        swapped, second = reverse_stack_second(reverse_conv)
        with pytest.raises(LayerError, match=r"^seed must be >= 0$"):
            layer.compose_layers(rc_layer, second, reverse_conv, swapped, seed=-1)

    @pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), -1.0])
    def test_bad_tolerance_rejected(self, rc_layer, reverse_conv, tolerance):
        with pytest.raises(LayerError, match=r"^tolerance must be finite and >= 0$"):
            layer.check_equivariance(rc_layer, reverse_conv, tolerance=tolerance)
        swapped, second = reverse_stack_second(reverse_conv)
        with pytest.raises(LayerError, match=r"^tolerance must be finite and >= 0$"):
            layer.compose_layers(rc_layer, second, reverse_conv, swapped, tolerance=tolerance)

    def test_zero_tolerance_accepted(self, rc_layer, reverse_conv):
        rep = layer.check_equivariance(rc_layer, reverse_conv, trials=2, tolerance=0.0)
        assert rep.tolerance == 0.0 and rep.max_residual == 0.0 and rep.passed
        swapped, second = reverse_stack_second(reverse_conv)
        rep = layer.compose_layers(rc_layer, second, reverse_conv, swapped, trials=2,
                                   tolerance=0.0)
        assert rep.tolerance == 0.0 and rep.passed


@functools.cache
def small_group_actions(kind, n):
    """A small group's natural and regular actions, and its trivial actions on 1-3 points."""
    g = pc.close_generators(getattr(pc, f"{kind}_generators")(n))
    trivial = tuple(pc.trivial_action(g, size) for size in (1, 2, 3))
    return pc.natural_action(g), pc.regular_action(g), trivial


SMALL_GROUPS = [("cyclic", n) for n in range(2, 7)] + [
    ("dihedral", n) for n in (3, 4, 5)
] + [("symmetric", n) for n in (2, 3, 4)]


def perturbed_dense_layer(draw, joint):
    """The dense layer of ``joint``, maybe with one extra color on a drawn cell."""
    s = designs.dense_design(joint)
    if draw(st.booleans()):
        cell = (draw(st.integers(0, s.n_size - 1)), draw(st.integers(0, s.m_size - 1)))
        extra = Relation(s.base_color_count + 1, [cell], {"kind": "dense", "representative": cell})
        s = SharingStructure(s.n_size, s.m_size, s.relations + (extra,))
    sigma = draw(st.sampled_from([layer.IDENTITY, layer.leaky(0.5)]))
    # weights near 1e308 overflow W x, so the replay meets inf and NaN residuals too
    theta = layer.first_primes(s.color_matrix.base_color_count)
    if draw(st.booleans()):
        theta = theta / theta.max(initial=1) * 1e308
    with np.errstate(over="ignore"):  # a merged cell's weights may sum past 1e308
        return layer.tied_layer_from_structure(s, theta, nonlinearity=sigma)


@functools.cache
def overflowing_s3_stack(depth):
    """``depth`` dense layers over S3's natural action, every weight 1e308."""
    natural = small_group_actions("symmetric", 3)[0]
    joint = pc.joint_action(natural, natural)
    tied = layer.tied_layer_from_structure(designs.dense_design(joint), np.array([1e308, 1e308]))
    return [natural] * (depth + 1), [joint] * depth, [tied] * depth


@st.composite
def replay_stacks(draw, depth):
    """``depth`` perturbed dense layers over drawn actions of one small group."""
    natural, regular, trivial = small_group_actions(*draw(st.sampled_from(SMALL_GROUPS)))
    # one trivial choice in three: a trivial side hides which element a column replays
    action = st.one_of(st.just(natural), st.just(regular), st.sampled_from(trivial))
    chain = draw(st.lists(action, min_size=depth + 1, max_size=depth + 1))
    joints = [pc.joint_action(a, b) for a, b in zip(chain, chain[1:])]
    return chain, joints, [perturbed_dense_layer(draw, j) for j in joints]


def same_float(a, b):
    """Bitwise-equal floats, with NaN equal to NaN."""
    return a == b or (math.isnan(a) and math.isnan(b))


# the default first: hypothesis leans to the first choice, and only blocks of
# several elements mix elements and trials in one index array
REPLAY_CELLS = st.sampled_from([layer._FLOAT_BATCH_CELLS, 1, 7])


@settings(max_examples=200, deadline=None)
@given(replay_stacks(1), st.integers(0, 8), st.integers(0, 500), REPLAY_CELLS)
@example(overflowing_s3_stack(1), 2, 0, layer._FLOAT_BATCH_CELLS)
def test_replay_matches_the_per_trial_oracle(stack, trials, seed, cells):
    _, (joint,), (tied,) = stack
    with pytest.MonkeyPatch.context() as mp, np.errstate(over="ignore", invalid="ignore"):
        mp.setattr(layer, "_FLOAT_BATCH_CELLS", cells)
        rep = layer.check_equivariance(tied, joint, trials=trials, seed=seed)
    pairs = oracles.joint_pairs(joint)
    with np.errstate(over="ignore", invalid="ignore"):
        expected = oracles.float_residual_per_trial(
            lambda x: layer.forward(tied, x), pairs, tied.n_size, trials, seed
        )
    assert same_float(rep.max_residual, expected)
    assert rep.tested_elements == len(pairs) and rep.trials == trials


@settings(max_examples=150, deadline=None)
@given(replay_stacks(2), st.integers(0, 8), st.integers(0, 500), REPLAY_CELLS)
@example(overflowing_s3_stack(2), 2, 0, layer._FLOAT_BATCH_CELLS)
def test_stack_replay_matches_the_per_trial_oracle(stack, trials, seed, cells):
    (n_action, _, o_action), (joint_nm, joint_mo), (first, second) = stack
    with pytest.MonkeyPatch.context() as mp, np.errstate(over="ignore", invalid="ignore"):
        mp.setattr(layer, "_FLOAT_BATCH_CELLS", cells)
        rep = layer.compose_layers(first, second, joint_nm, joint_mo, trials=trials, seed=seed)
    pairs = oracles.distinct_pairs(
        oracles.image_rows(n_action), oracles.image_rows(o_action)
    )
    with np.errstate(over="ignore", invalid="ignore"):
        expected = oracles.float_residual_per_trial(
            lambda x: layer.forward(second, layer.forward(first, x)),
            pairs, first.n_size, trials, seed,
        )
    assert same_float(rep.max_residual, expected)
    assert rep.tested_elements == len(pairs) and rep.trials == trials


class TestWeightCache:
    def test_theta_is_a_read_only_copy(self, reverse_conv_structure):
        theta = np.array([1.0, 2.0])
        tied = layer.tied_layer_from_structure(reverse_conv_structure, theta)
        with pytest.raises(ValueError):
            tied.theta[0] = 5.0
        theta[0] = 5.0
        assert tied.theta.tolist() == [1.0, 2.0]
        assert layer.forward(tied, np.array([1.0, 0.0, 0.0])).tolist() == [0, 1, 2, 0, 1, 2]

    def test_edited_weights_do_not_reach_forward(self, reverse_conv_structure):
        tied = layer.tied_layer_from_structure(reverse_conv_structure, np.array([1.0, 2.0]))
        x = np.array([1.0, -2.0, 3.0])
        before = layer.forward(tied, x)
        w = tied.weights()
        w[:] = 0
        assert np.array_equal(layer.forward(tied, x), before)
        assert tied.weights().any()

    def test_theta_length_checked_at_construction(self, reverse_conv_structure):
        cm = designs.merge_colors(reverse_conv_structure)
        with pytest.raises(LayerError, match="theta length"):
            layer.TiedLayer(cm, np.ones(3))


class TestNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_theta_rejected(self, reverse_conv_structure, bad):
        with pytest.raises(LayerError, match="theta entries must be finite"):
            layer.tied_layer_from_structure(reverse_conv_structure, np.array([1.0, bad]))
        cm = designs.merge_colors(reverse_conv_structure)
        with pytest.raises(LayerError, match="theta entries must be finite"):
            layer.TiedLayer(cm, np.array([bad, 2.0]))

    def test_overflow_residual_fails_the_float_route(self):
        # finite theta whose products overflow: W x holds inf and inf - inf is NaN
        joint = diagonal_symmetric_joint(3)
        s = designs.dense_design(joint)
        tied = layer.tied_layer_from_structure(s, np.array([1e308, 1e308]))
        with np.errstate(over="ignore", invalid="ignore"):
            rep = layer.check_equivariance(tied, joint)
            stacked = layer.compose_layers(tied, tied, joint, joint)
        assert rep.exact_pass and stacked.exact_pass
        assert np.isnan(rep.max_residual) and np.isnan(stacked.max_residual)
        assert not rep.passed and not stacked.passed


class TestSubgroupMonotonicity:
    def test_reverse_conv_even_subgroup(self, rc_layer, reverse_conv):
        # H: reference Z3, right-shift-2 on N paired with left-shift-2 on M
        z3 = pc.close_generators([pc.parse_cycles("(0 1 2)", 3)])
        n_sub = pc.build_action(z3, [pc.parse_cycles("(0 2 1)", 3)], 3)
        m_sub = pc.build_action(z3, [pc.parse_cycles("(0 4 2)(1 5 3)", 6)], 6)
        sub = pc.joint_action(n_sub, m_sub)
        assert set(oracles.joint_pairs(sub)) <= set(oracles.joint_pairs(reverse_conv))
        assert sub.joint_order == 3
        assert oracles.check_subgroup_monotonicity(rc_layer, reverse_conv, sub, trials=3)
        assert layer.check_equivariance(rc_layer, sub, trials=3).passed

    def test_trivial_subgroup(self, rc_layer, reverse_conv, z6):
        sub = pc.joint_action(pc.trivial_action(z6, 3), pc.trivial_action(z6, 6))
        assert oracles.check_subgroup_monotonicity(rc_layer, reverse_conv, sub, trials=2)

    def test_s4_dense_two_element_subgroup(self):
        joint = diagonal_symmetric_joint(4)
        tied = layer.tied_layer_from_structure(designs.dense_design(joint))
        z2 = pc.close_generators([pc.parse_cycles("(0 1)", 4)])
        nat = pc.natural_action(z2)
        sub = pc.joint_action(nat, nat)
        assert set(oracles.joint_pairs(sub)) <= set(oracles.joint_pairs(joint))
        assert oracles.check_subgroup_monotonicity(tied, joint, sub, trials=3)

    def test_non_subset_rejected(self, rc_layer, reverse_conv):
        z2 = pc.close_generators([pc.parse_cycles("(0 1)", 3)])
        bad = pc.joint_action(pc.natural_action(z2), pc.trivial_action(z2, 6))
        with pytest.raises(LayerError, match="subset"):
            oracles.check_subgroup_monotonicity(rc_layer, reverse_conv, bad)


class TestComposeLayers:
    def test_stacked_reverse_conv(self, rc_layer, reverse_conv, z6):
        swapped = pc.joint_action(reverse_conv.m_action, reverse_conv.n_action)
        second = layer.tied_layer_from_structure(designs.sparse_design(swapped, [1, 5]))
        rep = layer.compose_layers(rc_layer, second, reverse_conv, swapped, trials=3)
        assert rep.passed and rep.exact_pass

    def test_identity_second_layer(self, rc_layer, reverse_conv):
        diag = SharingStructure(
            6, 6, (Relation(1, [(i, i) for i in range(6)], {"kind": "identity"}),)
        )
        ident_layer = layer.tied_layer_from_structure(diag, np.array([1.0]))
        m_diag = pc.joint_action(reverse_conv.m_action, reverse_conv.m_action)
        rep = layer.compose_layers(rc_layer, ident_layer, reverse_conv, m_diag, trials=4)
        base = layer.check_equivariance(rc_layer, reverse_conv, trials=4)
        assert rep.passed == base.passed
        assert rep.exact_pass == base.exact_pass
        assert rep.max_residual == base.max_residual

    def test_middle_mismatch(self, rc_layer, reverse_conv, z6):
        other_m = pc.build_action(z6, [pc.parse_cycles("(0 1 2 3 4 5)", 6)], 6)
        mismatched = pc.joint_action(other_m, reverse_conv.n_action)
        second = layer.tied_layer_from_structure(designs.sparse_design(mismatched, [1, 5]))
        with pytest.raises(LayerError, match="middle-action mismatch"):
            layer.compose_layers(rc_layer, second, reverse_conv, mismatched)

    def test_middle_action_on_other_points(self, z6):
        """Layers 3 -> 6 -> 2 whose joints share a middle action on 4 points, not 6."""
        def act(cycles, size):
            return pc.build_action(z6, [pc.parse_cycles(cycles, size)], size)

        def all_ones(n, m):  # W = 1, equivariant under every pair of actions
            cells = [(i, j) for i in range(n) for j in range(m)]
            return layer.tied_layer_from_structure(
                SharingStructure(n, m, (Relation(1, cells, {"kind": "dense"}),))
            )

        middle = act("(0 1)(2 3)", 4)
        joint_nm = pc.joint_action(act("(0 1 2)", 3), middle)
        joint_mo = pc.joint_action(middle, act("(0 1)", 2))
        with pytest.raises(LayerError, match="^layer sizes do not match the joint actions$"):
            layer.compose_layers(all_ones(3, 6), all_ones(6, 2), joint_nm, joint_mo)


class TestLayerInputErrors:
    def test_forward_refuses_a_wrong_input_length(self, rc_layer):
        with pytest.raises(LayerError) as info:
            layer.forward(rc_layer, np.zeros(4))
        assert str(info.value) == "input length (4,) != n_size 3"

    def test_unknown_nonlinearity(self):
        with pytest.raises(LayerError) as info:
            layer.Nonlinearity("relu")
        assert str(info.value) == "unknown nonlinearity 'relu'"

    def test_compose_refuses_a_middle_size_mismatch(self, rc_layer, reverse_conv):
        with pytest.raises(LayerError) as info:
            layer.compose_layers(rc_layer, rc_layer, reverse_conv, reverse_conv)
        assert str(info.value) == "middle size mismatch: first layer emits 6, second takes 3"

    def test_compose_refuses_joints_over_different_groups(self, rc_layer, reverse_conv):
        _, second = reverse_stack_second(reverse_conv)
        z2 = pc.close_generators([pc.parse_cycles("(0 1)", 2)])
        other = pc.joint_action(pc.trivial_action(z2, 6), pc.trivial_action(z2, 3))
        with pytest.raises(LayerError) as info:
            layer.compose_layers(rc_layer, second, reverse_conv, other)
        assert str(info.value) == "middle-action mismatch: joints use different reference groups"


class TestGroupConv:
    @pytest.mark.parametrize("n", [4, 5, 7, 12])
    def test_matches_cross_correlation_oracle(self, n):
        joint = cyclic_group_conv_joint(n)
        rng = np.random.default_rng(n)
        theta = rng.normal(size=2)
        tied = layer.group_conv(joint, [1, n - 1], theta=theta)
        for _ in range(5):
            x = rng.normal(size=n)
            expected = oracles.circular_cross_correlation({1: theta[0], n - 1: theta[1]}, x)
            assert np.max(np.abs(layer.forward(tied, x) - expected)) < 1e-12

    def test_tie_across_orbits_structure(self, mirror_conv):
        untied = layer.group_conv_structure(mirror_conv, [1])
        tied = layer.group_conv_structure(mirror_conv, [1], tie_across_orbits=True)
        assert untied.base_color_count == 2
        assert tied.base_color_count == 1
        assert oracles.edge_set(tied.relations[0]) == (
            oracles.edge_set(untied.relations[0]) | oracles.edge_set(untied.relations[1])
        )

    def test_tied_layer_still_equivariant(self, mirror_conv):
        tied = layer.group_conv(mirror_conv, [1], tie_across_orbits=True)
        assert layer.check_equivariance(tied, mirror_conv, trials=4).passed

    def test_output_must_be_regular(self, z6):
        n_act = pc.build_action(z6, [pc.parse_cycles("(0 1 2)", 3)], 3)
        bad = pc.joint_action(n_act, pc.build_action(z6, [pc.parse_cycles("(0 1 2)", 6)], 6))
        with pytest.raises(LayerError):
            layer.group_conv(bad, [1, 5])

    def test_m_size_mismatch(self, z6):
        n_act = pc.build_action(z6, [pc.parse_cycles("(0 1 2 3 4 5)", 6)], 6)
        m_act = pc.build_action(z6, [pc.parse_cycles("(0 1 2)", 3)], 3)
        joint = pc.joint_action(n_act, m_act)
        with pytest.raises(LayerError, match="m_size"):
            layer.group_conv(joint, [1, 5])


class TestGraphConv:
    def test_three_cycle(self):
        b = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        s = layer.graph_conv_structure(b)
        assert s.base_color_count == 2
        cm = designs.merge_colors(s)
        theta = np.array([5.0, 11.0])
        w = layer.materialize(cm, theta)
        assert np.array_equal(w, theta[0] * b + theta[1] * np.eye(3))

    def test_diagonal_self_loop_sums(self):
        b = np.array([[1, 1], [0, 0]])
        s = layer.graph_conv_structure(b)
        w = layer.materialize(designs.merge_colors(s), np.array([1, 10]))
        assert w[0, 0] == 11 and w[0, 1] == 1 and w[1, 1] == 10 and w[1, 0] == 0

    def test_non_square_rejected(self):
        with pytest.raises(LayerError, match="square"):
            layer.graph_conv_structure(np.zeros((2, 3), dtype=int))

    def test_non_binary_rejected(self):
        with pytest.raises(LayerError, match="0 or 1"):
            layer.graph_conv_structure(np.array([[2]]))


class TestSensitivity:
    def test_commutation_iff_automorphism_mirror(self, mirror_conv):
        # exhaustive over S_4 x S_2: exact commutation with distinct-prime theta
        # holds exactly on aut(structure)
        from eqtie import autsearch

        s = layer.group_conv_structure(mirror_conv, [1])
        w = layer.materialize(designs.merge_colors(s), layer.first_primes(2))
        aut = set(oracles.aut_pairs(autsearch.enumerate_automorphisms(s)))
        for pn in itertools.permutations(range(4)):
            for pm in itertools.permutations(range(2)):
                expected = (pn, pm) in aut
                assert oracles.commutes_exactly(w, pn, pm) == expected
