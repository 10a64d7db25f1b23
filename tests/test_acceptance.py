"""Acceptance suite: one test per criterion, each printing PASS/FAIL at the end.

Three checks pin exact automorphism orders above the joint order, because the
method promises no uniqueness for their fixtures:

* criterion 1's certificate clause and criterion 2's reverse-convolution
  member: Z6 acts on the 3 inputs through the kernel {e, g^3}, so the input
  action is not semi-regular (the sparse design warns). Equivariance forces
  output rows m and m + 3 of W to be equal, and each of the three row pairs
  swaps on its own: 3 column rotations x 2^3 row swaps = 24, not 6.
* criterion 5's tied-mirror order clause: tying across input orbits is group
  convolution, not the sparse design. The merged pattern is one colour on
  [[0, 0, c, c], [c, c, 0, 0]]; columns 0/1 and 2/3 are interchangeable, and
  with the mirror that gives 2 * 2 * 2 = 8, not 4.

Both orders agree with brute force in criterion 9 and in the unit suite.
"""

import itertools
import math
import time

import numpy as np
import pytest

import oracles
from eqtie import autsearch, designs, layer, permcore as pc
from eqtie.designs import ChannelSpec

from conftest import cyclic_group_conv_joint, diagonal_symmetric_joint


def canonical_relabel(grid):
    """Renumber colors by first occurrence scanning row-major; 0 stays 0."""
    mapping = {0: 0}
    out = np.zeros_like(grid)
    for m in range(grid.shape[0]):
        for n in range(grid.shape[1]):
            v = int(grid[m, n])
            if v not in mapping:
                mapping[v] = len(mapping)
            out[m, n] = mapping[v]
    return out


REFERENCE_REVERSE_CONV_GRID = np.array(
    [[0, 1, 2], [1, 2, 0], [2, 0, 1], [0, 1, 2], [1, 2, 0], [2, 0, 1]]
)


# --------------------------------------------------------------------------
# criterion 1: reverse-convolution fixture


def test_criterion_01_pattern_and_commutation(reverse_conv, reverse_conv_structure):
    start = time.monotonic()
    cm = designs.merge_colors(reverse_conv_structure)
    assert cm.grid.shape == (6, 3)
    assert np.array_equal(
        canonical_relabel(cm.grid), canonical_relabel(REFERENCE_REVERSE_CONV_GRID)
    )

    w = layer.materialize(cm, np.array([2, 3]))
    for gn, gm in reverse_conv.joint_elements:
        assert layer.matrix_commutes(w, gn, gm)
    assert reverse_conv.joint_order == 6
    assert time.monotonic() - start < 1.0


def test_criterion_01_automorphism_certificate(reverse_conv, reverse_conv_structure):
    start = time.monotonic()
    res = autsearch.enumerate_automorphisms(reverse_conv_structure, reference=reverse_conv)
    assert time.monotonic() - start < 1.0
    # g^3 fixes every input and shifts outputs by 3, so rows m and m + 3 of any
    # equivariant W coincide; the 3 column rotations times 2^3 independent row
    # swaps give 24 (brute force agrees: criterion 9, test_reverse_conv_true_aut)
    assert res.order == 24
    assert res.verdict == "proper_supergroup"


# --------------------------------------------------------------------------
# criterion 2: sparse-design equality suite (aut order = joint order)


def test_criterion_02_equality_rot90_and_mirror(rot90, rot90_structure, mirror_conv):
    start = time.monotonic()
    digraph = designs.with_identity_relation(rot90_structure)
    res = autsearch.enumerate_automorphisms(digraph, reference=rot90)
    assert res.order == rot90.joint_order == 4
    assert res.verdict == "equal"

    mirror_structure = designs.sparse_design(mirror_conv, [1])
    res = autsearch.enumerate_automorphisms(mirror_structure, reference=mirror_conv)
    assert res.order == mirror_conv.joint_order == 2
    assert res.verdict == "equal"
    assert time.monotonic() - start < 10.0


def test_criterion_02_equality_reverse_conv(reverse_conv, reverse_conv_structure):
    # the boundary of the equality contract: a non-faithful input action is not
    # semi-regular, the design says so, and equality fails by the kernel's row swaps
    start = time.monotonic()
    res = autsearch.enumerate_automorphisms(reverse_conv_structure, reference=reverse_conv)
    assert time.monotonic() - start < 10.0
    assert reverse_conv_structure.warnings == (
        "input action is not semi-regular: uniqueness not guaranteed",
    )
    assert res.order == 4 * reverse_conv.joint_order == 24
    assert res.verdict == "proper_supergroup"


# --------------------------------------------------------------------------
# criterion 3: dense permutation-equivariant layers


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_criterion_03_dense_symmetric(n):
    start = time.monotonic()
    joint = diagonal_symmetric_joint(n)
    s = designs.dense_design(joint)
    assert s.base_color_count == 2

    res = autsearch.enumerate_automorphisms(s, reference=joint)
    assert res.order == math.factorial(n)
    assert res.verdict == "equal"

    w = layer.materialize(designs.merge_colors(s), layer.first_primes(2))
    group = joint.group
    for gid in group.generator_ids:
        assert layer.matrix_commutes(w, joint.n_action.images[gid], joint.m_action.images[gid])
    rng = np.random.default_rng(n)
    for idx in rng.integers(0, joint.joint_order, size=100):
        gn, gm = joint.joint_elements[idx]
        assert layer.matrix_commutes(w, gn, gm)
    assert time.monotonic() - start < 30.0


# --------------------------------------------------------------------------
# criterion 4: wreath-product dense design


def test_criterion_04_wreath_dense():
    start = time.monotonic()
    g = pc.close_generators(pc.wreath_generators(3, 2))
    nat = pc.natural_action(g)
    s = designs.dense_design(pc.joint_action(nat, nat))
    assert s.base_color_count == 3
    for n in range(6):
        for m in range(6):
            assert oracles.alpha(s, n, m) == frozenset([oracles.wreath_dense_color(n, m, 3)])
    assert time.monotonic() - start < 1.0


# --------------------------------------------------------------------------
# criterion 5: group convolution


def test_criterion_05_group_conv_oracle():
    start = time.monotonic()
    for n in range(4, 17):
        joint = cyclic_group_conv_joint(n)
        rng = np.random.default_rng(1000 + n)
        for _ in range(100):
            theta = rng.normal(size=2)
            x = rng.normal(size=n)
            tied = layer.group_conv(joint, [1, n - 1], theta=theta)
            expected = oracles.circular_cross_correlation({1: theta[0], n - 1: theta[1]}, x)
            assert np.max(np.abs(layer.forward(tied, x) - expected)) <= 1e-12
    assert time.monotonic() - start < 5.0


def test_criterion_05_tied_mirror_supergroup_verdict(mirror_conv):
    start = time.monotonic()
    tied = layer.group_conv_structure(mirror_conv, [1], tie_across_orbits=True)
    cert = autsearch.certify_unique(tied, mirror_conv)
    assert cert.verdict == "supergroup"
    assert cert.witness is not None
    assert time.monotonic() - start < 5.0


def test_criterion_05_tied_mirror_aut_order(mirror_conv):
    tied = layer.group_conv_structure(mirror_conv, [1], tie_across_orbits=True)
    res = autsearch.enumerate_automorphisms(tied, reference=mirror_conv)
    # one colour on [[0, 0, c, c], [c, c, 0, 0]]: swap columns 0/1, swap
    # columns 2/3, and the mirror, 2 * 2 * 2 = 8 (brute force agrees:
    # criterion 9 "mirror-tied", test_mirror_tied_supergroup)
    assert res.order == 8
    assert res.verdict == "proper_supergroup"


# --------------------------------------------------------------------------
# criterion 6: graph convolution vs brute-force graph automorphisms


def test_criterion_06_graph_conv():
    start = time.monotonic()
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        b = (rng.random((n, n)) < 0.5).astype(int)
        s = layer.graph_conv_structure(b)
        res = autsearch.enumerate_automorphisms(s)
        graph_auts = oracles.brute_force_graph_automorphisms(b)
        assert res.pair_set() == {(pi, pi) for pi in graph_auts}

        w = layer.materialize(designs.merge_colors(s), layer.first_primes(2))
        for pn, pm in res.elements:
            assert layer.matrix_commutes(w, pn, pm)
    assert time.monotonic() - start < 60.0


# --------------------------------------------------------------------------
# criterion 7: sensitivity on fixtures certified unique (n + m <= 10)


def certified_unique_small_fixtures(mirror_conv):
    trivial = pc.close_generators([pc.identity(2)])
    nat2 = pc.natural_action(trivial)
    yield "trivial-dense-2", designs.dense_design(pc.joint_action(nat2, nat2)), pc.joint_action(nat2, nat2)
    yield "mirror-conv", designs.sparse_design(mirror_conv, [1]), mirror_conv
    for n in (3, 4, 5):
        joint = diagonal_symmetric_joint(n)
        yield f"dense-S{n}", designs.dense_design(joint), joint
    for n in (3, 5):
        joint = cyclic_group_conv_joint(n)
        yield f"gconv-Z{n}", layer.group_conv_structure(joint, [1, n - 1]), joint


def test_criterion_07_sensitivity(mirror_conv):
    start = time.monotonic()
    checked = 0
    for name, s, joint in certified_unique_small_fixtures(mirror_conv):
        assert s.n_size + s.m_size <= 10
        cert = autsearch.certify_unique(s, joint)
        assert cert.verdict == "unique", name
        aut = autsearch.enumerate_automorphisms(s).pair_set()
        w = layer.materialize(
            designs.merge_colors(s), layer.first_primes(s.base_color_count)
        )
        for pn in itertools.permutations(range(s.n_size)):
            for pm in itertools.permutations(range(s.m_size)):
                assert oracles.commutes_exactly(w, pn, pm) == ((pn, pm) in aut), name
        checked += 1
    assert checked == 7
    assert time.monotonic() - start < 300.0


# --------------------------------------------------------------------------
# criterion 8: quotient and mirror profiles


def test_criterion_08_quotient_and_mirror(z6):
    start = time.monotonic()
    act = pc.build_action(z6, [pc.parse_cycles("(0 1 2)", 3)], 3)
    image, profile = pc.faithful_image(act)
    assert profile.kernel_size == 2
    assert image.order == 3
    assert not profile.faithful

    g2 = pc.close_generators(pc.cyclic_generators(2))
    mirror6 = pc.build_action(g2, [pc.parse_cycles("(0 5)(1 4)(2 3)", 6)], 6)
    assert pc.orbits(mirror6).orbit_count == 3
    assert pc.classify_action(mirror6).semi_regular

    mirror5 = pc.build_action(g2, [pc.parse_cycles("(0 4)(1 3)", 5)], 5)
    assert pc.orbits(mirror5).orbit_count == 3
    assert not pc.classify_action(mirror5).semi_regular
    assert time.monotonic() - start < 1.0


# --------------------------------------------------------------------------
# criterion 9: oracle equivalence of the automorphism search


def oracle_corpus(reverse_conv_structure, mirror_conv):
    yield "reverse-conv", reverse_conv_structure
    yield "mirror-untied", designs.sparse_design(mirror_conv, [1])
    yield "mirror-tied", layer.group_conv_structure(mirror_conv, [1], tie_across_orbits=True)
    for n in (3, 4, 5):
        yield f"dense-S{n}", designs.dense_design(diagonal_symmetric_joint(n))
    yield "gconv-Z3", layer.group_conv_structure(cyclic_group_conv_joint(3), [1, 2])
    yield "gconv-Z4", layer.group_conv_structure(cyclic_group_conv_joint(4), [1, 3])
    yield "graph-3cycle", layer.graph_conv_structure(
        np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    )
    yield "graph-path4", layer.graph_conv_structure(
        np.array([[0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0]])
    )


def test_criterion_09_oracle_equivalence(reverse_conv_structure, mirror_conv):
    start = time.monotonic()
    for name, s in oracle_corpus(reverse_conv_structure, mirror_conv):
        assert s.n_size + s.m_size <= 10, name
        res = autsearch.enumerate_automorphisms(s)
        brute = set(oracles.brute_force_automorphisms(s))
        assert res.pair_set() == brute, name
    assert time.monotonic() - start < 300.0


# --------------------------------------------------------------------------
# criterion 10: channel expansion


def channel_fixtures(reverse_conv, reverse_conv_structure, mirror_conv):
    yield reverse_conv_structure, reverse_conv
    yield designs.sparse_design(mirror_conv, [1]), mirror_conv
    joint = diagonal_symmetric_joint(4)
    yield designs.dense_design(joint), joint


@pytest.mark.parametrize("k_in,k_out", [(2, 1), (2, 3)])
def test_criterion_10_channels(k_in, k_out, reverse_conv, reverse_conv_structure, mirror_conv):
    start = time.monotonic()
    for s, joint in channel_fixtures(reverse_conv, reverse_conv_structure, mirror_conv):
        expanded = designs.expand_channels(s, ChannelSpec(k_in, k_out))
        assert expanded.base_color_count == s.base_color_count * k_in * k_out
        expanded_joint = pc.joint_action(
            designs.replicate_action(joint.n_action, k_in),
            designs.replicate_action(joint.m_action, k_out),
        )
        tied = layer.tied_layer_from_structure(expanded)
        report = layer.check_equivariance(tied, expanded_joint, trials=2)
        assert report.exact_pass and report.passed
    assert time.monotonic() - start < 10.0
