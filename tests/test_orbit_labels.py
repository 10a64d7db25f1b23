"""Orbit labels and generator words against independent references.

``permcore._orbit_minima`` labels each point with the smallest point of its
orbit under some generator rows, by rounds that propagate labels, hook the
points that labels name and jump each label once. Its labels are compared with the smallest node of each
``networkx.connected_components`` of the generator graph, on random rows of
up to 2,000 points (relabelled long cycles, fixed points, identity rows), and
on the 230,400 cells of a dense Z480 design. ``word_ids`` is
compared with words composed one row at a time by ``oracles.compose``, on
long words of Z240, a trivial group and random words of S3 wr S3; bad letters,
and words that are no sequence, raise ``GroupError`` naming their word and place.
"""

from __future__ import annotations

import functools
import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from eqtie import designs, permcore as pc
from eqtie.permcore import GroupError


def component_minima(rows: np.ndarray) -> np.ndarray:
    """The smallest node of each point's connected component of the graph x -- g(x)."""
    graph = nx.Graph()
    graph.add_nodes_from(range(rows.shape[1]))
    for row in rows.tolist():
        graph.add_edges_from(enumerate(row))
    low = np.empty(rows.shape[1], dtype=np.intp)
    for component in nx.connected_components(graph):
        low[list(component)] = min(component)
    return low


def conjugated_cycle(rng: np.random.Generator, size: int, length: int) -> np.ndarray:
    """One cycle through ``length`` random points in random order; the rest are fixed."""
    row = np.arange(size)
    points = rng.permutation(size)[:length]
    row[points] = np.roll(points, -1)
    return row


def generator_row(kind: str, rng: np.random.Generator, size: int) -> np.ndarray:
    if kind == "identity":
        return np.arange(size)
    if kind == "long-cycle":
        return conjugated_cycle(rng, size, size)
    if kind == "cycle-and-fixed-points":
        return conjugated_cycle(rng, size, int(rng.integers(0, size + 1)))
    return rng.permutation(size)


@settings(max_examples=40, deadline=None)
@given(
    size=st.integers(0, 2000),
    kinds=st.lists(
        st.sampled_from(["identity", "long-cycle", "cycle-and-fixed-points", "random"]),
        min_size=1, max_size=4,
    ),
    seed=st.integers(0, 2**32 - 1),
    pass_inverses=st.booleans(),
)
def test_orbit_minima_are_component_minima(size, kinds, seed, pass_inverses):
    rng = np.random.default_rng(seed)
    rows = np.array([generator_row(kind, rng, size) for kind in kinds]).reshape(len(kinds), size)
    inverses = np.argsort(rows, axis=1) if pass_inverses else None
    assert np.array_equal(pc._orbit_minima(rows, inverses), component_minima(rows))


def test_dense_z480_colors_are_the_cell_components():
    """A relabelled 480-cycle on both sides: 230,400 cells in 480 diagonal orbits.

    Passing labels without hooking took 89-175 rounds on such relabelled inputs.
    """
    row = conjugated_cycle(np.random.default_rng(480), 480, 480)
    natural = pc.natural_action(pc.close_generators([row.tolist()]))
    structure = designs.dense_design(pc.joint_action(natural, natural))
    assert structure.base_color_count == 480
    cell = np.arange(480 * 480)
    ms, ns = np.divmod(cell, 480)
    low = component_minima((row[ms] * 480 + row[ns])[None, :])
    # color k holds the orbit whose first cell, m * 480 + n, is the k-th smallest orbit minimum
    reps = np.unique(low)
    ends, owner = structure._stacked_edges
    assert np.array_equal(reps[owner], low[ends[:, 1] * 480 + ends[:, 0]])
    assert [r.provenance["representative"] for r in structure.relations] == [
        (rep % 480, rep // 480) for rep in reps.tolist()
    ]


def word_by_composition(group: pc.PermutationGroup, word) -> int:
    """The id of g_{s_0} ... g_{s_k} composed as image tuples, found in the element table."""
    product = functools.reduce(
        oracles.compose, [group.generators[s] for s in word], oracles.identity(group.degree)
    )
    return oracles.image_rows(group).index(product)


class TestWordIds:
    def test_long_words_of_z240(self):
        z240 = pc.close_generators(pc.cyclic_generators(240))
        s_inverse = z240.inv(z240.generator_ids[0])
        words = [[], [0], [0] * 239, [0] * 240, [0] * 245, [0] * 1000]
        assert z240.word_ids(words) == (0, 1, s_inverse, 0, 5, 1000 % 240)
        assert s_inverse == 239
        assert z240.word_ids(words) == tuple(word_by_composition(z240, w) for w in words)

    def test_no_words(self):
        assert pc.close_generators(pc.symmetric_generators(4)).word_ids([]) == ()

    def test_trivial_group_has_an_empty_base(self):
        trivial = pc.close_generators([oracles.identity(3), oracles.identity(3)])
        assert trivial._chain.base == [] and trivial.order == 1
        assert trivial.word_ids([[], [0], [0] * 7]) == (0, 0, 0)

    def test_random_words_of_the_wreath_product(self):
        group = pc.close_generators(pc.wreath_generators(3, 3))
        rng = random.Random(33)
        count = len(group.generators)
        words = [[rng.randrange(count) for _ in range(rng.randrange(40))] for _ in range(60)]
        assert group.word_ids(words) == tuple(word_by_composition(group, w) for w in words)

    def test_numpy_letters_read_as_ints(self):
        group = pc.close_generators(pc.dihedral_generators(5))
        words = [[1, 0, 0], [0, 1]]
        as_numpy = [np.array(w, dtype=np.int64) for w in words]
        assert group.word_ids(as_numpy) == group.word_ids(words)
        assert all(type(i) is int for i in group.word_ids(as_numpy))

    @pytest.mark.parametrize("words, message", [
        ([[-1]], "word 0 letter 0: -1 is not a generator index in 0..1"),
        ([[0], [1, 2]], "word 1 letter 1: 2 is not a generator index in 0..1"),
        ([[True]], "word 0 letter 0: True is not a generator index in 0..1"),
        ([[0, np.bool_(False)]], "word 0 letter 1: np.False_ is not a generator index in 0..1"),
        ([[1.0]], "word 0 letter 0: 1.0 is not a generator index in 0..1"),
        ([[0, 1], [None]], "word 1 letter 0: None is not a generator index in 0..1"),
        ([[np.int64(5)]], "word 0 letter 0: np.int64(5) is not a generator index in 0..1"),
        ([[np.array([0, 1])]], "word 0 letter 0: array([0, 1]) is not a generator index in 0..1"),
        ([[0], 1], "word 1 is not a sequence of generator indices: 1"),
        ([np.array(1)], "word 0 is not a sequence of generator indices: array(1)"),
    ], ids=[
        "negative", "past-the-end", "bool", "numpy-bool", "float", "none", "numpy-past-the-end",
        "array-letter", "word-not-a-sequence", "word-a-0d-array",
    ])
    def test_bad_letters_are_refused(self, words, message):
        group = pc.close_generators(pc.dihedral_generators(5))
        with pytest.raises(GroupError) as info:
            group.word_ids(words)
        assert str(info.value) == message
