import itertools
import math
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from eqtie import autsearch, designs, layer, permcore as pc, specio
from eqtie.autsearch import AutSearchError
from eqtie.designs import Relation, SharingStructure

from conftest import cyclic_group_conv_joint, diagonal_symmetric_joint

CORPUS = Path(__file__).resolve().parent.parent / "bench" / "corpus"


@st.composite
def small_structures(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))
    color_count = draw(st.integers(1, 3))
    cells = [(i, j) for i in range(n) for j in range(m)]
    relations = []
    for c in range(1, color_count + 1):
        edges = draw(st.frozensets(st.sampled_from(cells)))
        relations.append(Relation(c, sorted(edges), {"kind": "dense"}))
    return SharingStructure(n, m, tuple(relations))


def diag_only_structure(n):
    return SharingStructure(
        n, n, (Relation(1, [(i, i) for i in range(n)], {"kind": "identity"}),)
    )


def complete_bipartite(n, m):
    return SharingStructure(
        n, m,
        (Relation(1, [(i, j) for i in range(n) for j in range(m)], {"kind": "dense"}),),
    )


@pytest.fixture(scope="module")
def mirror_structures(mirror_conv):
    untied = layer.group_conv_structure(mirror_conv, [1])
    tied = layer.group_conv_structure(mirror_conv, [1], tie_across_orbits=True)
    return untied, tied


class TestColorRefine:
    def test_reverse_conv_single_class_per_part(self, reverse_conv_structure):
        table = autsearch.color_refine(reverse_conv_structure)
        assert len(set(table.n_classes)) == 1
        assert len(set(table.m_classes)) == 1

    def test_rot90_two_classes_per_part(self, rot90_structure):
        table = autsearch.color_refine(rot90_structure)
        assert len(set(table.n_classes)) == 2
        assert len(set(table.m_classes)) == 2
        # the split follows the two orbits
        assert len({table.n_classes[i] for i in range(4)}) == 1
        assert len({table.n_classes[i] for i in range(4, 8)}) == 1
        assert table.n_classes[0] != table.n_classes[4]

    def test_unique_color_isolates_endpoints(self):
        s = SharingStructure(
            3, 3,
            (
                Relation(1, [(i, j) for i in range(3) for j in range(3) if (i, j) != (0, 0)], {"kind": "dense"}),
                Relation(2, [(0, 0)], {"kind": "dense"}),
            ),
        )
        table = autsearch.color_refine(s)
        assert table.n_classes.count(table.n_classes[0]) == 1
        assert table.m_classes.count(table.m_classes[0]) == 1

    def test_refinement_never_splits_aut_related_nodes(self, reverse_conv_structure, mirror_structures):
        for s in (reverse_conv_structure, *mirror_structures):
            table = autsearch.color_refine(s)
            for pn, pm in oracles.brute_force_automorphisms(s):
                for i in range(s.n_size):
                    assert table.n_classes[i] == table.n_classes[pn[i]]
                for j in range(s.m_size):
                    assert table.m_classes[j] == table.m_classes[pm[j]]


class TestEnumerate:
    def test_reverse_conv_true_aut(self, reverse_conv_structure, reverse_conv):
        # rows m and m+3 of the tied weight pattern coincide, so swapping
        # outputs inside those pairs preserves every color: 24, not 6
        res = autsearch.enumerate_automorphisms(reverse_conv_structure, reference=reverse_conv)
        assert res.order == 24
        assert res.verdict == "proper_supergroup"
        brute = {(pn, pm) for pn, pm in oracles.brute_force_automorphisms(reverse_conv_structure)}
        assert res.pair_set() == brute

    def test_s4_permutation_equivariant(self):
        joint = diagonal_symmetric_joint(4)
        s = designs.dense_design(joint)
        res = autsearch.enumerate_automorphisms(s, reference=joint)
        assert res.order == 24
        assert res.verdict == "equal"
        assert all(pn == pm for pn, pm in res.elements)

    def test_mirror_tied_supergroup(self, mirror_structures, mirror_conv):
        untied, tied = mirror_structures
        res = autsearch.enumerate_automorphisms(tied, reference=mirror_conv)
        # each input node carries a single same-colored edge, so inputs sharing
        # an output are freely interchangeable: the full group has order 8
        assert res.order == 8
        assert res.verdict == "proper_supergroup"

    def test_mirror_untied_equal(self, mirror_structures, mirror_conv):
        untied, _ = mirror_structures
        res = autsearch.enumerate_automorphisms(untied, reference=mirror_conv)
        assert res.order == 2
        assert res.verdict == "equal"

    def test_rot90_digraph_mode_equal(self, rot90_structure, rot90):
        s = designs.with_identity_relation(rot90_structure)
        res = autsearch.enumerate_automorphisms(s, reference=rot90)
        assert res.order == 4
        assert res.verdict == "equal"
        assert all(pn == pm for pn, pm in res.elements)

    def test_rot90_bare_bipartite_disconnects(self, rot90_structure, rot90):
        # A = {1, 3} only reaches even words: the bipartite graph splits into two
        # components, so the bare structure has twice the joint order
        res = autsearch.enumerate_automorphisms(rot90_structure, reference=rot90)
        assert res.order == 8
        assert res.verdict == "proper_supergroup"

    def test_identity_always_present(self, reverse_conv_structure):
        res = autsearch.enumerate_automorphisms(reverse_conv_structure)
        ident = (tuple(range(3)), tuple(range(6)))
        assert ident in res.pair_set()

    def test_node_budget(self, rot90_structure):
        with pytest.raises(AutSearchError, match="node budget"):
            autsearch.enumerate_automorphisms(rot90_structure, node_budget=10)

    def test_deterministic_output(self, reverse_conv_structure):
        a = autsearch.enumerate_automorphisms(reverse_conv_structure)
        b = autsearch.enumerate_automorphisms(reverse_conv_structure)
        assert a.elements == b.elements

    def test_incomparable_reference(self, z6):
        s = SharingStructure(
            2, 2,
            (
                Relation(1, [(0, 0), (1, 1)], {"kind": "dense"}),
                Relation(2, [(0, 1), (1, 0)], {"kind": "dense"}),
            ),
        )
        z2 = pc.close_generators([pc.parse_cycles("(0 1)", 2)])
        ref = pc.joint_action(pc.natural_action(z2), pc.trivial_action(z2, 2))
        res = autsearch.enumerate_automorphisms(s, reference=ref)
        assert res.verdict == "incomparable"

    def test_digraph_identity_relation_forces_diagonal(self):
        s = designs.with_identity_relation(complete_bipartite(3, 3))
        res = autsearch.enumerate_automorphisms(s)
        assert res.order == 6
        assert all(pn == pm for pn, pm in res.elements)


class TestOverCap:
    def test_generators_only_beyond_element_cap(self):
        s = complete_bipartite(3, 3)  # aut = S3 x S3, order 36
        res = autsearch.enumerate_automorphisms(s, element_cap=10)
        assert res.order == 36
        assert res.elements is None
        assert res.generators
        # closure of the generators recovers the whole group
        closed = {(tuple(range(3)), tuple(range(3)))}
        frontier = list(closed)
        gens = [(pn.images, pm.images) for pn, pm in res.generators]
        while frontier:
            nxt = []
            for an, am in frontier:
                for bn, bm in gens:
                    prod = (tuple(an[v] for v in bn), tuple(am[v] for v in bm))
                    if prod not in closed:
                        closed.add(prod)
                        nxt.append(prod)
            frontier = nxt
        assert len(closed) == 36

    def test_exact_count_matches_brute_force(self):
        s = complete_bipartite(3, 3)
        capped = autsearch.enumerate_automorphisms(s, element_cap=10)
        assert capped.order == len(oracles.brute_force_automorphisms(s))

    def test_search_cap(self):
        s = complete_bipartite(4, 4)
        with pytest.raises(AutSearchError, match="search cap"):
            autsearch.enumerate_automorphisms(s, search_cap=5)


class TestOracleEquivalence:
    def fixtures(self, reverse_conv_structure, mirror_structures):
        untied, tied = mirror_structures
        yield reverse_conv_structure
        yield untied
        yield tied
        yield designs.dense_design(diagonal_symmetric_joint(3))
        yield designs.dense_design(diagonal_symmetric_joint(4))
        yield layer.group_conv_structure(cyclic_group_conv_joint(3), [1, 2])
        yield layer.group_conv_structure(cyclic_group_conv_joint(4), [1, 3])
        yield diag_only_structure(3)
        yield layer.graph_conv_structure(np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]]))

    def test_backtracking_equals_brute_force(self, reverse_conv_structure, mirror_structures):
        for s in self.fixtures(reverse_conv_structure, mirror_structures):
            assert s.n_size + s.m_size <= 10
            res = autsearch.enumerate_automorphisms(s)
            brute = set(oracles.brute_force_automorphisms(s))
            assert res.pair_set() == brute, "backtracking disagrees with brute force"


@settings(max_examples=200, deadline=None)
@given(small_structures())
def test_backtracking_equals_brute_force_on_random_structures(s):
    res = autsearch.enumerate_automorphisms(s)
    assert res.pair_set() == set(oracles.brute_force_automorphisms(s))


def closure(generators, n_size, m_size):
    """Every product of the (pi_N, pi_M) generators, identity included."""
    closed = {(tuple(range(n_size)), tuple(range(m_size)))}
    frontier = list(closed)
    gens = [(pn.images, pm.images) for pn, pm in generators]
    while frontier:
        nxt = []
        for an, am in frontier:
            for bn, bm in gens:
                prod = (tuple(an[v] for v in bn), tuple(am[v] for v in bm))
                if prod not in closed:
                    closed.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return closed


@settings(max_examples=200, deadline=None)
@given(small_structures())
def test_generator_path_equals_brute_force_on_random_structures(s):
    res = autsearch.enumerate_automorphisms(s, element_cap=1)
    brute = set(oracles.brute_force_automorphisms(s))
    assert res.order == len(brute)
    assert res.stats.kernel_order * math.prod(res.stats.base_orbits) == res.order
    if res.order > 1:
        assert res.elements is None
        assert closure(res.generators, s.n_size, s.m_size) == brute
    else:
        assert res.pair_set() == brute


def setwise_reference(s, pn, pm):
    """The per-pair predicate the batched check replaces."""
    return all(
        frozenset((pn[n], pm[m]) for n, m in rel.edges.tolist()) == oracles.edge_set(rel)
        for rel in s.relations
    )


def all_pairs(s):
    return list(itertools.product(
        itertools.permutations(range(s.n_size)), itertools.permutations(range(s.m_size))
    ))


@settings(max_examples=100, deadline=None)
@given(small_structures())
def test_batched_setwise_check_matches_per_pair_predicate(s):
    pairs = all_pairs(s)
    got = autsearch._preserves_structure(s, [pn for pn, _ in pairs], [pm for _, pm in pairs])
    assert got.tolist() == [setwise_reference(s, pn, pm) for pn, pm in pairs]


def test_batched_setwise_check_across_batches(reverse_conv_structure, monkeypatch):
    # one pair per batch: the batch boundaries must not shift any verdict
    monkeypatch.setattr(autsearch, "_CHECK_BATCH_CELLS", 1)
    s = reverse_conv_structure
    pairs = all_pairs(s)[::7]
    got = autsearch._preserves_structure(s, [pn for pn, _ in pairs], [pm for _, pm in pairs])
    assert got.tolist() == [setwise_reference(s, pn, pm) for pn, pm in pairs]
    assert 0 < sum(got) < len(pairs)


class TestSearchStats:
    def test_deterministic(self, reverse_conv_structure, rot90_structure):
        for s in (reverse_conv_structure, rot90_structure, complete_bipartite(5, 5)):
            a = autsearch.enumerate_automorphisms(s, element_cap=10)
            b = autsearch.enumerate_automorphisms(s, element_cap=10)
            assert a.stats == b.stats
            assert a.stats.kernel_order * math.prod(a.stats.base_orbits) == a.order

    def test_complete_bipartite_node_count(self):
        # one search per base level, each a single greedy descent: O(k^2) nodes
        k = 8
        res = autsearch.enumerate_automorphisms(complete_bipartite(k, k))
        assert res.order == math.factorial(k) ** 2
        assert res.stats.nodes <= 2 * k * k
        assert res.stats.kernel_order == math.factorial(k)
        assert sorted(res.stats.base_orbits) == list(range(1, k + 1))


class TestSympyOracle:
    """Orders beyond brute force, checked against sympy's Schreier-Sims."""

    @staticmethod
    def sympy_order(res, n_size, m_size):
        combinatorics = pytest.importorskip("sympy.combinatorics")
        gens = [
            combinatorics.Permutation(list(pn.images) + [n_size + v for v in pm.images])
            for pn, pm in res.generators
        ]
        return combinatorics.PermutationGroup(gens).order()

    @staticmethod
    def timed_search(s):
        start = time.perf_counter()
        res = autsearch.enumerate_automorphisms(s)
        return res, time.perf_counter() - start

    @pytest.mark.parametrize("k", [9, 12])
    def test_complete_bipartite(self, k):
        res, elapsed = self.timed_search(complete_bipartite(k, k))
        assert res.order == math.factorial(k) ** 2
        assert self.sympy_order(res, k, k) == res.order
        assert elapsed < 1.0

    @pytest.mark.parametrize("n", [10, 12])
    def test_complete_graph_conv(self, n):
        # K_n plus the identity relation: the diagonal S_n, 2n nodes
        s = layer.graph_conv_structure(np.ones((n, n), dtype=int) - np.eye(n, dtype=int))
        res, elapsed = self.timed_search(s)
        assert res.order == math.factorial(n)
        assert all(pn == pm for pn, pm in res.generators)
        assert self.sympy_order(res, n, n) == res.order
        assert elapsed < 1.0


class TestContainmentAndEquality:
    def test_joint_always_contained(self, reverse_conv, rot90, mirror_conv):
        cases = [
            (designs.dense_design(reverse_conv), reverse_conv),
            (designs.sparse_design(reverse_conv, [1, 5]), reverse_conv),
            (designs.sparse_design(rot90, [1, 3]), rot90),
            (designs.sparse_design(mirror_conv, [1]), mirror_conv),
        ]
        for s, joint in cases:
            res = autsearch.enumerate_automorphisms(s, reference=joint)
            assert res.verdict in ("equal", "proper_supergroup")
            if res.elements is not None:
                assert joint.pair_set() <= res.pair_set()

    def test_empty_plus_identity_is_symmetric_diag(self):
        empty = SharingStructure(3, 3, ())
        s = designs.with_identity_relation(empty)
        assert s.base_color_count == 1
        res = autsearch.enumerate_automorphisms(s)
        assert res.order == 6
        assert all(pn == pm for pn, pm in res.elements)
        brute = set(oracles.brute_force_automorphisms(diag_only_structure(3)))
        assert res.pair_set() == brute


class TestCertify:
    def test_unique_fixtures(self, mirror_conv, rot90_structure, rot90):
        untied = layer.group_conv_structure(mirror_conv, [1])
        assert autsearch.certify_unique(untied, mirror_conv).verdict == "unique"
        joint4 = diagonal_symmetric_joint(4)
        assert autsearch.certify_unique(designs.dense_design(joint4), joint4).verdict == "unique"
        digraph = designs.with_identity_relation(rot90_structure)
        cert = autsearch.certify_unique(digraph, rot90)
        assert cert.verdict == "unique" and cert.aut_order == 4

    def test_supergroup_with_witness(self, mirror_conv):
        tied = layer.group_conv_structure(mirror_conv, [1], tie_across_orbits=True)
        cert = autsearch.certify_unique(tied, mirror_conv)
        assert cert.verdict == "supergroup"
        wn, wm = cert.witness
        assert (wn.images, wm.images) not in mirror_conv.pair_set()
        # the witness really is an automorphism
        assert all(
            frozenset((wn(n), wm(m)) for n, m in rel.edges.tolist()) == oracles.edge_set(rel)
            for rel in tied.relations
        )

    def test_broken_joint_raises(self, mirror_conv):
        s = layer.group_conv_structure(mirror_conv, [1])
        g2 = pc.close_generators(pc.cyclic_generators(2))
        wrong = pc.joint_action(
            pc.build_action(g2, [pc.parse_cycles("(0 1)", 4)], 4),
            pc.regular_action(g2),
        )
        with pytest.raises(AutSearchError, match="does not preserve"):
            autsearch.certify_unique(s, wrong)


class TestGraphEquivalences:
    def test_equal_automorphism_groups_give_equal_equivariance_sets(self):
        cycle = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        reverse = cycle.T
        s1 = layer.graph_conv_structure(cycle)
        s2 = layer.graph_conv_structure(reverse)
        auts1 = autsearch.enumerate_automorphisms(s1).pair_set()
        auts2 = autsearch.enumerate_automorphisms(s2).pair_set()
        assert auts1 == auts2
        assert len(auts1) == 3

    def test_edgeless_graph_full_symmetric(self):
        s = layer.graph_conv_structure(np.zeros((4, 4), dtype=int))
        res = autsearch.enumerate_automorphisms(s)
        assert res.order == 24
        assert all(pn == pm for pn, pm in res.elements)


def rejecting(target):
    """A ``_preserves_structure`` that also fails the pair ``target`` = (pi_N, pi_M) rows."""
    preserves = autsearch._preserves_structure

    def check(s, pns, pms):
        pns, pms = np.asarray(pns), np.asarray(pms)
        ok = preserves(s, pns, pms)
        hit = (pns == target[0]).all(axis=1) & (pms == target[1]).all(axis=1)
        return ok & ~hit

    return check


class TestLazyListing:
    """The listing is built and checked on first read; strong generators are checked at once."""

    def test_certify_unique_on_sym7_lists_nothing(self, monkeypatch):
        spec = specio.parse_spec((CORPUS / "sym7.json").read_text())
        s, joint = specio.build_structure(spec), specio.expanded_joint(spec)
        generators = autsearch.enumerate_automorphisms(s, element_cap=1).generators
        checked = []
        preserves = autsearch._preserves_structure

        def counting(s, pns, pms):
            checked.append(len(pns))
            return preserves(s, pns, pms)

        monkeypatch.setattr(autsearch, "_preserves_structure", counting)
        cert = autsearch.certify_unique(s, joint)
        assert (cert.verdict, cert.aut_order) == ("unique", 5040)
        # strong and kernel generators, plus the reference's generator pairs
        assert 0 < sum(checked) <= len(generators) + len(joint.group.generator_ids)

    def test_first_read_matches_brute_force(self, reverse_conv, reverse_conv_structure, mirror_conv):
        s4 = diagonal_symmetric_joint(4)
        cases = [
            (s4, designs.dense_design(s4)),
            (mirror_conv, designs.dense_design(mirror_conv)),
            (reverse_conv, reverse_conv_structure),
        ]
        for joint, s in cases:
            brute = oracles.brute_force_automorphisms(s)
            result = autsearch.enumerate_automorphisms(s, reference=joint)
            assert "_listed" not in vars(result)
            assert result.order == len(brute)
            assert [(pn.images, pm.images) for pn, pm in result.elements] == brute
            assert result.pair_set() == set(brute)
            again = autsearch.enumerate_automorphisms(s, reference=joint)
            assert again.pair_set() == set(brute)
            assert [(pn.images, pm.images) for pn, pm in again.elements] == brute

    def test_strong_generator_is_checked_eagerly(self, monkeypatch):
        s = designs.dense_design(diagonal_symmetric_joint(4))
        pn, pm = autsearch.enumerate_automorphisms(s, element_cap=1).generators[-1]
        monkeypatch.setattr(autsearch, "_preserves_structure", rejecting((pn.images, pm.images)))
        with pytest.raises(AutSearchError) as info:
            autsearch.enumerate_automorphisms(s)
        assert str(info.value) == "internal error: emitted pair fails the setwise check"

    def test_listed_row_is_checked_on_first_read(self, monkeypatch):
        s = designs.dense_design(diagonal_symmetric_joint(4))
        identity = (tuple(range(4)), tuple(range(4)))
        monkeypatch.setattr(autsearch, "_preserves_structure", rejecting(identity))
        result = autsearch.enumerate_automorphisms(s)
        assert result.order == 24
        for read in (lambda: result.elements, result.pair_set, lambda: result._listed):
            with pytest.raises(AutSearchError) as info:
                read()
            assert str(info.value) == "internal error: emitted pair fails the setwise check"
