import itertools
import json
import math
import random
import time
from functools import cache, cached_property, partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
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

    def test_empty_structure_has_only_the_identity(self):
        res = autsearch.enumerate_automorphisms(SharingStructure(0, 0, ()))
        assert res.order == 1 and res.generators == ()
        assert [r.shape for r in res._generator_rows] == [(0, 0), (0, 0)]
        assert res.stats == autsearch.SearchStats(0, 1, 0, (), 1)
        assert res.pair_set() == {((), ())}


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

    def test_negative_element_cap(self, reverse_conv_structure, reverse_conv):
        s = reverse_conv_structure
        certify = partial(autsearch.certify_unique, joint=reverse_conv)
        for run in (autsearch.enumerate_automorphisms, certify):
            with pytest.raises(AutSearchError) as info:
                run(s, element_cap=-1)
            assert str(info.value) == "element_cap must be >= 0"
        # a zero cap lists nothing and takes the generator rule
        assert autsearch.enumerate_automorphisms(s, element_cap=0).elements is None
        assert autsearch.certify_unique(s, reverse_conv, element_cap=0).verdict == "supergroup"


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


@pytest.mark.parametrize("element_cap", [1, autsearch.DEFAULT_ELEMENT_CAP])
@settings(max_examples=200, deadline=None)
@given(small_structures())
def test_generator_path_equals_brute_force_on_random_structures(element_cap, s):
    res = autsearch.enumerate_automorphisms(s, element_cap=element_cap)
    brute = set(oracles.brute_force_automorphisms(s))
    assert res.order == len(brute)
    assert res.stats.kernel_order * math.prod(res.stats.base_orbits) == res.order
    assert closure(res.generators, s.n_size, s.m_size) == brute
    if res.order <= element_cap:
        assert res.pair_set() == brute
    else:
        assert res.elements is None


class TestGeneratorTable:
    """Every result carries one generator table: kernel generators, then strong ones."""

    @staticmethod
    def structures():
        readme = specio.parse_spec((CORPUS / "readme.json").read_text())
        # K_{3,3}: M rows 0..2 are equal, so K is S3 on M, then S3 on N
        yield complete_bipartite(3, 3), [
            ("()", "(0 1)"), ("()", "(0 1 2)"), ("(1 2)", "()"), ("(0 1)", "()"),
        ]
        # README: output rows 0/3, 1/4 and 2/5 are equal, then the rotation
        yield specio.build_structure(readme), [
            ("()", "(0 3)"), ("()", "(1 4)"), ("()", "(2 5)"), ("(0 1 2)", "(0 2 1)(3 5 4)"),
        ]

    def test_kernel_generators_first_at_every_cap(self):
        for s, expected in self.structures():
            capped = autsearch.enumerate_automorphisms(s, element_cap=1)
            listed = autsearch.enumerate_automorphisms(s, element_cap=10_000)
            assert capped.elements is None and len(listed.elements) == listed.order
            assert capped.generators == listed.generators
            cycles = [tuple(map(pc.format_cycles, pair)) for pair in listed.generators]
            assert cycles == expected

    def test_one_setwise_check_and_no_permutation(self, monkeypatch):
        loaded = {}
        for name in ("kk6", "readme"):
            spec = specio.parse_spec((CORPUS / f"{name}.json").read_text())
            loaded[name] = specio.build_structure(spec), specio.expanded_joint(spec)
        built, checked = [], []
        preserves = autsearch._preserves_structure
        monkeypatch.setattr(pc.Permutation, "__post_init__", lambda p: built.append(p.images))
        monkeypatch.setattr(
            autsearch, "_preserves_structure",
            lambda s, pns, pms: checked.append(len(pns)) or preserves(s, pns, pms),
        )
        for cap in (1, 10_000, 10**6):
            res = autsearch.enumerate_automorphisms(loaded["kk6"][0], element_cap=cap)
            assert (res.order, built) == (518_400, [])
            assert checked == [7]  # 2 kernel generators and 5 strong ones, checked once
            checked.clear()
        # certify builds its witness only, and checks it once more: the first
        # generator outside the joint group above the cap, the lexicographically
        # first automorphism outside it at or below, found without listing Aut
        first_generator = [(0, 1, 2, 3, 4, 5), (1, 0, 2, 3, 4, 5)]
        cases = [
            ("kk6", 1, first_generator),
            ("kk6", 10_000, first_generator),
            ("kk6", 10**6, [(0, 1, 2, 3, 4, 5), (0, 1, 2, 3, 5, 4)]),
            ("readme", 10_000, [(0, 1, 2), (0, 1, 5, 3, 4, 2)]),
            ("readme", 10**6, [(0, 1, 2), (0, 1, 5, 3, 4, 2)]),
        ]
        for name, cap, witness in cases:
            built.clear()
            checked.clear()
            cert = autsearch.certify_unique(*loaded[name], element_cap=cap)
            assert cert.verdict == "supergroup"
            assert built == witness
            assert [p.images for p in cert.witness] == witness
            assert checked[-1] == 1


def all_pairs(s):
    return list(itertools.product(
        itertools.permutations(range(s.n_size)), itertools.permutations(range(s.m_size))
    ))


@settings(max_examples=100, deadline=None)
@given(small_structures())
def test_batched_setwise_check_matches_per_pair_predicate(s):
    pairs = all_pairs(s)
    got = autsearch._preserves_structure(s, [pn for pn, _ in pairs], [pm for _, pm in pairs])
    assert got.tolist() == [oracles.preserves_edges(s, pn, pm) for pn, pm in pairs]


def test_batched_setwise_check_across_batches(reverse_conv_structure, monkeypatch):
    # one pair per batch: the batch boundaries must not shift any verdict
    monkeypatch.setattr(autsearch, "_CHECK_BATCH_CELLS", 1)
    s = reverse_conv_structure
    pairs = all_pairs(s)[::7]
    got = autsearch._preserves_structure(s, [pn for pn, _ in pairs], [pm for _, pm in pairs])
    assert got.tolist() == [oracles.preserves_edges(s, pn, pm) for pn, pm in pairs]
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


SUPERGROUP_SPECS = ("agl1-7", "kk6", "kk7", "kk8", "readme", "readme-ch23")
TRIVIAL = pc.close_generators(pc.symmetric_generators(1))


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

    @pytest.mark.parametrize("name", SUPERGROUP_SPECS)
    def test_witness_matches_the_listing_oracle(self, name):
        conjugate = oracles.bench_conjugate_spec()
        doc = json.loads((CORPUS / f"{name}.json").read_text())
        for seed in (0, 5, 301, 1, 2, 77):
            spec = specio.parse_spec(json.dumps(conjugate(doc, random.Random(f"{seed}:{name}"))))
            s, joint = specio.build_structure(spec), specio.expanded_joint(spec)
            for cap in (1, 100, 10_000):
                cert = autsearch.certify_unique(s, joint, element_cap=cap)
                result = autsearch.enumerate_automorphisms(s, reference=joint, element_cap=cap)
                assert cert.verdict == "supergroup"
                witness = tuple(p.images for p in cert.witness)
                assert witness == oracles.certify_witness(result, joint)

    @pytest.mark.parametrize("cap", [1, 10_000])
    def test_supergroup_builds_the_incidence_array_once(self, cap, monkeypatch):
        built = []
        incidence = SharingStructure._incidence.func
        counted = cached_property(lambda s: built.append(s) or incidence(s))
        counted.__set_name__(SharingStructure, "_incidence")
        monkeypatch.setattr(SharingStructure, "_incidence", counted)
        checked = []
        preserves = autsearch._preserves_structure
        monkeypatch.setattr(
            autsearch, "_preserves_structure",
            lambda s, pns, pms: checked.append(len(pns)) or preserves(s, pns, pms),
        )
        spec = specio.parse_spec((CORPUS / "agl1-7.json").read_text())
        s = specio.build_structure(spec)
        cert = autsearch.certify_unique(s, specio.expanded_joint(spec), element_cap=cap)
        assert cert.verdict == "supergroup"
        # generator table, reference generators and witness: three checks, one array
        assert len(checked) == 3 and built == [s]
        assert not s._incidence.flags.writeable

    def test_broken_joint_raises(self, mirror_conv):
        s = layer.group_conv_structure(mirror_conv, [1])
        g2 = pc.close_generators(pc.cyclic_generators(2))
        wrong = pc.joint_action(
            pc.build_action(g2, [pc.parse_cycles("(0 1)", 4)], 4),
            pc.regular_action(g2),
        )
        with pytest.raises(AutSearchError, match="does not preserve"):
            autsearch.certify_unique(s, wrong)


@settings(max_examples=100, deadline=None)
@given(small_structures())
def test_witness_against_trivial_joint_is_the_first_non_identity_automorphism(s):
    joint = pc.joint_action(
        pc.trivial_action(TRIVIAL, s.n_size), pc.trivial_action(TRIVIAL, s.m_size)
    )
    cert = autsearch.certify_unique(s, joint)
    brute = oracles.brute_force_automorphisms(s)  # in lexicographic order, the identity first
    assert cert.aut_order == len(brute)
    witness = None if cert.witness is None else tuple(p.images for p in cert.witness)
    assert witness == (brute[1] if len(brute) > 1 else None)


class TestLexWalk:
    """A group's lazy walk yields every element, in the row order of its sorted table."""

    def test_drained_walk_is_the_sorted_listing(self, reverse_conv_structure, mirror_conv):
        for s in (
            designs.dense_design(diagonal_symmetric_joint(4)),
            designs.dense_design(mirror_conv),
            reverse_conv_structure,
        ):
            result = autsearch.enumerate_automorphisms(s)
            pns, pms = result._listed
            listed = np.hstack([pns, pms + s.n_size]).tolist()
            assert list(result._group._lex_walk()) == list(map(tuple, listed))

    @pytest.mark.parametrize("seed", range(20))
    def test_random_narrow_chains(self, seed):
        rng = random.Random(seed)
        degree = rng.randint(1, 6)
        gens = [pc.perm(rng.sample(range(degree), degree)) for _ in range(rng.randint(1, 2))]
        group = pc._row_group(np.array([g.images for g in gens]))
        elements, _ = oracles.closure_per_element(gens)
        assert list(group._lex_walk()) == sorted(p.images for p in elements)

    @pytest.mark.parametrize("gens", [
        pc.dihedral_generators(60), pc.dihedral_generators(128),
    ], ids=["d60", "d128-on-256"])
    def test_byte_trees_up_to_degree_256(self, gens):
        group = pc._row_group(np.array([g.images for g in gens]))
        assert group._chain.narrow and len(group._chain.trees) > 1
        elements, _ = oracles.closure_per_element(gens)
        assert list(group._lex_walk()) == sorted(p.images for p in elements)

    @pytest.mark.parametrize("gens, degree", [
        (pc.dihedral_generators(130), 260),
        (pc.direct_product_generators(pc.symmetric_generators(4), pc.dihedral_generators(127)), 258),
    ], ids=["d130-on-260", "s4xd127-on-258"])
    def test_array_trees_above_degree_256(self, gens, degree):
        # fixed points pad the rows past the 256 points of the byte route
        pad = tuple(range(gens[0].degree, degree))
        group = pc._row_group(np.array([g.images + pad for g in gens]))
        assert not group._chain.narrow and len(group._chain.trees) > 1
        elements, _ = oracles.closure_per_element(gens)
        assert list(group._lex_walk()) == sorted(p.images + pad for p in elements)


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

    @pytest.mark.parametrize("name", ["agl1-7", "readme-ch23"])
    def test_certify_builds_no_listing(self, name, monkeypatch):
        spec = specio.parse_spec((CORPUS / f"{name}.json").read_text())
        s, joint = specio.build_structure(spec), specio.expanded_joint(spec)
        expected = oracles.certify_witness(
            autsearch.enumerate_automorphisms(s, reference=joint), joint
        )
        results = []
        enumerate_ = autsearch.enumerate_automorphisms

        def listing(group):
            raise AssertionError("certify listed a group")

        monkeypatch.setattr(pc.PermutationGroup, "_closure", property(listing))
        monkeypatch.setattr(
            autsearch, "enumerate_automorphisms",
            lambda *args, **kwargs: results.append(enumerate_(*args, **kwargs)) or results[-1],
        )
        cert = autsearch.certify_unique(s, joint)
        assert cert.aut_order <= autsearch.DEFAULT_ELEMENT_CAP
        assert tuple(p.images for p in cert.witness) == expected
        assert len(results) == 1 and "_listed" not in vars(results[0])

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

    def test_listing_is_sorted_where_the_chain_products_are_not(self):
        s = specio.build_structure(specio.parse_spec((CORPUS / "wreath3x3.json").read_text()))
        result = autsearch.enumerate_automorphisms(s)
        products = result._group._products(np.arange(result._group.degree))
        assert products.tolist() != sorted(products.tolist())
        pns, pms = result._listed
        sorted_products = products[np.lexsort(products.T[::-1])]
        assert np.array_equal(np.hstack([pns, pms + s.n_size]), sorted_products)
        pairs = [(pn.images, pm.images) for pn, pm in result.elements]
        assert pairs == sorted(set(pairs)) and len(pairs) == result.order

    def test_strong_generator_is_checked_eagerly(self, monkeypatch):
        s = designs.dense_design(diagonal_symmetric_joint(4))
        pn, pm = autsearch.enumerate_automorphisms(s, element_cap=1).generators[-1]
        monkeypatch.setattr(autsearch, "_preserves_structure", rejecting((pn.images, pm.images)))
        with pytest.raises(AutSearchError) as info:
            autsearch.enumerate_automorphisms(s)
        assert str(info.value) == "internal error: emitted pair fails the setwise check"

    def test_certify_checks_its_walk(self, monkeypatch):
        spec = specio.parse_spec((CORPUS / "kk6.json").read_text())
        s, joint = specio.build_structure(spec), specio.expanded_joint(spec)
        joint._group  # built unpatched
        witness = ((0, 1, 2, 3, 4, 5), (0, 1, 2, 3, 5, 4))  # the walk's, not a generator
        with monkeypatch.context() as patched:
            patched.setattr(autsearch, "_preserves_structure", rejecting(witness))
            autsearch.enumerate_automorphisms(s, reference=joint, element_cap=10**6)
            with pytest.raises(AutSearchError) as info:
                autsearch.certify_unique(s, joint, element_cap=10**6)
            assert str(info.value) == "internal error: emitted pair fails the setwise check"
        chain = pc._StabilizerChain
        monkeypatch.setattr(pc, "_StabilizerChain", lambda rows, limit: chain(rows[:1], limit))
        with pytest.raises(AutSearchError) as info:
            autsearch.certify_unique(s, joint, element_cap=10**6)
        assert str(info.value) == "internal error: the generators' chain has order 2, not 518400"

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


def cyclic_joint(n, m_size=None):
    """Z_n on N naturally, and on M naturally or, given ``m_size``, trivially."""
    z = pc.close_generators(pc.cyclic_generators(n))
    m_action = pc.natural_action(z) if m_size is None else pc.trivial_action(z, m_size)
    return pc.joint_action(pc.natural_action(z), m_action)


@pytest.mark.parametrize("joint_sizes", [(3,), (5,), (4, 2)], ids=["Z3", "Z5", "Z4-M2"])
@pytest.mark.parametrize("run", [autsearch.enumerate_automorphisms, autsearch.certify_unique])
def test_reference_of_other_sizes_is_refused(run, joint_sizes):
    # unchecked, a Z5 joint indexes past a Z4 structure, and a Z3 joint or a
    # 2-point M side fails to broadcast in the setwise check
    joint = cyclic_joint(*joint_sizes)
    with pytest.raises(AutSearchError) as info:
        run(designs.dense_design(cyclic_joint(4)), joint)
    expected = f"structure is 4 x 4 but the joint action targets {joint.m_size} x {joint.n_size}"
    assert str(info.value) == expected


def pair_joint(pn, pm):
    """The joint action of the cyclic group generated by (pn on N, pm on M)."""
    n = len(pn)
    group = pc.close_generators([pc.perm(list(pn) + [n + v for v in pm])])
    return pc.joint_action(pc.build_action(group, [pn], n), pc.build_action(group, [pm], len(pm)))


@st.composite
def orbit_structures(draw):
    """(structure, joint action): cells colored by orbits of a drawn (pi_N, pi_M).

    Each M row is repeated 1-3 times, so kernels have several groups of equal
    rows; an orbit may carry several colors (a multi-edge) or none. The joint
    action is generated by that pair, or by a second pair that need not
    preserve the colors.
    """
    n = draw(st.integers(1, 6))
    rows = draw(st.integers(1, 4))
    copies = draw(st.integers(1, 3))
    pn, pr = draw(st.permutations(range(n))), draw(st.permutations(range(rows)))
    orbit_colors = {}
    for cell in itertools.product(range(n), range(rows)):
        if cell not in orbit_colors:
            colors = draw(st.frozensets(st.integers(1, 3), max_size=3))
            while cell not in orbit_colors:
                orbit_colors[cell] = colors
                cell = (pn[cell[0]], pr[cell[1]])
    relations = tuple(
        Relation(c, [
            (i, r * copies + k) for (i, r), colors in orbit_colors.items() if c in colors
            for k in range(copies)
        ], {"kind": "dense"})
        for c in (1, 2, 3)
    )
    s = SharingStructure(n, rows * copies, relations)
    pm = [pr[j // copies] * copies + j % copies for j in range(rows * copies)]
    if draw(st.booleans()):
        pn, pm = draw(st.permutations(range(n))), draw(st.permutations(range(rows * copies)))
    return s, pair_joint(pn, pm)


def structure_from_rows(rows):
    """One-color structure whose M node j is joined to the N nodes i with rows[j][i] = 1."""
    edges = [(i, j) for j, row in enumerate(rows) for i, bit in enumerate(row) if bit]
    return SharingStructure(len(rows[0]), len(rows), (Relation(1, edges, {"kind": "dense"}),))


def assert_matches_frozenset_search(s, reference=None, **kwargs):
    res = autsearch.enumerate_automorphisms(s, reference=reference, **kwargs)
    rows, order, stats, verdict = oracles.frozenset_automorphism_search(s, reference)
    assert [r.tolist() for r in res._generator_rows] == [r.tolist() for r in rows]
    assert (res.order, res.stats, res.verdict) == (order, stats, verdict)
    return res


class TestFrozensetOracle:
    """The bitmask search walks the frozenset search's tree: same generators, counters and verdict."""

    @settings(max_examples=300, deadline=None)
    @given(orbit_structures())
    def test_orbit_colored_structures(self, case):
        assert_matches_frozenset_search(*case)

    @settings(max_examples=200, deadline=None)
    @given(small_structures())
    def test_random_structures(self, s):
        assert_matches_frozenset_search(s)

    @settings(max_examples=300, deadline=None)
    @given(orbit_structures())
    def test_leaf_masks_are_equal_or_disjoint(self, case):
        """Why ``pairing`` checks only sizes: matched masks pair off and cover M.

        The search walks the frozenset search's tree, so its leaves are these.
        """
        s, _ = case
        leaves = []
        oracles.frozenset_automorphism_search(s, leaves=leaves)
        assert leaves
        for cand in leaves:
            masks = set(cand)
            assert all(a == b or not a & b for a, b in itertools.combinations(masks, 2))
            if all(len(t) == cand.count(t) for t in masks):
                assert frozenset().union(*masks) == frozenset(range(s.m_size))

    def test_uneven_classes_give_a_non_increasing_base(self):
        # N nodes 0 and 1 swap with M nodes 0 and 1; node 2 sits alone, so
        # the base starts at 2, and the class of 0 and 1 is larger
        s = SharingStructure(3, 2, (
            Relation(1, [(0, 0), (1, 1)], {"kind": "dense"}),
            Relation(2, [(2, 0), (2, 1)], {"kind": "dense"}),
        ))
        classes = autsearch.color_refine(s).n_classes
        assert [classes.count(c) for c in classes] == [2, 2, 1]
        res = assert_matches_frozenset_search(s)
        assert (res.order, res.stats.base_orbits) == (2, (1, 2, 1))

    def test_class_masks_prune_before_the_leaf(self):
        # starting from all of M instead of one mask per M class, the same
        # search accepts two more N assignments before it rejects them
        s = structure_from_rows(
            [(1, 1, 0, 0), (0, 1, 0, 0), (1, 1, 1, 1), (1, 0, 1, 0), (0, 0, 1, 1), (0, 0, 0, 1)]
        )
        res = assert_matches_frozenset_search(s)
        assert (res.order, res.stats.nodes) == (2, 8)

    def test_leaves_whose_masks_outnumber_their_sources(self):
        # refinement leaves one class per part; some complete pi_N send the
        # three rows 0011 onto the two rows 1010, so their masks have 2 bits
        # for 3 sources and two of the five leaves are rejected
        s = structure_from_rows(
            [(0, 0, 1, 1)] * 3 + [(1, 1, 0, 0)] * 3 + [(1, 0, 1, 0)] * 2 + [(0, 1, 0, 1)] * 2
        )
        res = assert_matches_frozenset_search(s)
        assert (res.order, res.stats.leaves, res.stats.kernel_order) == (576, 5, 144)

    def test_kernels_with_several_groups_of_equal_rows(self):
        readme = specio.build_structure(specio.parse_spec((CORPUS / "readme.json").read_text()))
        for s in (readme, complete_bipartite(3, 3)):
            res = assert_matches_frozenset_search(s)
            assert res.stats.kernel_order > 1

    def test_multi_edges(self):
        # a self-loop puts both colors on one diagonal cell
        adjacency = np.array([[1, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 1]])
        s = layer.graph_conv_structure(adjacency)
        assert s.color_matrix.merged_color_count > s.color_matrix.base_color_count
        assert assert_matches_frozenset_search(s).order == 2

    @pytest.mark.parametrize(
        "name",
        # the gconv-tied searches take minutes past the default node budget
        [p.stem for p in sorted(CORPUS.glob("*.json")) if not p.stem.startswith("gconv-tied")],
    )
    def test_corpus(self, name):
        spec = specio.parse_spec((CORPUS / f"{name}.json").read_text())
        s = specio.build_structure(spec)
        assert_matches_frozenset_search(s, specio.expanded_joint(spec), node_budget=s.n_size + s.m_size)


class TestPastAMachineWord:
    """Candidate masks are Python ints: more than 64 M nodes need no second path."""

    def test_complete_bipartite_3_70(self):
        s = complete_bipartite(3, 70)
        res = assert_matches_frozenset_search(s, node_budget=73)
        assert (res.order, res.stats.kernel_order) == (6 * math.factorial(70), math.factorial(70))

    def test_path_graph_70(self):
        adjacency = np.eye(70, k=1, dtype=int) + np.eye(70, k=-1, dtype=int)
        s = layer.graph_conv_structure(adjacency)
        res = assert_matches_frozenset_search(s, node_budget=140)
        assert res.order == 2


REGULAR_GROUPS = {
    **{f"Z{n}": pc.cyclic_generators(n) for n in range(2, 9)},
    "V4": pc.direct_product_generators(pc.cyclic_generators(2), pc.cyclic_generators(2)),
    "S3": pc.symmetric_generators(3),
    "D4": pc.dihedral_generators(4),
    "D5": pc.dihedral_generators(5),
    "Z4xZ4": pc.direct_product_generators(pc.cyclic_generators(4), pc.cyclic_generators(4)),
}


@cache
def regular_joint(name):
    """G acting regularly, by left multiplication on its element ids, on both sides."""
    regular = pc.regular_action(pc.close_generators(REGULAR_GROUPS[name]))
    return pc.joint_action(regular, regular)


@cache
def regular_aut_order(name, genset):
    """|Aut| of the sparse design over ``regular_joint(name)``: brute force up to |G| = 6."""
    joint = regular_joint(name)
    s = designs.sparse_design(joint, genset)
    if joint.group.order <= 6:
        return len(oracles.brute_force_automorphisms(s))
    return autsearch.enumerate_automorphisms(s, node_budget=s.n_size + s.m_size).order


def predicted_aut_order(group, genset):
    """r! |H|^r, where H = <A A> and r = [G : H]."""
    elements = group.elements
    products = [pc.compose(elements[a], elements[b]) for a in genset for b in genset]
    h = pc.close_generators(products).order
    r = group.order // h
    return math.factorial(r) * h**r


class TestRegularActionTheorem:
    """Regular actions on both sides and a symmetric generating A: |Aut| = r! |H|^r."""

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([name for name in REGULAR_GROUPS if name != "Z4xZ4"]), st.data())
    def test_aut_order(self, name, data):
        group = regular_joint(name).group
        drawn = data.draw(st.sets(st.integers(1, group.order - 1), min_size=1, max_size=3))
        try:
            genset = pc.symmetrize_genset(group, drawn)
        except pc.GroupError:  # A does not generate G
            assume(False)
        assert regular_aut_order(name, genset) == predicted_aut_order(group, genset)

    def test_z2(self):
        """A = {s}: H = <s s> is trivial and r = 2, so |Aut| = 2! = |G|."""
        group = regular_joint("Z2").group
        assert group.generator_ids == (1,)
        assert predicted_aut_order(group, (1,)) == regular_aut_order("Z2", (1,)) == 2

    def test_even_torus(self):
        """Z4 x Z4 with A = {s, t}^{+-1}: the 4 x 4 torus is bipartite, so r = 2 and |Aut| = 2 * 8^2."""
        group = regular_joint("Z4xZ4").group
        genset = pc.symmetrize_genset(group, group.generator_ids)
        assert len(genset) == 4
        assert predicted_aut_order(group, genset) == regular_aut_order("Z4xZ4", genset) == 128
