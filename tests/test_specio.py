import json
import os
import random
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from eqtie import designs, permcore as pc, specio
from eqtie.specio import SpecError

CORPUS = Path(__file__).resolve().parent.parent / "bench" / "corpus"


def reverse_conv_doc(**overrides):
    doc = {
        "group": {"kind": "cyclic", "n": 6},
        "n_action": {"size": 3, "generator_images": ["(0 1 2)"]},
        "m_action": {"size": 6, "generator_images": ["(0 5 4 3 2 1)"]},
        "design": "sparse",
        "genset": [[0], [0, 0, 0, 0, 0]],
    }
    doc.update(overrides)
    return doc


class TestParseSpec:
    def test_minimal_reverse_conv(self):
        spec = specio.parse_spec(json.dumps(reverse_conv_doc()))
        assert spec.group.order == 6
        assert spec.genset_ids == (1, 5)
        s = specio.build_structure(spec)
        cm = designs.merge_colors(s)
        expected = np.array(
            [[0, 1, 2], [1, 2, 0], [2, 0, 1], [0, 1, 2], [1, 2, 0], [2, 0, 1]]
        )
        assert np.array_equal(cm.grid, expected)

    def test_non_generating_genset(self):
        doc = reverse_conv_doc(genset=[[0, 0], [0, 0, 0, 0]])  # {2, 4}: even shifts only
        with pytest.raises(SpecError, match=r"\$\.genset.*does not generate"):
            specio.parse_spec(json.dumps(doc))

    def test_asymmetric_genset(self):
        with pytest.raises(SpecError, match=r"\$\.genset.*not symmetric"):
            specio.parse_spec(json.dumps(reverse_conv_doc(genset=[[0]])))

    def test_sparse_genset_generation_checked_once(self, monkeypatch):
        orders = []
        row_group = pc._row_group

        def counted(rows, **kw):
            orders.append(len(rows))
            return row_group(rows, **kw)

        monkeypatch.setattr(pc, "_row_group", counted)
        spec = specio.parse_spec((CORPUS / "gconv-tied-z120.json").read_text())
        parsed = len(orders)
        structure = specio.build_structure(spec)
        assert len(orders) == parsed  # the genset holds G's generator: no chain is built
        assert structure.base_color_count > 0
        # a library caller's unchecked ids are still checked
        with pytest.raises(pc.GroupError, match="does not generate"):
            designs.sparse_design(spec.joint, [0])
        assert orders[parsed:] == [1]

    def test_empty_document(self):
        with pytest.raises(SpecError, match="offset 0"):
            specio.parse_spec("")

    def test_unknown_field_positioned(self):
        with pytest.raises(SpecError, match=r"\$\.frobnicate: unknown field"):
            specio.parse_spec(json.dumps(reverse_conv_doc(frobnicate=1)))

    def test_nested_error_paths(self):
        doc = reverse_conv_doc()
        doc["n_action"]["generator_images"] = ["(0 9)"]
        with pytest.raises(SpecError, match=r"\$\.n_action\.generator_images\[0\]"):
            specio.parse_spec(json.dumps(doc))

    def test_bad_design_value(self):
        with pytest.raises(SpecError, match=r"\$\.design"):
            specio.parse_spec(json.dumps(reverse_conv_doc(design="banded")))

    def test_sparse_requires_genset(self):
        doc = reverse_conv_doc()
        del doc["genset"]
        with pytest.raises(SpecError, match="requires a genset"):
            specio.parse_spec(json.dumps(doc))

    def test_genset_rejected_for_dense(self):
        with pytest.raises(SpecError, match=r"\$\.genset"):
            specio.parse_spec(json.dumps(reverse_conv_doc(design="dense")))

    def test_digraph_needs_square(self):
        with pytest.raises(SpecError, match="digraph mode requires"):
            specio.parse_spec(json.dumps(reverse_conv_doc(mode="digraph")))

    def test_inconsistent_action_positioned(self):
        doc = reverse_conv_doc()
        # a 4-cycle image for a generator of order 6 cannot extend to Z6
        doc["n_action"] = {"size": 4, "generator_images": ["(0 1 2 3)"]}
        with pytest.raises(SpecError, match=r"\$\.n_action.*inconsistent action"):
            specio.parse_spec(json.dumps(doc))

    def test_explicit_generator_group(self):
        doc = reverse_conv_doc(
            group={"kind": "generators", "degree": 6, "generators": ["(0 1 2 3 4 5)"]}
        )
        spec = specio.parse_spec(json.dumps(doc))
        assert spec.group.order == 6

    def test_direct_product_group(self):
        doc = {
            "group": {
                "kind": "direct_product",
                "factors": [{"kind": "cyclic", "n": 2}, {"kind": "cyclic", "n": 3}],
            },
            "n_action": {"size": 5, "generator_images": ["(0 1)", "(2 3 4)"]},
            "m_action": {"size": 5, "generator_images": ["(0 1)", "(2 3 4)"]},
            "design": "dense",
        }
        spec = specio.parse_spec(json.dumps(doc))
        assert spec.group.order == 6
        assert specio.build_structure(spec).base_color_count > 0

    def test_order_cap_respected(self):
        doc = reverse_conv_doc(
            group={"kind": "symmetric", "n": 6},
            n_action={"size": 6, "generator_images": ["(0 1)", "(0 1 2 3 4 5)"]},
            m_action={"size": 6, "generator_images": ["(0 1)", "(0 1 2 3 4 5)"]},
            design="dense",
            order_cap=100,
        )
        del doc["genset"]
        with pytest.raises(SpecError, match="order cap exceeded"):
            specio.parse_spec(json.dumps(doc))

    def test_tie_across_orbits_flag(self):
        doc = {
            "group": {"kind": "cyclic", "n": 2},
            "n_action": {"size": 4, "generator_images": ["(0 3)(1 2)"]},
            "m_action": {"size": 2, "generator_images": ["(0 1)"]},
            "design": "sparse",
            "genset": [[0]],
            "tie_across_orbits": True,
        }
        spec = specio.parse_spec(json.dumps(doc))
        s = specio.build_structure(spec)
        assert s.base_color_count == 1

    def test_tie_requires_sparse(self):
        doc = reverse_conv_doc(design="dense", tie_across_orbits=True)
        del doc["genset"]
        with pytest.raises(SpecError, match=r"\$\.tie_across_orbits"):
            specio.parse_spec(json.dumps(doc))

    def test_round_trip(self):
        spec = specio.parse_spec(json.dumps(reverse_conv_doc()))
        again = specio.parse_spec(specio.format_spec(spec))
        assert again.document == spec.document
        assert specio.format_spec(again) == specio.format_spec(spec)


def spec_text(drop=(), **overrides):
    """The reverse-conv spec as JSON text, with fields overridden and ``drop`` removed."""
    doc = reverse_conv_doc(**overrides)
    for key in drop:
        del doc[key]
    return json.dumps(doc)


def generators_group(*generators, degree=3):
    return {"kind": "generators", "degree": degree, "generators": list(generators)}


GROUP_KINDS = "['cyclic', 'dihedral', 'direct_product', 'generators', 'symmetric', 'wreath']"

# (parser, document text, JSON path, message): each error the two parsers raise on bad input
DOCUMENT_ERRORS = {
    "missing-field": (specio.parse_spec, spec_text(drop=["design"]),
                      "$", "missing required field 'design'"),
    "document-not-object": (specio.parse_spec, "[1, 2]", "$", "expected a JSON object"),
    "group-not-object": (specio.parse_spec, spec_text(group=[6]), "$.group", "expected an object"),
    "factor-not-object": (
        specio.parse_spec, spec_text(group={"kind": "direct_product", "factors": [6]}),
        "$.group.factors[0]", "expected an object",
    ),
    "action-not-object": (specio.parse_spec, spec_text(n_action="(0 1 2)"),
                          "$.n_action", "expected an object"),
    "channels-not-object": (specio.parse_spec, spec_text(channels=[1, 1]),
                            "$.channels", "expected an object"),
    "unknown-group-kind": (specio.parse_spec, spec_text(group={"kind": "alternating", "n": 4}),
                           "$.group.kind", f"expected one of {GROUP_KINDS}"),
    "empty-factors": (
        specio.parse_spec, spec_text(group={"kind": "direct_product", "factors": []}),
        "$.group.factors", "expected a non-empty list of group objects",
    ),
    "factors-not-list": (
        specio.parse_spec,
        spec_text(group={"kind": "direct_product", "factors": {"kind": "cyclic", "n": 6}}),
        "$.group.factors", "expected a non-empty list of group objects",
    ),
    "empty-generators": (specio.parse_spec, spec_text(group=generators_group()),
                         "$.group.generators", "expected a non-empty list of cycle strings"),
    "generators-not-list": (
        specio.parse_spec, spec_text(group=dict(generators_group(), generators="(0 1 2)")),
        "$.group.generators", "expected a non-empty list of cycle strings",
    ),
    "cycle-not-string": (specio.parse_spec, spec_text(group=generators_group("(0 1)", [0, 1, 2])),
                         "$.group.generators[1]", "expected a cycle-notation string"),
    "bad-cycle": (specio.parse_spec, spec_text(group=generators_group("(0 1)", "(0 7)")),
                  "$.group.generators[1]", "index 7 out of range for degree 3 in '(0 7)'"),
    "empty-genset": (specio.parse_spec, spec_text(genset=[]),
                     "$.genset", "expected a non-empty list of generator words"),
    "genset-not-list": (specio.parse_spec, spec_text(genset={"0": [0]}),
                        "$.genset", "expected a non-empty list of generator words"),
    "word-not-list": (specio.parse_spec, spec_text(genset=[[0], 0]),
                      "$.genset[1]", "expected a list of generator indices"),
    "generator-index-out-of-range": (specio.parse_spec, spec_text(genset=[[0], [0, 1]]),
                                     "$.genset[1][1]", "expected a generator index in 0..0"),
    "wrong-schema": (specio.parse_spec, spec_text(schema="eqtie.spec/2"),
                     "$.schema", "expected 'eqtie.spec/1'"),
    "bad-mode": (specio.parse_spec, spec_text(mode="tree"),
                 "$.mode", 'expected "bipartite" or "digraph"'),
    "tie-not-bool": (specio.parse_spec, spec_text(tie_across_orbits=1),
                     "$.tie_across_orbits", "expected a boolean"),
    "mask-syntax": (specio.parse_mask, '{"schema": ', "$",
                    "syntax error at offset 11: Expecting value"),
    "mask-not-object": (specio.parse_mask, '"eqtie.mask/1"', "$", "expected a JSON object"),
    "mask-schema": (specio.parse_mask, '{"schema": "eqtie.mask/0"}',
                    "$.schema", "expected 'eqtie.mask/1'"),
    "mask-missing-field": (
        specio.parse_mask,
        '{"schema": "eqtie.mask/1", "n_size": 3, "m_size": 6, "grid": [], "base_colors": []}',
        "$", "missing required field 'merged_to_base'",
    ),
}


@pytest.mark.parametrize("parser, text, path, message", DOCUMENT_ERRORS.values(),
                         ids=list(DOCUMENT_ERRORS))
def test_document_errors_name_their_path(parser, text, path, message):
    with pytest.raises(SpecError) as info:
        parser(text)
    assert info.value.path == path
    assert str(info.value) == f"{path}: {message}"


class TestRepeatedGenerators:
    """``generator_images`` holds one image per listed generator, repeats included."""

    @staticmethod
    def doc(group_generators, n_images, m_images, **overrides):
        doc = {
            "group": {"kind": "generators", "degree": 3, "generators": group_generators},
            "n_action": {"size": 3, "generator_images": n_images},
            "m_action": {"size": 3, "generator_images": m_images},
            "design": "dense",
        }
        doc.update(overrides)
        return json.dumps(doc)

    def test_one_image_per_listed_generator(self):
        gens = ["(0 1 2)", "(0 1 2)"]
        spec = specio.parse_spec(self.doc(gens, gens, gens))
        assert spec.group.order == 3
        assert spec.n_action._generator_rows.tolist() == [[1, 2, 0]]
        # the word [1, 1] reads the second listed generator twice: g^2
        sparse = specio.parse_spec(
            self.doc(gens, gens, gens, design="sparse", genset=[[0], [1, 1]])
        )
        assert sparse.genset_ids == (1, 2)

    def test_one_image_for_two_listed_generators_is_refused(self):
        with pytest.raises(SpecError) as info:
            specio.parse_spec(self.doc(["(0 1 2)", "(0 1 2)"], ["(0 1 2)"], ["(0 1 2)"]))
        assert str(info.value) == (
            "$.n_action.generator_images: expected 2 cycle strings (one per group generator)"
        )

    def test_repeated_generator_must_repeat_its_image(self):
        gens = ["(0 1 2)", "(0 1 2)"]
        with pytest.raises(SpecError) as info:
            specio.parse_spec(self.doc(gens, gens, ["(0 1 2)", "(0 2 1)"]))
        assert str(info.value) == (
            "$.m_action.generator_images[1]: generator 1 repeats generator 0 and must repeat"
            " its image"
        )

    def test_direct_product_with_trivial_factors(self):
        # C1 x C1 x C3 lists 3 generators, two of them the identity
        group = {"kind": "direct_product", "factors": [
            {"kind": "cyclic", "n": 1}, {"kind": "cyclic", "n": 1}, {"kind": "cyclic", "n": 3},
        ]}
        images = ["()", "()", "(0 1 2)"]
        spec = specio.parse_spec(self.doc([], images, images, group=group))
        assert (spec.group.order, spec.joint.joint_order) == (3, 3)
        with pytest.raises(SpecError, match=r"^\$\.n_action\.generator_images: expected 3 "):
            specio.parse_spec(self.doc([], images[1:], images, group=group))


class TestMaskExport:
    def test_reverse_conv_mask(self):
        spec = specio.parse_spec(json.dumps(reverse_conv_doc()))
        s = specio.build_structure(spec)
        doc = specio.build_mask_document(spec, s)
        assert doc["base_color_count"] == 2
        assert sum(c["edge_count"] for c in doc["base_colors"]) == 12
        assert len(doc["grid"]) == doc["n_size"] * doc["m_size"]
        assert doc["certification"] is None

    def test_empty_relation_exported(self):
        spec = specio.parse_spec(json.dumps(reverse_conv_doc()))
        s = specio.build_structure(spec)
        empty = designs.Relation(3, [], {"kind": "sparse"})
        padded = designs.SharingStructure(s.n_size, s.m_size, s.relations + (empty,), s.warnings)
        doc = specio.build_mask_document(spec, padded)
        assert doc["base_colors"][-1] == {"color": 3, "kind": "sparse", "edge_count": 0}
        assert doc["grid"] == specio.build_mask_document(spec, s)["grid"]
        assert specio.to_dot(padded) == specio.to_dot(s)

    def test_shuffled_edges_give_same_bytes(self):
        rng = np.random.default_rng(0)

        def shuffled(s):
            relations = tuple(
                designs.Relation(
                    r.color_id, rng.permutation(np.vstack([r.edges, r.edges])), r.provenance
                )
                for r in s.relations
            )
            return designs.SharingStructure(s.n_size, s.m_size, relations, s.warnings)

        spec = specio.parse_spec(json.dumps(reverse_conv_doc()))
        s = specio.build_structure(spec)
        assert specio.dump_mask(specio.build_mask_document(spec, shuffled(s))) == specio.dump_mask(
            specio.build_mask_document(spec, s)
        )
        assert specio.to_dot(shuffled(s)) == specio.to_dot(s)
        g3 = pc.close_generators(pc.symmetric_generators(3))
        nat = pc.natural_action(g3)
        square = designs.with_identity_relation(designs.dense_design(pc.joint_action(nat, nat)))
        assert specio.to_dot(shuffled(square), digraph_mode=True) == specio.to_dot(
            square, digraph_mode=True
        )

    def test_dump_parse_round_trip(self):
        spec = specio.parse_spec(json.dumps(reverse_conv_doc()))
        doc = specio.build_mask_document(spec, specio.build_structure(spec))
        text = specio.dump_mask(doc)
        assert specio.parse_mask(text) == doc
        assert specio.dump_mask(specio.parse_mask(text)) == text

    def test_grid_length_validated(self):
        spec = specio.parse_spec(json.dumps(reverse_conv_doc()))
        doc = specio.build_mask_document(spec, specio.build_structure(spec))
        doc = dict(doc, grid=doc["grid"][:-1])
        with pytest.raises(SpecError, match="grid length"):
            specio.parse_mask(specio.dump_mask(doc))

    @pytest.mark.parametrize("field, value, message", [
        ("n_size", None, r"^\$\.n_size: expected an integer$"),
        ("m_size", None, r"^\$\.m_size: expected an integer$"),
        ("n_size", "3", r"^\$\.n_size: expected an integer$"),
        ("m_size", 0, r"^\$\.m_size: must be >= 1$"),
        ("grid", 5, r"^\$\.grid: expected a list$"),
        ("grid", None, r"^\$\.grid: expected a list$"),
        ("merged_to_base", 5, r"^\$\.merged_to_base: expected an object$"),
        ("merged_to_base", [[1]], r"^\$\.merged_to_base: expected an object$"),
        ("base_colors", "no", r"^\$\.base_colors: expected a list$"),
        ("base_colors", {}, r"^\$\.base_colors: expected a list$"),
    ])
    def test_malformed_fields_raise_spec_error(self, field, value, message):
        spec = specio.parse_spec(json.dumps(reverse_conv_doc()))
        doc = specio.build_mask_document(spec, specio.build_structure(spec))
        with pytest.raises(SpecError, match=message):
            specio.parse_mask(specio.dump_mask(dict(doc, **{field: value})))

    @pytest.mark.parametrize("cell", ["x", None, True, 1.0, -1, 99])
    def test_malformed_grid_cell_raises_spec_error(self, cell):
        spec = specio.parse_spec(json.dumps(reverse_conv_doc()))
        doc = specio.build_mask_document(spec, specio.build_structure(spec))
        grid = list(doc["grid"])
        grid[4] = cell
        with pytest.raises(
            SpecError, match=r"^\$\.grid\[4\]: expected 0 or a key of merged_to_base$"
        ):
            specio.parse_mask(specio.dump_mask(dict(doc, grid=grid)))

    @pytest.mark.parametrize("path", sorted(CORPUS.glob("*.json")), ids=lambda p: p.stem)
    def test_corpus_masks_round_trip(self, path):
        spec = specio.parse_spec(path.read_text())
        text = specio.dump_mask(specio.build_mask_document(spec, specio.build_structure(spec)))
        assert specio.dump_mask(specio.parse_mask(text)) == text

    def test_byte_identical_dumps(self):
        texts = set()
        for _ in range(3):
            spec = specio.parse_spec(json.dumps(reverse_conv_doc()))
            doc = specio.build_mask_document(spec, specio.build_structure(spec))
            texts.add(specio.dump_mask(doc))
        assert len(texts) == 1

    def test_channel_mask_shape(self):
        spec = specio.parse_spec(json.dumps(reverse_conv_doc(channels={"in": 2, "out": 1})))
        doc = specio.build_mask_document(spec, specio.build_structure(spec))
        assert doc["n_size"] == 6 and doc["m_size"] == 6
        assert doc["base_color_count"] == 4


def reverse_conv_mask():
    spec = specio.parse_spec(json.dumps(reverse_conv_doc()))
    return specio.build_mask_document(spec, specio.build_structure(spec))


# the block `certify unique` adds, with a witness so it holds nested lists
CERTIFICATION = {
    "verdict": "supergroup", "aut_order": 48, "joint_order": 24,
    "witness": ["(0 1)", "()"], "seed": 0, "element_cap": 10_000, "node_budget": 64,
}

JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8),
)


def assert_mask_bytes(doc):
    """``dump_mask(doc)`` equals the reference; a failure shows the first difference only."""
    got, expected = specio.dump_mask(doc), oracles.dump_mask_reference(doc)
    if got != expected:
        at = len(os.path.commonprefix([got, expected]))
        near = slice(max(at - 30, 0), at + 30)
        pytest.fail(f"bytes differ at offset {at}: {got[near]!r} != {expected[near]!r}")


class TestMaskBytes:
    """``dump_mask`` writes exactly ``json.dumps(doc, indent=2) + "\\n"`` for every dict."""

    @pytest.mark.parametrize("path", sorted(CORPUS.glob("*.json")), ids=lambda p: p.stem)
    def test_corpus_masks_match_the_indented_encoding(self, path):
        conjugate = oracles.bench_conjugate_spec()
        doc = json.loads(path.read_text())
        texts = [json.dumps(doc)] + [
            json.dumps(conjugate(doc, random.Random(f"{seed}:{path.stem}"))) for seed in (0, 5, 301)
        ]
        for text in texts:
            spec = specio.parse_spec(text)
            structure = specio.build_structure(spec)
            for block in (None, CERTIFICATION):
                mask = specio.build_mask_document(spec, structure, certification=block)
                assert_mask_bytes(mask)

    @pytest.mark.parametrize("grid", [
        [], [7], [0, 0], (1, 2), 5, None, "grid", {"a": [1]}, {}, True,
    ], ids=repr)
    def test_grid_shapes(self, grid):
        doc = dict(reverse_conv_mask(), grid=grid)
        assert_mask_bytes(doc)

    @pytest.mark.parametrize("cells", [
        ['say "hi"', "a\\b", "x\ny", "\t"],
        ["[", "]", "{", "}", "[1, 2]", '{"grid": []}', ",\n    "],
        ["é", "日本語", "\u2028", "\U0001f600", "\x00"],
        [1e300, -0.0, 0.0, 1.5, -2.5e-300, float("nan"), float("inf"), float("-inf")],
        [2**63, 2**64 + 1, -(2**70), 0, -1],
        [True, False, None, 1, 1.0, "1"],
    ], ids=["quotes", "brackets", "non-ascii", "floats", "big-ints", "mixed"])
    def test_scalar_cells(self, cells):
        doc = dict(reverse_conv_mask(), grid=cells)
        assert_mask_bytes(doc)

    @pytest.mark.parametrize("cells", [
        [[1, 2], [3]], [1, [2, [3]]], [[]], [{}], [{"a": [1, {"b": 2}]}, 4], [(1, 2)],
    ], ids=repr)
    def test_nested_cells(self, cells):
        doc = dict(reverse_conv_mask(), grid=cells)
        assert_mask_bytes(doc)

    def test_only_the_top_level_grid_is_spliced(self):
        mask = reverse_conv_mask()
        nested = dict(mask, channels={"in": 1, "out": 1, "grid": []})
        nested["base_colors"] = [dict(c, grid=[]) for c in mask["base_colors"]]
        docs = [
            nested,
            dict(nested, grid=[]),
            {"channels": {"grid": []}, **mask},
            {"grid": mask["grid"], "other": {"grid": []}},  # grid first
            {"other": {"grid": []}, "grid": mask["grid"]},  # grid last
            {"grid": mask["grid"]},
            {"n_size": 3},  # no grid at all
            {},
        ]
        for doc in docs:
            assert_mask_bytes(doc)

    def test_unencodable_cells_raise_as_the_indented_encoding(self):
        for grid in ([np.int64(1)], [object()], [1, {(1, 2): 3}]):
            doc = dict(reverse_conv_mask(), grid=grid)
            with pytest.raises(TypeError) as expected:
                oracles.dump_mask_reference(doc)
            with pytest.raises(TypeError) as got:
                specio.dump_mask(doc)
            assert str(got.value) == str(expected.value)
        circular = []
        circular.append(circular)
        with pytest.raises(ValueError, match="Circular reference"):
            specio.dump_mask(dict(reverse_conv_mask(), grid=[1, circular]))

    def test_int_grid_is_not_indented_cell_by_cell(self, monkeypatch):
        spec = specio.parse_spec((CORPUS / "gconv-tied-z240.json").read_text())
        mask = specio.build_mask_document(spec, specio.build_structure(spec))
        indented = []

        def dumps(obj, **kwargs):
            if "indent" in kwargs:
                indented.append(len(obj.get("grid") or ()) if isinstance(obj, dict) else obj)
            return json.dumps(obj, **kwargs)

        monkeypatch.setattr(specio, "json", types.SimpleNamespace(dumps=dumps))
        assert_mask_bytes(mask)
        assert indented == [0]  # the rest of the document only

    @settings(max_examples=200, deadline=None)
    @given(st.lists(JSON_SCALARS, max_size=12) | st.lists(
        st.recursive(JSON_SCALARS, lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(st.text(max_size=4), inner, max_size=3), max_leaves=6),
        max_size=6,
    ))
    def test_random_grids(self, grid):
        doc = dict(reverse_conv_mask(), grid=grid)
        assert_mask_bytes(doc)


class TestDot:
    def test_bipartite_dot(self):
        spec = specio.parse_spec(json.dumps(reverse_conv_doc()))
        text = specio.to_dot(specio.build_structure(spec))
        assert text.startswith("graph sharing {")
        assert 'n1 -- m0 [label="1"' in text
        assert text.count(" -- ") == 12

    def test_digraph_dot_skips_identity(self):
        doc = {
            "group": {"kind": "cyclic", "n": 4},
            "n_action": {"size": 8, "generator_images": ["(0 1 2 3)(4 5 6 7)"]},
            "m_action": {"size": 8, "generator_images": ["(0 1 2 3)(4 5 6 7)"]},
            "design": "sparse",
            "genset": [[0], [0, 0, 0]],
            "mode": "digraph",
        }
        spec = specio.parse_spec(json.dumps(doc))
        text = specio.to_dot(specio.build_structure(spec), digraph_mode=True)
        assert text.startswith("digraph sharing {")
        assert " -> " in text
        assert "v0 -> v0" not in text  # identity relation implied, not drawn
