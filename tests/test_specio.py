import json
from pathlib import Path

import numpy as np
import pytest

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
