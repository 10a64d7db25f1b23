"""Problem-spec parsing and machine-readable exports (mask JSON, reports, DOT).

Input documents are strict JSON: unknown keys are rejected and every error
carries the JSON path of the offending field. All files are 0-based; 1-based
conversion exists only in the CLI's display mode. Exports use a fixed key
order so identical inputs produce byte-identical bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from . import designs, layer, permcore
from .designs import ChannelSpec, SharingStructure
from .permcore import GroupAction, JointAction, Permutation, PermutationGroup

SPEC_SCHEMA = "eqtie.spec/1"
MASK_SCHEMA = "eqtie.mask/1"
REPORT_SCHEMA = "eqtie.report/1"
TOOL_VERSION = "0.1.0"

_GROUP_KINDS = {"cyclic", "dihedral", "symmetric", "wreath", "direct_product", "generators"}


class SpecError(ValueError):
    """Spec violation, annotated with the JSON path of the offending field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _require_keys(obj: dict, path: str, required: set[str], optional: set[str] = frozenset()):
    for key in obj:
        if key not in required and key not in optional:
            raise SpecError(f"{path}.{key}", "unknown field")
    for key in required:
        if key not in obj:
            raise SpecError(path, f"missing required field {key!r}")


def _get_int(obj: dict, key: str, path: str, minimum: int = 1) -> int:
    value = obj.get(key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise SpecError(f"{path}.{key}", "expected an integer")
    if value < minimum:
        raise SpecError(f"{path}.{key}", f"must be >= {minimum}")
    return value


def _parse_group_generators(obj, path: str) -> list[Permutation]:
    if not isinstance(obj, dict):
        raise SpecError(path, "expected an object")
    kind = obj.get("kind")
    if kind not in _GROUP_KINDS:
        raise SpecError(f"{path}.kind", f"expected one of {sorted(_GROUP_KINDS)}")
    if kind in ("cyclic", "dihedral", "symmetric"):
        _require_keys(obj, path, {"kind", "n"})
        return permcore.named_group(kind, n=_get_int(obj, "n", path))
    if kind == "wreath":
        _require_keys(obj, path, {"kind", "d", "blocks"})
        return permcore.wreath_generators(_get_int(obj, "d", path), _get_int(obj, "blocks", path))
    if kind == "direct_product":
        _require_keys(obj, path, {"kind", "factors"})
        factors = obj.get("factors")
        if not isinstance(factors, list) or len(factors) < 1:
            raise SpecError(f"{path}.factors", "expected a non-empty list of group objects")
        parsed = [
            _parse_group_generators(f, f"{path}.factors[{i}]") for i, f in enumerate(factors)
        ]
        return permcore.direct_product_generators(*parsed)
    # explicit generators in cycle notation
    _require_keys(obj, path, {"kind", "degree", "generators"})
    degree = _get_int(obj, "degree", path)
    raw = obj.get("generators")
    if not isinstance(raw, list) or not raw:
        raise SpecError(f"{path}.generators", "expected a non-empty list of cycle strings")
    gens = []
    for i, text in enumerate(raw):
        if not isinstance(text, str):
            raise SpecError(f"{path}.generators[{i}]", "expected a cycle-notation string")
        try:
            gens.append(permcore.parse_cycles(text, degree))
        except permcore.GroupError as exc:
            raise SpecError(f"{path}.generators[{i}]", str(exc)) from None
    return gens


def _parse_action(
    obj, path: str, group: PermutationGroup, generators: list[Permutation]
) -> GroupAction:
    if not isinstance(obj, dict):
        raise SpecError(path, "expected an object")
    _require_keys(obj, path, {"size", "generator_images"})
    size = _get_int(obj, "size", path)
    raw = obj.get("generator_images")
    if not isinstance(raw, list) or len(raw) != len(group.generator_ids):
        raise SpecError(
            f"{path}.generator_images",
            f"expected {len(group.generator_ids)} cycle strings (one per group generator)",
        )
    images = []
    for i, text in enumerate(raw):
        if not isinstance(text, str):
            raise SpecError(f"{path}.generator_images[{i}]", "expected a cycle-notation string")
        try:
            images.append(permcore.parse_cycles(text, size))
        except permcore.GroupError as exc:
            raise SpecError(f"{path}.generator_images[{i}]", str(exc)) from None
    try:
        return permcore.build_action(group, images, size)
    except permcore.GroupError as exc:
        raise SpecError(path, str(exc)) from None


@dataclass
class ProblemSpec:
    group: PermutationGroup
    n_action: GroupAction
    m_action: GroupAction
    design: str
    genset_ids: Optional[tuple[int, ...]]
    channels: ChannelSpec
    mode: str
    order_cap: int
    tie_across_orbits: bool
    document: dict

    @cached_property
    def joint(self) -> JointAction:
        """The joint action of the two parsed actions, built once per spec."""
        return permcore.joint_action(self.n_action, self.m_action)


def parse_spec(text: str) -> ProblemSpec:
    """Parse and fully validate a problem-spec document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError("$", f"syntax error at offset {exc.pos}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise SpecError("$", "expected a JSON object")
    _require_keys(
        doc,
        "$",
        {"group", "n_action", "m_action", "design"},
        {"schema", "genset", "channels", "mode", "order_cap", "tie_across_orbits"},
    )
    if "schema" in doc and doc["schema"] != SPEC_SCHEMA:
        raise SpecError("$.schema", f"expected {SPEC_SCHEMA!r}")

    order_cap = (
        _get_int(doc, "order_cap", "$") if "order_cap" in doc else permcore.DEFAULT_ORDER_CAP
    )
    generators = _parse_group_generators(doc["group"], "$.group")
    try:
        group = permcore.close_generators(generators, cap=order_cap)
    except permcore.GroupError as exc:
        raise SpecError("$.group", str(exc).replace("the cap", "the spec's order_cap")) from None

    n_action = _parse_action(doc["n_action"], "$.n_action", group, generators)
    m_action = _parse_action(doc["m_action"], "$.m_action", group, generators)

    design = doc.get("design")
    if design not in ("dense", "sparse"):
        raise SpecError("$.design", 'expected "dense" or "sparse"')

    genset_ids = None
    if design == "sparse":
        if "genset" not in doc:
            raise SpecError("$", "sparse design requires a genset")
        raw = doc["genset"]
        if not isinstance(raw, list) or not raw:
            raise SpecError("$.genset", "expected a non-empty list of generator words")
        right = group._cayley_right  # a letter is a column; repeats share one
        slot = {row: s for s, row in enumerate(map(tuple, group._generator_rows.tolist()))}
        column = [slot[g.images] for g in generators]
        ids = set()
        for i, word in enumerate(raw):
            if not isinstance(word, list):
                raise SpecError(f"$.genset[{i}]", "expected a list of generator indices")
            element = 0
            for j, g in enumerate(word):
                if not isinstance(g, int) or isinstance(g, bool) or not 0 <= g < len(generators):
                    raise SpecError(
                        f"$.genset[{i}][{j}]",
                        f"expected a generator index in 0..{len(generators) - 1}",
                    )
                element = int(right[element, column[g]])
            ids.add(element)
        try:
            symmetric = permcore.symmetrize_genset(group, ids)
        except permcore.GroupError as exc:
            raise SpecError("$.genset", str(exc)) from None
        if tuple(sorted(ids)) != symmetric:
            missing = sorted(set(symmetric) - ids)
            raise SpecError(
                "$.genset", f"not symmetric: missing inverse element ids {missing}"
            )
        genset_ids = symmetric
    elif "genset" in doc:
        raise SpecError("$.genset", "genset is only meaningful for the sparse design")

    channels = ChannelSpec(1, 1)
    if "channels" in doc:
        ch = doc["channels"]
        if not isinstance(ch, dict):
            raise SpecError("$.channels", "expected an object")
        _require_keys(ch, "$.channels", {"in", "out"})
        channels = ChannelSpec(_get_int(ch, "in", "$.channels"), _get_int(ch, "out", "$.channels"))

    mode = doc.get("mode", "bipartite")
    if mode not in ("bipartite", "digraph"):
        raise SpecError("$.mode", 'expected "bipartite" or "digraph"')
    if mode == "digraph" and n_action.target_size != m_action.target_size:
        raise SpecError("$.mode", "digraph mode requires equal input and output sizes")

    tie = doc.get("tie_across_orbits", False)
    if not isinstance(tie, bool):
        raise SpecError("$.tie_across_orbits", "expected a boolean")
    if tie and design != "sparse":
        raise SpecError("$.tie_across_orbits", "only meaningful for the sparse design")

    canonical = {
        "schema": SPEC_SCHEMA,
        "group": doc["group"],
        "n_action": doc["n_action"],
        "m_action": doc["m_action"],
        "design": design,
        "genset": doc.get("genset"),
        "channels": {"in": channels.k_in, "out": channels.k_out},
        "mode": mode,
        "order_cap": order_cap,
        "tie_across_orbits": tie,
    }
    if canonical["genset"] is None:
        del canonical["genset"]
    return ProblemSpec(
        group=group,
        n_action=n_action,
        m_action=m_action,
        design=design,
        genset_ids=genset_ids,
        channels=channels,
        mode=mode,
        order_cap=order_cap,
        tie_across_orbits=tie,
        document=canonical,
    )


def format_spec(spec: ProblemSpec) -> str:
    return json.dumps(spec.document, indent=2) + "\n"


def build_structure(spec: ProblemSpec) -> SharingStructure:
    """Compile the spec: design, then digraph identity relation, then channels."""
    joint = spec.joint
    if spec.design == "dense":
        s = designs.dense_design(joint)
    elif spec.tie_across_orbits:
        s = layer.group_conv_structure(joint, spec.genset_ids, tie_across_orbits=True)
    else:
        s = designs.sparse_design(joint, spec.genset_ids)
    if spec.mode == "digraph":
        s = designs.with_identity_relation(s)
    return designs.expand_channels(s, spec.channels)


def expanded_joint(spec: ProblemSpec) -> JointAction:
    """The joint action on the channel-expanded index sets; ``spec.joint`` for 1 x 1 channels."""
    if spec.channels == ChannelSpec(1, 1):
        return spec.joint
    return permcore.joint_action(
        designs.replicate_action(spec.n_action, spec.channels.k_in),
        designs.replicate_action(spec.m_action, spec.channels.k_out),
    )


# ---------------------------------------------------------------------------
# mask export


def build_mask_document(
    spec: ProblemSpec,
    structure: SharingStructure,
    certification: Optional[dict] = None,
) -> dict:
    cm = structure.color_matrix
    base_colors = []
    for rel in structure.relations:
        entry = {"color": rel.color_id}
        entry.update({k: _jsonable(v) for k, v in rel.provenance.items()})
        entry["edge_count"] = len(rel.edges)
        base_colors.append(entry)
    return {
        "schema": MASK_SCHEMA,
        "tool_version": TOOL_VERSION,
        "design": spec.design,
        "mode": spec.mode,
        "n_size": structure.n_size,
        "m_size": structure.m_size,
        "channels": {"in": spec.channels.k_in, "out": spec.channels.k_out},
        "base_color_count": cm.base_color_count,
        "merged_color_count": cm.merged_color_count,
        "grid": cm.grid.ravel().tolist(),
        "merged_to_base": {str(k): list(v) for k, v in sorted(cm.merged_to_base.items())},
        "base_colors": base_colors,
        "warnings": list(structure.warnings),
        "certification": certification,
    }


def _jsonable(value):
    if isinstance(value, tuple):
        return list(value)
    return value


def dump_mask(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def parse_mask(text: str) -> dict:
    """Validate and return a mask document (lossless round trip of dump_mask)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError("$", f"syntax error at offset {exc.pos}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise SpecError("$", "expected a JSON object")
    if doc.get("schema") != MASK_SCHEMA:
        raise SpecError("$.schema", f"expected {MASK_SCHEMA!r}")
    for key in ("n_size", "m_size", "grid", "merged_to_base", "base_colors"):
        if key not in doc:
            raise SpecError("$", f"missing required field {key!r}")
    n_size, m_size = _get_int(doc, "n_size", "$"), _get_int(doc, "m_size", "$")
    if not isinstance(doc["grid"], list):
        raise SpecError("$.grid", "expected a list")
    if len(doc["grid"]) != n_size * m_size:
        raise SpecError(
            "$.grid", f"grid length {len(doc['grid'])} != n_size*m_size ({n_size}*{m_size})"
        )
    merged = doc["merged_to_base"]
    if not isinstance(merged, dict):
        raise SpecError("$.merged_to_base", "expected an object")
    if not isinstance(doc["base_colors"], list):
        raise SpecError("$.base_colors", "expected a list")
    for i, cell in enumerate(doc["grid"]):
        if type(cell) is not int or (cell and str(cell) not in merged):
            raise SpecError(f"$.grid[{i}]", "expected 0 or a key of merged_to_base")
    return doc


# ---------------------------------------------------------------------------
# DOT export

_PALETTE = [
    "crimson", "dodgerblue", "forestgreen", "darkorange", "purple", "saddlebrown",
    "deeppink", "teal", "goldenrod", "navy", "olive", "firebrick",
]


def _edge_color(color_id: int) -> str:
    return _PALETTE[(color_id - 1) % len(_PALETTE)]


def to_dot(structure: SharingStructure, digraph_mode: bool = False) -> str:
    """Render the structure as graphviz DOT: edge color tracks the base color id.

    In digraph mode the two parts are collapsed onto one node set and the
    identity relation is implied rather than drawn.
    """
    lines = []
    if digraph_mode:
        lines.append("digraph sharing {")
        for i in range(structure.n_size):
            lines.append(f'  v{i} [label="{i}"];')
        for rel in structure.relations:
            if rel.provenance.get("kind") == "identity":
                continue
            style = f'[label="{rel.color_id}", color="{_edge_color(rel.color_id)}"];'
            lines.extend(f"  v{n} -> v{m} {style}" for n, m in rel.edges.tolist())
    else:
        lines.append("graph sharing {")
        lines.append("  rankdir=LR;")
        lines.append("  subgraph cluster_input {")
        lines.append('    label="N";')
        for i in range(structure.n_size):
            lines.append(f'    n{i} [label="{i}"];')
        lines.append("  }")
        lines.append("  subgraph cluster_output {")
        lines.append('    label="M";')
        for j in range(structure.m_size):
            lines.append(f'    m{j} [label="{j}"];')
        lines.append("  }")
        for rel in structure.relations:
            style = f'[label="{rel.color_id}", color="{_edge_color(rel.color_id)}"];'
            lines.extend(f"  n{n} -- m{m} {style}" for n, m in rel.edges.tolist())
    lines.append("}")
    return "\n".join(lines) + "\n"
