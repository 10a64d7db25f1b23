"""Problem-spec parsing and machine-readable exports (mask JSON, reports, DOT).

Input documents are strict JSON: unknown and repeated keys are rejected and
every error carries the JSON path of the offending field. All files are
0-based; 1-based conversion exists only in the CLI's display mode. Exports use a fixed key
order so identical inputs produce byte-identical bytes.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from . import designs, layer, permcore
from .designs import ChannelSpec, SharingStructure
from .permcore import GroupAction, JointAction, PermutationGroup

SPEC_SCHEMA = "eqtie.spec/1"
MASK_SCHEMA = "eqtie.mask/1"
REPORT_SCHEMA = "eqtie.report/1"
TOOL_VERSION = "0.1.0"

# the integer fields of each named family, in the order a missing one is named
_FAMILY_FIELDS = {
    "cyclic": ("n",), "dihedral": ("n",), "symmetric": ("n",), "wreath": ("d", "blocks"),
}
_GROUP_KINDS = {*_FAMILY_FIELDS, "direct_product", "generators"}


class SpecError(ValueError):
    """Spec violation, annotated with the JSON path of the offending field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _require_keys(obj: dict, path: str, required: tuple[str, ...], optional: tuple[str, ...] = ()):
    """Reject unknown fields, then name the first missing required field in ``required`` order."""
    for key in obj:
        if key not in required and key not in optional:
            raise SpecError(f"{path}.{key}", "unknown field")
    for key in required:
        if key not in obj:
            raise SpecError(path, f"missing required field {key!r}")


class _Repeats(dict):
    """A JSON object that repeated ``field``; it keeps the last copy, as ``json.loads`` does."""

    field: str


def _repeated_field(value, path: str) -> Optional[SpecError]:
    """The error naming the first object in ``value``, outermost first, that repeated a field."""
    if isinstance(value, _Repeats):
        return SpecError(path, f"repeated field {value.field!r}")
    if isinstance(value, dict):
        children = ((f"{path}.{key}", child) for key, child in value.items())
    elif isinstance(value, list):
        children = ((f"{path}[{i}]", child) for i, child in enumerate(value))
    else:
        return None
    return next(filter(None, (_repeated_field(child, at) for at, child in children)), None)


def _load_json(text: str):
    """The JSON document in ``text``; a syntax error or a repeated field raises SpecError."""
    repeats = []

    def pairs_hook(pairs):
        obj = dict(pairs)
        if len(obj) < len(pairs):
            counts = Counter(key for key, _ in pairs)
            obj = _Repeats(obj)
            obj.field = next(key for key, n in counts.items() if n > 1)
            repeats.append(obj)
        return obj

    try:
        doc = json.loads(text, object_pairs_hook=pairs_hook)
    except json.JSONDecodeError as exc:
        raise SpecError("$", f"syntax error at offset {exc.pos}: {exc.msg}") from None
    if repeats:
        raise _repeated_field(doc, "$")
    return doc


def _get_int(obj: dict, key: str, path: str, minimum: int = 1) -> int:
    value = obj.get(key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise SpecError(f"{path}.{key}", "expected an integer")
    if value < minimum:
        raise SpecError(f"{path}.{key}", f"must be >= {minimum}")
    return value


def _parse_group_generators(obj, path: str) -> list[tuple[int, ...]]:
    if not isinstance(obj, dict):
        raise SpecError(path, "expected an object")
    kind = obj.get("kind")
    if kind not in _GROUP_KINDS:
        raise SpecError(f"{path}.kind", f"expected one of {sorted(_GROUP_KINDS)}")
    if kind in _FAMILY_FIELDS:
        fields = _FAMILY_FIELDS[kind]
        _require_keys(obj, path, ("kind", *fields))
        return permcore.named_group(kind, **{key: _get_int(obj, key, path) for key in fields})
    if kind == "direct_product":
        _require_keys(obj, path, ("kind", "factors"))
        factors = obj.get("factors")
        if not isinstance(factors, list) or len(factors) < 1:
            raise SpecError(f"{path}.factors", "expected a non-empty list of group objects")
        parsed = [
            _parse_group_generators(f, f"{path}.factors[{i}]") for i, f in enumerate(factors)
        ]
        return permcore.named_group(kind, factors=parsed)
    # explicit generators in cycle notation
    _require_keys(obj, path, ("kind", "degree", "generators"))
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


def _parse_action(obj, path: str, group: PermutationGroup, column: list[int]) -> GroupAction:
    if not isinstance(obj, dict):
        raise SpecError(path, "expected an object")
    _require_keys(obj, path, ("size", "generator_images"))
    size = _get_int(obj, "size", path)
    raw = obj.get("generator_images")
    if not isinstance(raw, list) or len(raw) != len(column):
        raise SpecError(
            f"{path}.generator_images",
            f"expected {len(column)} cycle strings (one per group generator)",
        )
    images: dict[int, tuple[int, ...]] = {}  # one per generator row, in row order
    for i, text in enumerate(raw):
        if not isinstance(text, str):
            raise SpecError(f"{path}.generator_images[{i}]", "expected a cycle-notation string")
        try:
            image = permcore.parse_cycles(text, size)
        except permcore.GroupError as exc:
            raise SpecError(f"{path}.generator_images[{i}]", str(exc)) from None
        if images.setdefault(column[i], image) != image:
            first = column.index(column[i])
            raise SpecError(f"{path}.generator_images[{i}]",
                            f"generator {i} repeats generator {first} and must repeat its image")
    try:
        return permcore.build_action(group, list(images.values()), size)
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
    doc = _load_json(text)
    if not isinstance(doc, dict):
        raise SpecError("$", "expected a JSON object")
    _require_keys(
        doc,
        "$",
        ("group", "n_action", "m_action", "design"),
        ("schema", "genset", "channels", "mode", "order_cap", "tie_across_orbits"),
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

    # a listed generator's place among the group's distinct generators; repeats share one
    slot = {g: s for s, g in enumerate(group.generators)}
    column = [slot[g] for g in generators]
    n_action = _parse_action(doc["n_action"], "$.n_action", group, column)
    m_action = _parse_action(doc["m_action"], "$.m_action", group, column)

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
        for i, word in enumerate(raw):
            if not isinstance(word, list):
                raise SpecError(f"$.genset[{i}]", "expected a list of generator indices")
            for j, g in enumerate(word):
                if not isinstance(g, int) or isinstance(g, bool) or not 0 <= g < len(generators):
                    raise SpecError(
                        f"$.genset[{i}][{j}]",
                        f"expected a generator index in 0..{len(generators) - 1}",
                    )
        ids = set(group.word_ids([[column[g] for g in word] for word in raw]))
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
        _require_keys(ch, "$.channels", ("in", "out"))
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


class _IdGrid(list):
    """A mask grid taken from a ``ColorMatrix``: the cells as a list, and as the int array ``ids``.

    The cells are merged color ids, non-negative ints by construction, so
    ``dump_mask`` writes them from a token table without a check per cell.
    Any in-place change drops ``ids``, and the list is then encoded as any
    other grid.
    """

    __slots__ = ("ids",)

    def __init__(self, ids: np.ndarray):
        super().__init__(ids.tolist())
        self.ids = ids


def _dropping_ids(method):
    """``method`` of ``list``, run after dropping the grid's ``ids``."""

    def change(self, *args, **kwargs):
        self.ids = None
        return method(self, *args, **kwargs)

    return change


for _name in ("__setitem__", "__delitem__", "__iadd__", "__imul__", "append", "extend",
              "insert", "pop", "remove", "reverse", "sort", "clear"):
    setattr(_IdGrid, _name, _dropping_ids(getattr(list, _name)))


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
        "grid": _IdGrid(cm.grid.flatten()),
        "merged_to_base": {str(k): list(v) for k, v in sorted(cm.merged_to_base.items())},
        "base_colors": base_colors,
        "warnings": list(structure.warnings),
        "certification": certification,
    }


def _jsonable(value):
    if isinstance(value, tuple):
        return list(value)
    return value


# with indent=2 a non-empty flat list at depth 1 is `[`, each item after this
# gap, the items joined by `,`, then `\n  ]`; the slot is the empty grid's line
_GRID_GAP = "\n    "
_GRID_SLOT = '\n  "grid": []'


def dump_mask(doc: dict) -> str:
    """``json.dumps(doc, indent=2) + "\\n"``, byte for byte, with the grid written in bulk.

    With any ``indent`` json encodes in Python, one step per cell. Here only
    the rest of the document is indented, and the grid's items are spliced
    into the ``"grid": []`` slot at depth 1. A grid ``build_mask_document``
    took from a ``ColorMatrix`` is written from a table of one token per
    color id, gathered by the id array. Any other grid is encoded once by the
    C encoder, whose separator carries the newline and indent; one that is
    not a non-empty flat list of scalars, or whose encoding holds a bracket
    or a brace, takes the plain call.
    """
    grid = doc.get("grid")
    if isinstance(grid, list) and grid:
        ids = getattr(grid, "ids", None) if isinstance(grid, _IdGrid) else None
        try:
            head = json.dumps(dict(doc, grid=[]), indent=2)
            if ids is None:
                items = json.dumps(grid, separators=("," + _GRID_GAP, ": "))[1:-1]
            else:
                top = int(ids.max())  # one token per color id, not per cell
                tokens = np.array([str(i) for i in range(top + 1)], dtype=object)
                items = ("," + _GRID_GAP).join(tokens[ids].tolist())
        except (TypeError, ValueError):
            pass  # the plain call raises the reference error
        else:
            slot = head.find(_GRID_SLOT)
            if slot >= 0 and "[" not in items and "{" not in items:
                cut = slot + len(_GRID_SLOT) - 1
                return "".join((head[:cut], _GRID_GAP, items, "\n  ", head[cut:], "\n"))
    return json.dumps(doc, indent=2) + "\n"


def parse_mask(text: str) -> dict:
    """Validate and return a mask document (lossless round trip of dump_mask)."""
    doc = _load_json(text)
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
    identity relation is implied rather than drawn. Each node name is
    formatted once, as the head ``"  n{i} -- m"`` and the tail ``"{j} "`` of
    an edge line (``v`` names in digraph mode); the edge lines are those
    pieces and their relation's style, gathered by the edge columns and
    joined once.
    """
    ends, owner = structure._stacked_edges
    if digraph_mode:
        lines = ["digraph sharing {"]
        lines.extend(f'  v{i} [label="{i}"];' for i in range(structure.n_size))
        heads = [f"  v{i} -> v" for i in range(structure.n_size)]
        drawn = [r.provenance.get("kind") != "identity" for r in structure.relations]
        keep = np.array(drawn, dtype=bool)[owner]
        ends, owner = ends[keep], owner[keep]
    else:
        lines = ["graph sharing {", "  rankdir=LR;", "  subgraph cluster_input {", '    label="N";']
        lines.extend(f'    n{i} [label="{i}"];' for i in range(structure.n_size))
        lines.extend(["  }", "  subgraph cluster_output {", '    label="M";'])
        lines.extend(f'    m{j} [label="{j}"];' for j in range(structure.m_size))
        lines.append("  }")
        heads = [f"  n{i} -- m" for i in range(structure.n_size)]
    tails = [f"{j} " for j in range(structure.m_size)]
    styles = [
        f'[label="{r.color_id}", color="{_edge_color(r.color_id)}"];\n'
        for r in structure.relations
    ]
    pieces = np.empty((len(ends), 3), dtype=object)  # head, tail and style of each edge line
    pieces[:, 0] = np.array(heads, dtype=object)[ends[:, 0]]
    pieces[:, 1] = np.array(tails, dtype=object)[ends[:, 1]]
    pieces[:, 2] = np.array(styles, dtype=object)[owner]
    return "\n".join(lines) + "\n" + "".join(pieces.ravel().tolist()) + "}\n"
