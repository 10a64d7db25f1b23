"""Compile dense and sparse parameter-sharing structures and merge them to matrix form.

A sharing structure is a colored multi-edged bipartite graph over the input
index set N and the output index set M: a list of relations, each an edge set
carrying one color. A relation's edges are one read-only (k, 2) intp array of
distinct (n, m) rows in ascending lexicographic order; the ``Relation``
constructor sorts and de-duplicates whatever pairs it is given, and every
consumer reads that array. Cells may carry several colors (multi-edges);
merging groups cells by their full color set and sums the tied parameters.

Color ids are 1-based and dense. Dense-design colors are numbered by each
orbit's first cell in the M x N grid read row-major (m outer, n inner); sparse
colors follow (n-orbit, m-orbit, generator) order. A dense design labels the
cell orbits from the two actions' generator columns alone, so it lists no
group element; a sparse edge set is one gather of the actions' image tables,
built on first use. No ``Permutation`` object is built. Merging codes each
cell's color set as one row and numbers the distinct rows with one stable
sort.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import permcore
from .permcore import GroupAction, JointAction


class DesignError(ValueError):
    """Malformed structure or invalid design input."""


@dataclass(frozen=True, eq=False)
class Relation:
    """One edge set with one color; provenance records how it was built.

    ``edges`` is given as a sequence of (n, m) pairs or a (k, 2) int array and
    kept as a read-only (k, 2) intp copy of its distinct rows, sorted by n,
    then m (rows already strictly increasing are not sorted again).
    Relations compare by identity.
    """

    color_id: int
    edges: np.ndarray
    provenance: Mapping[str, object]

    def __post_init__(self):
        edges = np.array(self.edges, dtype=np.intp)
        if edges.size == 0:
            edges = edges.reshape(0, 2)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise DesignError(f"relation {self.color_id}: edges must be (n, m) pairs")
        before, after = edges[:-1], edges[1:]
        less = before < after
        # rows strictly increasing by (n, m) are already sorted and distinct
        if not (less[:, 0] | ((before[:, 0] == after[:, 0]) & less[:, 1])).all():
            edges = edges[np.lexsort((edges[:, 1], edges[:, 0]))]
            distinct = np.ones(len(edges), dtype=bool)
            distinct[1:] = (edges[1:] != edges[:-1]).any(axis=1)
            edges = edges[distinct]
        edges.flags.writeable = False
        object.__setattr__(self, "edges", edges)


@dataclass(frozen=True)
class SharingStructure:
    n_size: int
    m_size: int
    relations: tuple[Relation, ...]
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        ends, _ = self._stacked_edges
        outside = ((ends < 0) | (ends >= (self.n_size, self.m_size))).any(axis=1)
        if outside.any():
            n, m = ends[outside.argmax()].tolist()
            raise DesignError(f"edge ({n}, {m}) outside {self.n_size} x {self.m_size}")

    @property
    def base_color_count(self) -> int:
        return len(self.relations)

    @functools.cached_property
    def _stacked_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Every relation's edge rows stacked in relation order, and each row's relation index."""
        ends = np.concatenate([np.empty((0, 2), dtype=np.intp)] + [r.edges for r in self.relations])
        owner = np.repeat(np.arange(len(self.relations)), [len(r.edges) for r in self.relations])
        return ends, owner

    @functools.cached_property
    def _incidence(self) -> np.ndarray:
        """Read-only (relations x N x M) bool array: [r, n, m] is set iff (n, m) is an edge of r."""
        inc = np.zeros((len(self.relations), self.n_size, self.m_size), dtype=bool)
        ends, owner = self._stacked_edges
        inc[owner, ends[:, 0], ends[:, 1]] = True
        inc.flags.writeable = False
        return inc

    @functools.cached_property
    def color_matrix(self) -> ColorMatrix:
        """``merge_colors(self)``, merged on first use and kept with the structure."""
        return merge_colors(self)


@dataclass(frozen=True)
class ColorMatrix:
    """Merged single-color M x N pattern plus the map back to base colors.

    grid[m][n] holds the merged color id (0 = no edge); two cells share a
    merged id iff their base color sets are identical and nonempty. The weight
    entry of a cell is the sum of theta over its base colors.
    """

    n_size: int
    m_size: int
    grid: np.ndarray
    merged_to_base: Mapping[int, tuple[int, ...]]
    base_color_count: int

    @property
    def merged_color_count(self) -> int:
        return len(self.merged_to_base)


@dataclass(frozen=True)
class ChannelSpec:
    k_in: int
    k_out: int

    def __post_init__(self):
        if self.k_in < 1 or self.k_out < 1:
            raise DesignError("channel counts must be positive")


def _cell_orbit(joint: JointAction, n: int, m: int) -> np.ndarray:
    """The cells (g.n, g.m) for every g in G, one row each: the orbit of (n, m) with repeats."""
    return np.stack([joint.n_action._table[:, n], joint.m_action._table[:, m]], axis=1)


def dense_design(joint: JointAction) -> SharingStructure:
    """One color per orbit of the joint action on the edge set N x M.

    The orbits partition the complete bipartite edge set, so the structure
    covers every cell exactly once. Cell (n, m) is point m * |N| + n, which
    each generator moves to g^M(m) * |N| + g^N(n); an orbit's color is the
    rank of its first cell in that row-major order.
    """
    n_size, m_size = joint.n_size, joint.m_size
    n_gens, m_gens = joint.n_action._generator_rows, joint.m_action._generator_rows
    cell_moves = (m_gens[:, :, None] * n_size + n_gens[:, None, :]).reshape(len(n_gens), -1)
    first = permcore._orbit_minima(cell_moves)  # first[c]: the orbit's first cell
    ms, ns = np.divmod(np.arange(len(first)), n_size)
    cells = np.lexsort((ms, ns, first))  # by orbit, each orbit's edges sorted by (n, m)
    starts = np.flatnonzero(np.diff(first[cells], prepend=-1))
    ends = np.stack([ns[cells], ms[cells]], axis=1)
    relations = []
    for k, (lo, hi) in enumerate(zip(starts.tolist(), starts[1:].tolist() + [len(cells)])):
        rep_m, rep_n = divmod(int(first[cells[lo]]), n_size)
        provenance = {"kind": "dense", "representative": (rep_n, rep_m)}
        relations.append(Relation(k + 1, ends[lo:hi], provenance))
    return SharingStructure(n_size, m_size, tuple(relations))


def sparse_design(joint: JointAction, genset: Sequence[int]) -> SharingStructure:
    """One color per (input orbit, output orbit, generator) triple.

    ``genset`` lists element ids of the reference group, which number its
    elements in the lexicographic order of their image arrays
    (``PermutationGroup.word_ids`` gives the ids of generator words); it must
    be symmetric (closed under inverse) and generating. Edges of relation
    (p, q, a) are {(g(a(n_p)), g(m_q))} over the whole group; relations may
    overlap.

    Uniqueness of the resulting symmetry group rests on semi-regular actions
    (every point stabilizer in G trivial, see ``permcore.classify_action``);
    the structure carries a warning for each side where that fails.
    """
    genset = list(genset)
    # raises on an id that is no integer in range, and on a set that does not generate
    ids = permcore.symmetrize_genset(joint.group, genset)
    missing = sorted(set(ids).difference(genset))
    if missing:
        raise DesignError(f"generating set is not symmetric: missing inverse element ids {missing}")

    n_orbits = permcore.orbits(joint.n_action)
    m_orbits = permcore.orbits(joint.m_action)
    relations = []
    for p, n_rep in enumerate(n_orbits.representatives):
        for q, m_rep in enumerate(m_orbits.representatives):
            for a in ids:
                start = int(joint.n_action._table[a, n_rep])
                relations.append(
                    Relation(
                        len(relations) + 1,
                        _cell_orbit(joint, start, m_rep),
                        {"kind": "sparse", "n_orbit": p, "m_orbit": q, "generator": a},
                    )
                )

    warnings = []
    if not permcore.classify_action(joint.n_action).semi_regular:
        warnings.append("input action is not semi-regular: uniqueness not guaranteed")
    if not permcore.classify_action(joint.m_action).semi_regular:
        warnings.append("output action is not semi-regular: uniqueness not guaranteed")
    return SharingStructure(joint.n_size, joint.m_size, tuple(relations), tuple(warnings))


def merge_colors(s: SharingStructure) -> ColorMatrix:
    """Collapse multi-edges: one merged color per distinct nonempty base color set.

    Each covered cell's color set, ascending and zero-padded, is one row of a
    code table (color ids are 1-based, so 0 pads). One stable sort of the rows
    groups equal sets with each set's first cell, in row-major (m outer, n
    inner) order, at its head, and the sets are numbered by that first cell.
    """
    grid = np.zeros((s.m_size, s.n_size), dtype=np.int64)
    ends, owner = s._stacked_edges
    if not len(ends):
        return ColorMatrix(s.n_size, s.m_size, grid, {}, s.base_color_count)
    colors = np.array([rel.color_id for rel in s.relations], dtype=np.int64)[owner]
    # one key per (cell, color) incidence, sorted by cell, then color
    span = int(colors.max()) + 1
    keys = np.sort((ends[:, 1] * s.n_size + ends[:, 0]) * span + colors)
    cell, color = np.divmod(keys[np.diff(keys, prepend=-1) != 0], span)
    starts = np.flatnonzero(np.diff(cell, prepend=-1))
    counts = np.diff(starts, append=len(cell))
    codes = np.zeros((len(starts), counts.max()), dtype=np.int64)
    owner = np.repeat(np.arange(len(starts)), counts)
    codes[owner, np.arange(len(cell)) - starts[owner]] = color
    order = np.lexsort(codes.T[::-1])
    head = np.diff(codes[order], axis=0, prepend=-1).any(axis=1)
    firsts = order[head]  # each set's first cell, sets in sorted order
    merged_id = np.empty(len(firsts), dtype=np.int64)
    merged_id[np.argsort(firsts)] = np.arange(1, len(firsts) + 1)
    grid.ravel()[cell[starts[order]]] = merged_id[np.cumsum(head) - 1]
    merged_to_base = {
        k + 1: tuple(c for c in code if c) for k, code in enumerate(codes[np.sort(firsts)].tolist())
    }
    return ColorMatrix(s.n_size, s.m_size, grid, merged_to_base, s.base_color_count)


def expand_channels(s: SharingStructure, ch: ChannelSpec) -> SharingStructure:
    """Replicate every base color once per (input channel, output channel) pair.

    Index layout is channel-major: input index = ki * n_size + n, output
    index = ko * m_size + m. With k_in = k_out = 1 the structure is returned
    unchanged.
    """
    if ch.k_in == 1 and ch.k_out == 1:
        return s
    relations = []
    for ko in range(ch.k_out):
        for ki in range(ch.k_in):
            for rel in s.relations:
                relations.append(
                    Relation(
                        len(relations) + 1,
                        rel.edges + (ki * s.n_size, ko * s.m_size),
                        {
                            "kind": "channel",
                            "base_color": rel.color_id,
                            "in_channel": ki,
                            "out_channel": ko,
                        },
                    )
                )
    return SharingStructure(
        s.n_size * ch.k_in, s.m_size * ch.k_out, tuple(relations), s.warnings
    )


def replicate_action(action: GroupAction, copies: int) -> GroupAction:
    """The channel-wise action: each element acts identically on every copy."""
    if copies == 1:
        return action
    size = action.target_size
    # copy c of point i is c * size + i, and g moves it to c * size + g(i)
    rows = np.hstack([action._generator_rows + c * size for c in range(copies)])
    return GroupAction(action.group, size * copies, rows)


def with_identity_relation(s: SharingStructure) -> SharingStructure:
    """Append the diagonal relation {(n, n)}, forcing pi_N = pi_M in any automorphism.

    The result is interpretable as a colored multi-edged digraph on N.
    """
    if s.n_size != s.m_size:
        raise DesignError(f"identity relation needs n_size == m_size, got {s.n_size} != {s.m_size}")
    diag = Relation(
        s.base_color_count + 1,
        np.arange(s.n_size).repeat(2).reshape(-1, 2),
        {"kind": "identity"},
    )
    return SharingStructure(s.n_size, s.m_size, s.relations + (diag,), s.warnings)
