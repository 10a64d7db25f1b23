"""Compile dense and sparse parameter-sharing structures and merge them to matrix form.

A sharing structure is a colored multi-edged bipartite graph over the input
index set N and the output index set M: a list of relations, each an edge set
carrying one color. A relation's edges are one read-only (k, 2) intp array of
distinct (n, m) rows in ascending lexicographic order; the ``Relation``
constructor sorts and de-duplicates whatever pairs it is given, and every
consumer reads that array. The builders here and in ``layer`` make no
``Relation`` one at a time: each builds one edge table and the row at which
each relation starts, and ``_from_table`` checks the whole table at once,
keeps it read-only as the structure's ``_stacked_edges`` and makes each
relation's edges a slice of it. Cells may carry several colors
(multi-edges); merging groups cells by their full color set and sums the
tied parameters.

Color ids are 1-based and dense. Dense-design colors are numbered by each
orbit's first cell in the M x N grid read row-major (m outer, n inner); sparse
colors follow (n-orbit, m-orbit, generator) order. A dense design labels the
cell orbits from the two actions' generator columns alone, so it lists no
group element: ``permcore._orbit_minima`` runs on the cell moves
(n, m) -> (g n, g m) and their inverses (g^-1 n, g^-1 m), both built from
the actions' rows, so no sort runs over the cells to invert them. It orders
its table by one argsort of one key per cell; a sparse design's table is
one gather of the actions' image tables, built on first use. No
``Permutation`` object is built. Merging codes each cell's color set as one
row and numbers the distinct rows with one stable sort.
"""

from __future__ import annotations

import functools
import itertools
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
        _check_bounds(*self._stacked_edges, self.n_size, self.m_size)

    @property
    def base_color_count(self) -> int:
        return len(self.relations)

    @functools.cached_property
    def _stacked_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Every relation's edge rows stacked in relation order, and each row's relation index.

        A structure built from one edge table (``_from_table``) keeps that table here.
        """
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


def _check_bounds(ends: np.ndarray, owner: np.ndarray, n_size: int, m_size: int) -> None:
    """Raise on an edge row outside n_size x m_size, negative endpoints included.

    The error names the first such row by (owner, n, m), which is the first
    in the stacked order of sorted relations.
    """
    if len(ends) and (ends.min() < 0 or ends[:, 0].max() >= n_size or ends[:, 1].max() >= m_size):
        outside = ((ends < 0) | (ends >= (n_size, m_size))).any(axis=1)
        rows = ends[outside]
        n, m = rows[np.lexsort((rows[:, 1], rows[:, 0], owner[outside]))[0]].tolist()
        raise DesignError(f"edge ({n}, {m}) outside {n_size} x {m_size}")


def _relation_starts(s: SharingStructure) -> np.ndarray:
    """The row of ``s._stacked_edges`` at which each relation starts."""
    return np.searchsorted(s._stacked_edges[1], np.arange(len(s.relations)))


def _from_table(
    n_size: int,
    m_size: int,
    edges,
    starts,
    provenances: Sequence[Mapping[str, object]],
    warnings: Sequence[str] = (),
) -> SharingStructure:
    """The structure whose relation k + 1 has the edges ``edges[starts[k]:starts[k + 1]]``.

    The path by which the design builders and the tied group convolution make
    a structure. The whole (rows x 2) table is checked at once, with every
    check that ``Relation`` and ``SharingStructure`` make for one relation:
    the rows are (n, m) pairs of integers within bounds, and each slice is
    sorted by (n, m) and de-duplicated where it needs it. In bounds, a row's
    key (slice, n, m) is one integer, so that takes one argsort. The checked
    table is a new read-only array, so writing to ``edges`` afterwards changes
    no relation. It is kept as the structure's ``_stacked_edges``, and each
    relation's edges are a read-only slice of it. ``provenances[k]`` is
    relation k + 1's provenance.
    """
    table = np.array(edges, dtype=np.intp)
    if table.size == 0:
        table = np.empty((0, 2), dtype=np.intp)
    if table.ndim != 2 or table.shape[1] != 2:
        raise DesignError("edge table: edges must be (n, m) pairs")
    starts = np.asarray(starts, dtype=np.intp)
    owner = np.repeat(np.arange(len(starts)), np.append(starts[1:], len(table)) - starts)
    _check_bounds(table, owner, n_size, m_size)
    key = (owner * n_size + table[:, 0]) * m_size + table[:, 1]
    # keys strictly increasing: every slice is sorted and distinct already
    if (key[1:] <= key[:-1]).any():
        order = np.argsort(key)
        order = order[np.diff(key[order], prepend=-1) != 0]
        table, owner = table[order], owner[order]
        starts = np.searchsorted(owner, np.arange(len(starts)))
    table.flags.writeable = False
    owner.flags.writeable = False
    bounds = [*starts.tolist(), len(table)]
    # the table is checked already: set the fields without a second check or copy
    relations = []
    for k, provenance in enumerate(provenances):
        relation = object.__new__(Relation)
        relation.__dict__.update(
            color_id=k + 1, edges=table[bounds[k]:bounds[k + 1]], provenance=provenance
        )
        relations.append(relation)
    s = object.__new__(SharingStructure)
    s.__dict__.update(n_size=n_size, m_size=m_size, relations=tuple(relations),
                      warnings=tuple(warnings), _stacked_edges=(table, owner))
    return s


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

    @functools.cached_property
    def _base_runs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The merged ids; their base color ids, each run headed by a 0, flat; each run's start.

        ``layer.materialize`` reduces these runs; a 0 indexes the 0 it puts before theta.
        """
        runs = [(0, *base) for base in self.merged_to_base.values()]
        lengths = np.array([len(run) for run in runs], dtype=np.intp)
        flat = np.fromiter(itertools.chain.from_iterable(runs), dtype=np.intp, count=lengths.sum())
        merged = np.fromiter(self.merged_to_base, dtype=np.intp, count=len(runs))
        return merged, flat, np.cumsum(lengths) - lengths


@dataclass(frozen=True)
class ChannelSpec:
    k_in: int
    k_out: int

    def __post_init__(self):
        object.__setattr__(self, "k_in", _channel_count(self.k_in))
        object.__setattr__(self, "k_out", _channel_count(self.k_out))


def _channel_count(count) -> int:
    """A channel count read as an integer (a bool is none), which must be positive."""
    value = permcore._as_int(count)
    if value is None:
        raise DesignError(f"channel count {count!r} is not an integer")
    if value < 1:
        raise DesignError("channel counts must be positive")
    return value


def dense_design(joint: JointAction) -> SharingStructure:
    """One color per orbit of the joint action on the edge set N x M.

    The orbits partition the complete bipartite edge set, so the structure
    covers every cell exactly once. Cell (n, m) is point m * |N| + n, which
    each generator moves to g^M(m) * |N| + g^N(n); an orbit's color is the
    rank of its first cell in that row-major order.
    """
    n_size, m_size = joint.n_size, joint.m_size
    n_gens, m_gens = joint.n_action._generator_rows, joint.m_action._generator_rows

    def cell_moves(n_rows, m_rows):
        return (m_rows[:, :, None] * n_size + n_rows[:, None, :]).reshape(len(n_rows), -1)

    # the inverse of (n, m) -> (g n, g m) is (g^-1 n, g^-1 m): no sort over the cells
    inverses = cell_moves(np.argsort(n_gens, axis=1), np.argsort(m_gens, axis=1))
    first = permcore._orbit_minima(cell_moves(n_gens, m_gens), inverses)  # the orbit's first cell
    size = len(first)
    cell = np.arange(size)
    ms, ns = np.divmod(cell, n_size)
    # by orbit, each orbit's edges sorted by (n, m): one key per cell, all distinct
    cells = np.argsort(first * size + ns * m_size + ms)
    reps = np.flatnonzero(first == cell)  # each orbit's first cell, in color order
    starts = np.searchsorted(first[cells], reps)
    rep_m, rep_n = np.divmod(reps, n_size)
    provenances = [
        {"kind": "dense", "representative": rep} for rep in zip(rep_n.tolist(), rep_m.tolist())
    ]
    return _from_table(
        n_size, m_size, np.stack([ns[cells], ms[cells]], axis=1), starts, provenances
    )


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

    n_reps = permcore.orbits(joint.n_action).representatives
    m_reps = permcore.orbits(joint.m_action).representatives
    n_table, m_table = joint.n_action._table, joint.m_action._table
    # relation (p, q, a), in that order, is the orbit of the cell (a(n_p), m_q): the
    # rows (g(a(n_p)), g(m_q)) over every g, one column of each image table
    edges = np.empty((len(n_reps), len(m_reps), len(ids), len(n_table), 2), dtype=np.intp)
    edges[..., 0] = n_table.T[n_table[np.ix_(ids, n_reps)].T][:, None]  # [p, a, g]: g(a(n_p))
    edges[..., 1] = m_table.T[list(m_reps)][:, None, :]  # [q, g]: g(m_q)
    starts = np.arange(len(n_reps) * len(m_reps) * len(ids)) * len(n_table)
    provenances = [
        {"kind": "sparse", "n_orbit": p, "m_orbit": q, "generator": a}
        for p in range(len(n_reps))
        for q in range(len(m_reps))
        for a in ids
    ]

    warnings = []
    if not permcore.classify_action(joint.n_action).semi_regular:
        warnings.append("input action is not semi-regular: uniqueness not guaranteed")
    if not permcore.classify_action(joint.m_action).semi_regular:
        warnings.append("output action is not semi-regular: uniqueness not guaranteed")
    return _from_table(
        joint.n_size, joint.m_size, edges.reshape(-1, 2), starts, provenances, warnings
    )


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
    ends, _ = s._stacked_edges
    # copy (ko, ki) of the table, in that order, moved by (ki * n_size, ko * m_size)
    out_channel, in_channel = np.divmod(np.arange(ch.k_out * ch.k_in), ch.k_in)
    shifts = np.stack([in_channel * s.n_size, out_channel * s.m_size], axis=1)
    starts = np.arange(len(shifts))[:, None] * len(ends) + _relation_starts(s)
    provenances = [
        {"kind": "channel", "base_color": rel.color_id, "in_channel": ki, "out_channel": ko}
        for ko in range(ch.k_out)
        for ki in range(ch.k_in)
        for rel in s.relations
    ]
    return _from_table(
        s.n_size * ch.k_in,
        s.m_size * ch.k_out,
        (ends + shifts[:, None, :]).reshape(-1, 2),
        starts.ravel(),
        provenances,
        s.warnings,
    )


def replicate_action(action: GroupAction, copies: int) -> GroupAction:
    """The channel-wise action: each element acts identically on every copy."""
    copies = _channel_count(copies)
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
    ends, _ = s._stacked_edges
    diagonal = np.arange(s.n_size).repeat(2).reshape(-1, 2)
    return _from_table(
        s.n_size,
        s.m_size,
        np.concatenate([ends, diagonal]),
        np.append(_relation_starts(s), len(ends)),
        [rel.provenance for rel in s.relations] + [{"kind": "identity"}],
        s.warnings,
    )
