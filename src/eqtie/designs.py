"""Compile dense and sparse parameter-sharing structures and merge them to matrix form.

A sharing structure is a colored multi-edged bipartite graph over the input
index set N and the output index set M: a list of relations, each an edge set
carrying one color. Cells may carry several colors (multi-edges); merging
groups cells by their full color set and sums the tied parameters.

Color ids are 1-based and dense. Dense-design colors are numbered by
first occurrence scanning the M x N grid row-major (m outer, n inner); sparse
colors follow (n-orbit, m-orbit, generator) order. Both are deterministic
because the group element order itself is. Each edge set is one gather of
the actions' image tables; no ``Permutation`` object is built.
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


@dataclass(frozen=True)
class Relation:
    """One edge set with one color; provenance records how it was built."""

    color_id: int
    edges: frozenset[tuple[int, int]]
    provenance: Mapping[str, object]


@dataclass(frozen=True)
class SharingStructure:
    n_size: int
    m_size: int
    relations: tuple[Relation, ...]
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        for rel in self.relations:
            for n, m in rel.edges:
                if not (0 <= n < self.n_size and 0 <= m < self.m_size):
                    raise DesignError(f"edge ({n}, {m}) outside {self.n_size} x {self.m_size}")

    @property
    def base_color_count(self) -> int:
        return len(self.relations)

    @functools.cached_property
    def color_matrix(self) -> ColorMatrix:
        """``merge_colors(self)``, merged on first use and kept with the structure."""
        return merge_colors(self)

    def alpha(self, n: int, m: int) -> frozenset[int]:
        """The set of color ids whose edges contain (n, m)."""
        return frozenset(r.color_id for r in self.relations if (n, m) in r.edges)


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

    def alpha(self, n: int, m: int) -> frozenset[int]:
        mid = int(self.grid[m, n])
        return frozenset(self.merged_to_base[mid]) if mid else frozenset()

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


def _cell_orbit(joint: JointAction, n: int, m: int) -> frozenset[tuple[int, int]]:
    """The orbit {(g.n, g.m) : g in G} of the cell (n, m)."""
    n_table, m_table = joint.n_action._table, joint.m_action._table
    return frozenset(zip(n_table[:, n].tolist(), m_table[:, m].tolist()))


def dense_design(joint: JointAction) -> SharingStructure:
    """One color per orbit of the joint action on the edge set N x M.

    The orbits partition the complete bipartite edge set, so the structure
    covers every cell exactly once.
    """
    covered: set[tuple[int, int]] = set()
    relations = []
    for m in range(joint.m_size):
        for n in range(joint.n_size):
            if (n, m) not in covered:
                orbit = _cell_orbit(joint, n, m)
                covered |= orbit
                provenance = {"kind": "dense", "representative": (n, m)}
                relations.append(Relation(len(relations) + 1, orbit, provenance))
    return SharingStructure(joint.n_size, joint.m_size, tuple(relations))


def sparse_design(joint: JointAction, genset: Sequence[int]) -> SharingStructure:
    """One color per (input orbit, output orbit, generator) triple.

    ``genset`` lists element ids of the reference group; it must be symmetric
    (closed under inverse) and generating. Edges of relation (p, q, a) are
    {(g(a(n_p)), g(m_q))} over the whole group; relations may overlap.

    Uniqueness of the resulting symmetry group rests on semi-regular actions
    (every point stabilizer in G trivial, see ``permcore.classify_action``);
    the structure carries a warning for each side where that fails.
    """
    ids = sorted(set(genset))
    symmetric = permcore.symmetrize_genset(joint.group, ids)  # raises if non-generating
    if tuple(ids) != symmetric:
        missing = sorted(set(symmetric) - set(ids))
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
    """Collapse multi-edges: one merged color per distinct nonempty base color set."""
    cell_sets = {}
    for rel in s.relations:
        for n, m in rel.edges:
            cell_sets.setdefault((n, m), set()).add(rel.color_id)

    grid = np.zeros((s.m_size, s.n_size), dtype=np.int64)
    merged_ids: dict[tuple[int, ...], int] = {}
    merged_to_base: dict[int, tuple[int, ...]] = {}
    for m in range(s.m_size):
        for n in range(s.n_size):
            base = cell_sets.get((n, m))
            if not base:
                continue
            key = tuple(sorted(base))
            if key not in merged_ids:
                merged_ids[key] = len(merged_ids) + 1
                merged_to_base[merged_ids[key]] = key
            grid[m, n] = merged_ids[key]
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
                edges = frozenset(
                    (ki * s.n_size + n, ko * s.m_size + m) for n, m in rel.edges
                )
                relations.append(
                    Relation(
                        len(relations) + 1,
                        edges,
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
    table = np.hstack([action._table + c * size for c in range(copies)])
    return GroupAction(action.group, size * copies, table)


def with_identity_relation(s: SharingStructure) -> SharingStructure:
    """Append the diagonal relation {(n, n)}, forcing pi_N = pi_M in any automorphism.

    The result is interpretable as a colored multi-edged digraph on N.
    """
    if s.n_size != s.m_size:
        raise DesignError(f"identity relation needs n_size == m_size, got {s.n_size} != {s.m_size}")
    diag = Relation(
        s.base_color_count + 1,
        frozenset((i, i) for i in range(s.n_size)),
        {"kind": "identity"},
    )
    return SharingStructure(s.n_size, s.m_size, s.relations + (diag,), s.warnings)
