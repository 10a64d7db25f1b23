"""Exact automorphism group of a sharing structure by stabilizer-chain search.

An automorphism is a pair of permutations (pi_N, pi_M), one per node part,
preserving the color set of every cell. Multi-edges are handled by treating
the full color set of a cell (its merged label) as the atomic edge label.

The N nodes, in increasing refinement-class size, form a base b_0..b_{n-1}.
Mapping N nodes one at a time keeps a candidate set per M node as an int
bitmask (bit k: the node may still map to k), and each N assignment filters
those sets by cell-label consistency, one ``&`` per M node against a mask
built once per N node and label; a complete pi_N lifts to a pi_M exactly when
the sets pair off. The levels are walked from the deepest to the shallowest.
At level l, every same-class image gamma of b_l that is neither a fixed point
b_0..b_{l-1} nor already in the orbit of b_l under the generators found so
far (all of which fix b_0..b_{l-1}) gets one depth-first search for a single
pi_N that fixes b_0..b_{l-1} and maps b_l -> gamma; one routine tries the
images at every depth, with the taken N nodes as one int. Each hit is a
strong generator. That orbit is only a set of points, closed under the
generators' images: the search forms no product of generators and builds no
transversal. Since every coset of the stabilizer of b_0..b_l in the
stabilizer of b_0..b_{l-1} is either found or ruled out exhaustively, the
exact order is |K| * prod_l |Delta_l|, where Delta_l is the fundamental orbit
of b_l and K is the kernel of automorphisms with pi_N = id (any bijection
between equal rows), with no Schreier-Sims pass and no leaf counting.

Every result carries one generator table at any order, two int tables (pi_N
and pi_M rows): the kernel generators (a swap per set of equal M rows, and a
cycle past two rows), then the strong generators. It passes one setwise
check before the result is returned, and ``generators`` is its
``Permutation`` view. The group of that table, ``_group``, a
``permcore.PermutationGroup`` like G and the joint group, is built on its
first read and checked to have the search's order. The elements are listed
only when the order is at most ``element_cap``: the group's sorted element
table is setwise checked on the first read of ``_listed``, ``elements`` or
``pair_set()``, so a verdict that needs only |Aut| never lists. This module
reads none of a group's chain: order, membership, the table and the walk are
the group's own. ``search_cap`` bounds the search-tree nodes, i.e. the
accepted N assignments.

``certify_unique`` lists nothing either. Its witness at or under the cap is
the first row of the sorted listing outside the joint group, i.e. the
lexicographically first automorphism outside it; ``_group._lex_walk()``
yields the automorphisms in that order, one at a time, and stops at the
first one the joint group rejects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np
from numpy.typing import ArrayLike

from . import permcore
from .designs import SharingStructure
from .permcore import JointAction, Permutation, perm

DEFAULT_NODE_BUDGET = 24
DEFAULT_ELEMENT_CAP = 10_000
DEFAULT_SEARCH_CAP = 1_000_000

# cells per batch of the setwise check: bounds its scratch memory
_CHECK_BATCH_CELLS = 1 << 16


class AutSearchError(ValueError):
    """Structure too large for the configured budgets, or broken preconditions."""


@dataclass(frozen=True)
class ColorProfileTable:
    """Stable node classes after iterated signature refinement, per part."""

    n_classes: tuple[int, ...]
    m_classes: tuple[int, ...]
    rounds: int


@dataclass(frozen=True)
class SearchStats:
    """Deterministic counters of one automorphism search."""

    nodes: int  # accepted N assignments, the unit of ``search_cap``
    leaves: int  # complete pi_N whose M lift was tested
    orbit_pruned: int  # images of a base point skipped as already in its orbit
    base_orbits: tuple[int, ...]  # |Delta_l| per base level
    kernel_order: int  # automorphisms with pi_N = identity


@dataclass(frozen=True)
class AutomorphismResult:
    """|Aut|, its generator table and, with a reference, the verdict.

    ``_group`` is the ``PermutationGroup`` of the generator table, on N then M;
    it answers membership, the sorted listing and the lazy walk.
    """

    order: int
    # (pi_N rows, pi_M rows): kernel generators, then strong generators
    _generator_rows: tuple[np.ndarray, np.ndarray] = field(repr=False, compare=False)
    verdict: Optional[str] = None  # equal | proper_supergroup | incomparable
    joint_order: Optional[int] = None
    stats: Optional[SearchStats] = None
    # what the listing is checked against; None above ``element_cap``
    _structure: Optional[SharingStructure] = field(default=None, repr=False, compare=False)

    @cached_property
    def generators(self) -> tuple[tuple[Permutation, Permutation], ...]:
        return tuple(permcore._row_pairs(*self._generator_rows, perm))

    @cached_property
    def _group(self) -> permcore.PermutationGroup:
        """The group of the generator table on N then M (M shifted by n_size)."""
        pns, pms = self._generator_rows
        group = permcore._row_group(np.hstack([pns, pms + pns.shape[1]]))
        if group.order != self.order:
            raise AutSearchError(
                f"internal error: the generators' chain has order {group.order}, not {self.order}"
            )
        return group

    @cached_property
    def _listed(self) -> Optional[tuple[np.ndarray, ...]]:
        """Every automorphism as sorted (pi_N rows, pi_M rows), each pair setwise checked."""
        if self._structure is None:
            return None
        listed = self._group._table
        n_size = self._structure.n_size
        pns, pms = listed[:, :n_size], listed[:, n_size:] - n_size
        if not _preserves_structure(self._structure, pns, pms).all():
            raise AutSearchError("internal error: emitted pair fails the setwise check")
        return pns, pms

    def _pairs(self, view=tuple):
        if self._listed is None:
            raise AutSearchError("elements were not materialized (order above cap)")
        return permcore._row_pairs(*self._listed, view)

    @cached_property
    def elements(self) -> Optional[tuple[tuple[Permutation, Permutation], ...]]:
        return None if self._listed is None else tuple(self._pairs(perm))

    def pair_set(self) -> set[tuple[tuple[int, ...], tuple[int, ...]]]:
        return set(self._pairs())


def color_refine(s: SharingStructure) -> ColorProfileTable:
    """Refine node classes by multisets of (cell label, opposite class) to a fixed point."""
    return _refine(s.color_matrix.grid.tolist(), s.n_size, s.m_size)


def _refine(grid: list[list[int]], n_size: int, m_size: int) -> ColorProfileTable:
    """``color_refine`` on an already merged label grid (rows M, columns N)."""
    nc = [0] * n_size
    mc = [0] * m_size
    rounds = 0
    while True:
        n_sigs = [
            (nc[i], tuple(sorted((grid[j][i], mc[j]) for j in range(m_size))))
            for i in range(n_size)
        ]
        m_sigs = [
            (mc[j], tuple(sorted((grid[j][i], nc[i]) for i in range(n_size))))
            for j in range(m_size)
        ]
        n_ids = {sig: k for k, sig in enumerate(sorted(set(n_sigs)))}
        m_ids = {sig: k for k, sig in enumerate(sorted(set(m_sigs)))}
        new_nc = [n_ids[sig] for sig in n_sigs]
        new_mc = [m_ids[sig] for sig in m_sigs]
        rounds += 1
        # refinement only ever splits classes, so stable counts mean a fixed point
        if len(set(new_nc)) == len(set(nc)) and len(set(new_mc)) == len(set(mc)):
            return ColorProfileTable(tuple(new_nc), tuple(new_mc), rounds)
        nc, mc = new_nc, new_mc


def _preserves_structure(s: SharingStructure, pns: ArrayLike, pms: ArrayLike) -> np.ndarray:
    """Setwise relation preservation of every pair (pns[k], pms[k]) at once.

    Reads the structure's incidence array, built once from the relation edge
    lists and independent of the grid: pair k maps each edge set onto itself
    exactly when (pn(n), pm(m)) is an edge of a relation iff (n, m) is, for
    every cell.
    """
    inc = s._incidence
    pns = np.asarray(pns, dtype=np.intp)
    pms = np.asarray(pms, dtype=np.intp)
    ok = np.ones(len(pns), dtype=bool)
    batch = max(1, _CHECK_BATCH_CELLS // max(1, inc.size))
    for lo in range(0, len(pns), batch):
        moved = inc[:, pns[lo:lo + batch, :, None], pms[lo:lo + batch, None, :]]
        ok[lo:lo + batch] = (moved == inc[:, None]).all(axis=(0, 2, 3))
    return ok


def _orbit(point: int, gens: Sequence[tuple[int, ...]]) -> set[int]:
    """The orbit of ``point`` under the image rows ``gens``, as a set: no products are formed."""
    orbit = {point}
    frontier = [point]
    for p in frontier:  # the frontier grows as the orbit does
        for g in gens:
            if g[p] not in orbit:
                orbit.add(g[p])
                frontier.append(g[p])
    return orbit


def enumerate_automorphisms(
    s: SharingStructure,
    reference: Optional[JointAction] = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
    element_cap: int = DEFAULT_ELEMENT_CAP,
    search_cap: int = DEFAULT_SEARCH_CAP,
) -> AutomorphismResult:
    """Compute aut(structure) exactly by a stabilizer-chain search.

    Returns the exact order and a generating set (kernel generators, then
    strong generators) always, and the full element list, built and checked
    on first read, when the order is at most ``element_cap``. With a
    ``reference`` joint action the verdict states whether aut equals it,
    strictly contains it, or the reference does not even preserve the colors
    (incomparable). More than ``search_cap`` search nodes (accepted N
    assignments) raise, and so do a negative ``element_cap`` and a
    ``reference`` whose sizes are not the structure's.
    """
    if element_cap < 0:
        raise AutSearchError("element_cap must be >= 0")
    n_size, m_size = s.n_size, s.m_size
    if reference is not None and (reference.n_size, reference.m_size) != (n_size, m_size):
        raise AutSearchError(
            f"structure is {m_size} x {n_size} but the joint action targets "
            f"{reference.m_size} x {reference.n_size}"
        )
    if n_size + m_size > node_budget:
        raise AutSearchError(
            f"node budget exceeded: {n_size} + {m_size} > {node_budget}; raise node_budget"
        )
    grid = s.color_matrix.grid.tolist()
    table = _refine(grid, n_size, m_size)
    nc, mc = table.n_classes, table.m_classes

    base = sorted(range(n_size), key=lambda i: (nc.count(nc[i]), i))
    # same-class images of each base point, increasing; the leaf level tries none
    images_at = [[j for j in range(n_size) if nc[j] == nc[b]] for b in base] + [[]]
    # masks[j][label]: bit k set when cell (k, j) carries label
    masks: list[dict[int, int]] = [{} for _ in range(n_size)]
    for k, row in enumerate(grid):
        for j, label in enumerate(row):
            masks[j][label] = masks[j].get(label, 0) | 1 << k

    nodes = 0
    leaves = 0
    orbit_pruned = 0

    def assign(i: int, j: int, cand: list[int]) -> Optional[list[int]]:
        """M candidate masks after mapping N node i to j, or None if one empties.

        Bit k of ``cand[mm]`` says M node mm may still map to k; mapping i to j
        keeps the k with cell (k, j) labelled as cell (mm, i), one ``&`` per M node.
        """
        nonlocal nodes
        new_cand = []
        for mm, c in enumerate(cand):
            c &= masks[j].get(grid[mm][i], 0)
            if not c:
                return None
            new_cand.append(c)
        nodes += 1
        if nodes > search_cap:
            raise AutSearchError(f"search cap exceeded: more than {search_cap} search nodes")
        return new_cand

    def pairing(cand: list[int]) -> Optional[dict[int, list[int]]]:
        """Sources per target mask when the M candidate masks pair off, else None.

        A lift is a bijection inside each group of M nodes with one mask, so
        every mask must have as many bits as sources. No further check is
        needed: the mask of M node mm is the set of k in its class whose row
        agrees with mm's on the mapped N nodes, so two masks are equal or
        disjoint, and with the sizes matched they cover M.
        """
        nonlocal leaves
        leaves += 1
        groups: dict[int, list[int]] = {}
        for mm, c in enumerate(cand):
            groups.setdefault(c, []).append(mm)
        if any(t.bit_count() != len(sources) for t, sources in groups.items()):
            return None
        return groups

    # the identity path: M candidates with b_0..b_{l-1} fixed, for every l,
    # starting from one mask per M refinement class
    prefix_cand = [[sum(1 << k for k, c in enumerate(mc) if c == own) for own in mc]]
    for b in base:
        cand = assign(b, b, prefix_cand[-1])
        assert cand is not None, "the identity preserves every label"
        prefix_cand.append(cand)
    kernel_groups = pairing(prefix_cand[-1])
    assert kernel_groups is not None, "the identity always lifts"
    kernel_order = math.prod(math.factorial(len(g)) for g in kernel_groups.values())

    # levels are walked deepest first and a search at level l writes only
    # base[l:], so base[:l] still holds the identity when level l is walked
    pi_n = list(range(n_size))

    def search(level: int, cand: list[int], used: int, images: Sequence[int]) -> Optional[tuple]:
        """First lift of pi_N with base[level] sent into ``images``, as images on N then M.

        ``cand`` holds the M candidate masks of pi_N on base[:level] and ``used``
        one bit per N node it takes. The level loop passes its one gamma; deeper
        levels try each same-class image in increasing order. A complete pi_N
        sends each group's M sources, in order, to its mask's bits, lowest first.
        """
        if level == n_size:
            groups = pairing(cand)
            if groups is None:
                return None
            lift = [0] * m_size
            for targets, sources in groups.items():
                for src in sources:
                    low = targets & -targets
                    lift[src] = low.bit_length() - 1
                    targets ^= low
            return tuple(pi_n) + tuple(n_size + v for v in lift)
        i = base[level]
        for j in images:
            if used >> j & 1:
                continue
            new_cand = assign(i, j, cand)
            if new_cand is None:
                continue
            pi_n[i] = j
            hit = search(level + 1, new_cand, used | 1 << j, images_at[level + 1])
            if hit is not None:
                return hit
        return None

    # strong generators as permutations of N followed by M (M shifted by n_size);
    # walking deepest first, every generator found so far fixes b_0..b_{level-1}
    degree = n_size + m_size
    strong: list[tuple[int, ...]] = []
    base_orbits = [0] * n_size
    for level in range(n_size - 1, -1, -1):
        b = base[level]
        fixed = sum(1 << p for p in base[:level])
        delta = _orbit(b, strong)
        for gamma in images_at[level]:
            if fixed >> gamma & 1 or gamma == b:
                continue
            if gamma in delta:
                orbit_pruned += 1
                continue
            hit = search(level, prefix_cand[level], fixed, (gamma,))
            if hit is not None:
                strong.append(hit)
                delta = _orbit(b, strong)
        base_orbits[level] = len(delta)

    # kernel generators first: per set of equal M rows, a swap and, past two
    # rows, a cycle, as rows over N followed by M like the strong generators
    kernel_gens = []
    for group_nodes in kernel_groups.values():
        for cyc in [group_nodes[:2], group_nodes][:len(group_nodes) - 1]:
            row = list(range(degree))
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                row[n_size + a] = n_size + b
            kernel_gens.append(row)
    rows = np.array(kernel_gens + strong, dtype=np.intp).reshape(
        len(kernel_gens) + len(strong), degree
    )
    generator_rows = (rows[:, :n_size], rows[:, n_size:] - n_size)
    if not _preserves_structure(s, *generator_rows).all():
        raise AutSearchError("internal error: emitted pair fails the setwise check")
    total = kernel_order * math.prod(base_orbits)

    verdict = None
    joint_order = None
    if reference is not None:
        joint_order = reference.joint_order
        # automorphisms form a group: the generator pairs decide it for all pairs
        preserved = _preserves_structure(
            s, reference.n_action._generator_rows, reference.m_action._generator_rows
        ).all()
        if not preserved:
            verdict = "incomparable"
        elif total == joint_order:
            verdict = "equal"
        else:
            verdict = "proper_supergroup"

    return AutomorphismResult(
        order=total,
        _generator_rows=generator_rows,
        verdict=verdict,
        joint_order=joint_order,
        stats=SearchStats(nodes, leaves, orbit_pruned, tuple(base_orbits), kernel_order),
        _structure=s if total <= element_cap else None,
    )


@dataclass(frozen=True)
class Certification:
    verdict: str  # "unique" | "supergroup"
    aut_order: int
    joint_order: int
    witness: Optional[tuple[Permutation, Permutation]]


def certify_unique(
    s: SharingStructure,
    joint: JointAction,
    node_budget: int = DEFAULT_NODE_BUDGET,
    element_cap: int = DEFAULT_ELEMENT_CAP,
    search_cap: int = DEFAULT_SEARCH_CAP,
) -> Certification:
    """Certify unique equivariance: aut(structure) equals the joint group.

    The witness of a supergroup is the lexicographically first automorphism
    (N images, then M images) outside the joint group when |Aut| is at most
    ``element_cap``, found by the lazy walk of the result's group without
    listing Aut, and the first generator outside it above the cap. Either
    way membership is a sift through the joint group, and the pair passes
    the setwise check before it is returned.

    Raises when the joint elements do not preserve the colors, since every
    design in this package must embed its joint group (a broken upstream
    invariant, not a verdict).
    """
    result = enumerate_automorphisms(
        s, reference=joint, node_budget=node_budget,
        element_cap=element_cap, search_cap=search_cap,
    )
    if result.verdict == "incomparable":
        raise AutSearchError(
            "joint action does not preserve the structure colors; the design is broken"
        )
    if result.verdict == "equal":
        return Certification("unique", result.order, joint.joint_order, None)

    n_size = s.n_size
    if result.order <= element_cap:
        candidates = result._group._lex_walk()
    else:
        pns, pms = result._generator_rows
        candidates = map(tuple, np.hstack([pns, pms + n_size]).tolist())
    row = next((row for row in candidates if row not in joint._group), None)
    witness = None
    if row is not None:
        pn, pm = row[:n_size], [v - n_size for v in row[n_size:]]
        if not _preserves_structure(s, [pn], [pm]).all():
            raise AutSearchError("internal error: emitted pair fails the setwise check")
        witness = (perm(pn), perm(pm))
    return Certification("supergroup", result.order, joint.joint_order, witness)
