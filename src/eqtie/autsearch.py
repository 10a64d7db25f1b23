"""Exact automorphism group of a sharing structure by stabilizer-chain search.

An automorphism is a pair of permutations (pi_N, pi_M), one per node part,
preserving the color set of every cell. Multi-edges are handled by treating
the full color set of a cell (its merged label) as the atomic edge label.

The N nodes, in increasing refinement-class size, form a base b_0..b_{n-1}.
Mapping N nodes one at a time keeps a candidate set per M node, and each N
assignment filters those sets by cell-label consistency; a complete pi_N lifts
to a pi_M exactly when the sets pair off. The levels are walked from the
deepest to the shallowest. At level l, every same-class image gamma of b_l
that is neither a fixed point b_0..b_{l-1} nor already in the orbit of b_l
under the generators found so far (all of which fix b_0..b_{l-1}) gets one
depth-first search for a single pi_N that fixes b_0..b_{l-1} and maps
b_l -> gamma. Each hit is a strong generator. Since every coset of the
stabilizer of b_0..b_l in the stabilizer of b_0..b_{l-1} is either found or
ruled out exhaustively, the exact order is |K| * prod_l |Delta_l|, where
Delta_l is the fundamental orbit of b_l and K is the kernel of automorphisms
with pi_N = id (any bijection between equal rows), with no Schreier-Sims pass
and no leaf counting.

Every result carries one generator table at any order, two int tables (pi_N
and pi_M rows): the kernel generators (a swap per set of equal M rows, and a
cycle past two rows), then the strong generators. It passes one setwise
check before the result is returned, and ``generators`` is its
``Permutation`` view. The elements are listed, as products of orbit
transversals times K, only when the order is at most ``element_cap``: the
listing is built, sorted and checked on the first read of ``_listed``,
``elements`` or ``pair_set()``, so a verdict that needs only |Aut| never
lists. ``search_cap`` bounds the search-tree nodes, i.e. the accepted N
assignments.

``certify_unique`` lists nothing either. Its witness at or under the cap is
the first row of the sorted listing outside the joint group, i.e. the
lexicographically first automorphism outside it; a depth-first walk of a
stabilizer chain of the generator table yields the automorphisms in that
order, one at a time, and stops at the first one the joint group rejects.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Iterator, Optional

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
    order: int
    # (pi_N rows, pi_M rows): kernel generators, then strong generators
    _generator_rows: tuple[np.ndarray, np.ndarray] = field(repr=False, compare=False)
    verdict: Optional[str] = None  # equal | proper_supergroup | incomparable
    joint_order: Optional[int] = None
    stats: Optional[SearchStats] = None
    _lister: Optional[Callable[[], tuple[np.ndarray, ...]]] = field(
        default=None, repr=False, compare=False
    )

    @cached_property
    def generators(self) -> tuple[tuple[Permutation, Permutation], ...]:
        return tuple(permcore._row_pairs(*self._generator_rows, perm))

    @cached_property
    def _listed(self) -> Optional[tuple[np.ndarray, ...]]:
        """(pi_N rows, pi_M rows) of every automorphism, built on first read."""
        return None if self._lister is None else self._lister()

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
    assignments) raise, and so does a negative ``element_cap``.
    """
    if element_cap < 0:
        raise AutSearchError("element_cap must be >= 0")
    n_size, m_size = s.n_size, s.m_size
    if n_size + m_size > node_budget:
        raise AutSearchError(
            f"node budget exceeded: {n_size} + {m_size} > {node_budget}; raise node_budget"
        )
    grid = s.color_matrix.grid.tolist()
    table = _refine(grid, n_size, m_size)

    class_size_n = {c: table.n_classes.count(c) for c in set(table.n_classes)}
    base = sorted(range(n_size), key=lambda i: (class_size_n[table.n_classes[i]], i))
    n_candidates = {
        i: [j for j in range(n_size) if table.n_classes[j] == table.n_classes[i]]
        for i in range(n_size)
    }
    m_class_members = {
        j: frozenset(k for k in range(m_size) if table.m_classes[k] == table.m_classes[j])
        for j in range(m_size)
    }

    nodes = 0
    leaves = 0
    orbit_pruned = 0

    def assign(i: int, j: int, cand_m: list[frozenset[int]]) -> Optional[list[frozenset[int]]]:
        """M candidate sets after mapping N node i to j, or None if one empties."""
        nonlocal nodes
        new_cand = []
        for mm in range(m_size):
            label = grid[mm][i]
            filtered = frozenset(m2 for m2 in cand_m[mm] if grid[m2][j] == label)
            if not filtered:
                return None
            new_cand.append(filtered)
        nodes += 1
        if nodes > search_cap:
            raise AutSearchError(f"search cap exceeded: more than {search_cap} search nodes")
        return new_cand

    def pairing(cand_m: list[frozenset[int]]) -> Optional[list[tuple[frozenset[int], list[int]]]]:
        """(targets, sources) groups when the M candidate sets pair off, else None."""
        nonlocal leaves
        leaves += 1
        # group source M nodes by their candidate target set; a lift is a
        # bijection inside each group, so they must pair off exactly
        groups: dict[frozenset[int], list[int]] = {}
        for mm in range(m_size):
            groups.setdefault(cand_m[mm], []).append(mm)
        covered: set[int] = set()
        for targets, sources in groups.items():
            if len(targets) != len(sources):
                return None
            covered |= targets
        if len(covered) != m_size:
            return None
        return sorted(groups.items(), key=lambda kv: kv[1])

    # the identity path: M candidates with b_0..b_{l-1} fixed, for every l
    prefix_cand = [[m_class_members[j] for j in range(m_size)]]
    for b in base:
        cand = assign(b, b, prefix_cand[-1])
        assert cand is not None, "the identity preserves every label"
        prefix_cand.append(cand)
    kernel_pairing = pairing(prefix_cand[-1])
    assert kernel_pairing is not None, "the identity always lifts"
    kernel_groups = [sources for _, sources in kernel_pairing]
    kernel_order = math.prod(math.factorial(len(g)) for g in kernel_groups)

    pi_n = list(range(n_size))
    used_n = [False] * n_size

    def search(level: int, cand_m: list[frozenset[int]]) -> Optional[tuple[int, ...]]:
        """First lift of the current partial pi_N, as images on N then M."""
        if level == n_size:
            groups = pairing(cand_m)
            if groups is None:
                return None
            lift = [0] * m_size
            for targets, sources in groups:
                for src, dst in zip(sources, sorted(targets)):
                    lift[src] = dst
            return tuple(pi_n) + tuple(n_size + v for v in lift)
        i = base[level]
        for j in n_candidates[i]:
            if used_n[j]:
                continue
            new_cand = assign(i, j, cand_m)
            if new_cand is None:
                continue
            pi_n[i] = j
            used_n[j] = True
            hit = search(level + 1, new_cand)
            used_n[j] = False
            if hit is not None:
                return hit
        return None

    # strong generators as permutations of N followed by M (M shifted by n_size);
    # walking deepest first, every generator found so far fixes b_0..b_{level-1}
    degree = n_size + m_size
    strong: list[tuple[int, ...]] = []
    transversals: list[dict[int, tuple[int, ...]]] = [{}] * n_size
    for level in range(n_size - 1, -1, -1):
        b = base[level]
        for k in range(n_size):
            used_n[k] = False
            pi_n[k] = k
        for k in range(level):
            used_n[base[k]] = True
        delta = permcore._transversal(b, strong, degree)
        for gamma in n_candidates[b]:
            if used_n[gamma] or gamma == b:
                continue
            if gamma in delta:
                orbit_pruned += 1
                continue
            cand = assign(b, gamma, prefix_cand[level])
            if cand is None:
                continue
            pi_n[b] = gamma
            used_n[gamma] = True
            hit = search(level + 1, cand)
            used_n[gamma] = False
            if hit is not None:
                strong.append(hit)
                delta = permcore._transversal(b, strong, degree)
        transversals[level] = delta
    base_orbits = tuple(len(delta) for delta in transversals)

    # kernel generators first: per set of equal M rows, a swap and, past two
    # rows, a cycle, as rows over N followed by M like the strong generators
    kernel_gens = []
    for group_nodes in kernel_groups:
        for cyc in [group_nodes[:2], group_nodes][:len(group_nodes) - 1]:
            row = list(range(degree))
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                row[n_size + a] = n_size + b
            kernel_gens.append(row)
    rows = np.array(kernel_gens + strong, dtype=np.intp).reshape(-1, degree)
    generator_rows = (rows[:, :n_size], rows[:, n_size:] - n_size)
    if not _preserves_structure(s, *generator_rows).all():
        raise AutSearchError("internal error: emitted pair fails the setwise check")
    total = kernel_order * math.prod(base_orbits)
    lister = partial(_listing, s, kernel_groups, transversals) if total <= element_cap else None

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
        stats=SearchStats(nodes, leaves, orbit_pruned, base_orbits, kernel_order),
        _lister=lister,
    )


def _listing(
    s: SharingStructure,
    kernel_groups: list[list[int]],
    transversals: list[dict[int, tuple[int, ...]]],
) -> tuple[np.ndarray, np.ndarray]:
    """Every automorphism as sorted (pi_N rows, pi_M rows), each pair setwise checked."""
    n_size, degree = s.n_size, s.n_size + s.m_size
    kernel = []
    for combo in itertools.product(*(itertools.permutations(g) for g in kernel_groups)):
        perm = list(range(degree))
        for sources, images in zip(kernel_groups, combo):
            for src, dst in zip(sources, images):
                perm[n_size + src] = n_size + dst
        kernel.append(perm)
    # every element is u_0 u_1 ... u_{n-1} k, one transversal element per level
    levels = [np.array(list(delta.values()), dtype=np.intp) for delta in transversals]
    listed = permcore._transversal_products(levels, np.array(kernel, dtype=np.intp))
    listed = listed[np.lexsort(listed.T[::-1])]
    pns, pms = listed[:, :n_size], listed[:, n_size:] - n_size
    if not _preserves_structure(s, pns, pms).all():
        raise AutSearchError("internal error: emitted pair fails the setwise check")
    return pns, pms


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
    ``element_cap``, found by ``_lex_walk`` without listing Aut, and the
    first generator outside it above the cap. Either way the pair passes the
    setwise check before it is returned.

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
    pns, pms = result._generator_rows
    rows = np.hstack([pns, pms + n_size])
    if result.order <= element_cap:
        chain = permcore._StabilizerChain(rows)
        if chain.order != result.order:
            raise AutSearchError(
                f"internal error: the generators' chain has order {chain.order}, "
                f"not {result.order}"
            )
        candidates = _lex_walk(chain)
    else:
        candidates = map(tuple, rows.tolist())
    row = next((row for row in candidates if not joint._holds(row)), None)
    witness = None
    if row is not None:
        pn, pm = row[:n_size], [v - n_size for v in row[n_size:]]
        if not _preserves_structure(s, [pn], [pm]).all():
            raise AutSearchError("internal error: emitted pair fails the setwise check")
        witness = (perm(pn), perm(pm))
    return Certification("supergroup", result.order, joint.joint_order, witness)


def _lex_walk(chain: permcore._StabilizerChain) -> Iterator[tuple[int, ...]]:
    """Every element of the chain's group as an image tuple, in lexicographic order.

    An element is u_0 u_1 ... u_{k-1}, one transversal element per level. The
    chain's base points increase and G_l fixes every point below b_l, so the
    elements under a prefix h = u_0 ... u_{l-1} agree below b_l and send b_l
    to h(x), x the orbit point of u_l. Visiting each orbit in order of h(x)
    therefore yields the elements in row order; the walk is depth-first and
    lazy, as deep as the chain is long.
    """
    # (x, u) per level: u maps the level's base point to x
    levels = [
        list(zip(reps[:, b].tolist(), map(tuple, reps.tolist())))
        for b, reps in zip(chain.base, chain.transversals)
    ]

    def walk(level: int, h: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if level == len(levels):
            yield h
            return
        for _, u in sorted(levels[level], key=lambda xu: h[xu[0]]):
            yield from walk(level + 1, permcore._compose_tuple(h, u))

    return walk(0, tuple(range(chain.degree)))
