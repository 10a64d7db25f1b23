"""Permutation algebra, finite permutation groups, and discrete group actions.

Conventions used across the package:

* a permutation of degree n is stored by its image array: ``p.images[i] = p(i)``,
  0-based;
* composition applies the right factor first: ``compose(p, q)(i) = p(q(i))``;
* the action on a vector moves values onto permuted slots: ``(p . x)[p(i)] = x[i]``,
  equivalently ``(p . x)[i] = x[p^-1(i)]``.

Group elements are enumerated breadth-first from the generating set, layers
sorted lexicographically by image array, so every construction downstream
(orbit ids, colors, exports) is reproducible.

Groups and actions are handled through their generators. Every order question
is answered by a deterministic stabilizer chain over the generator rows (Sims
1970; Seress, *Permutation Group Algorithms*, ch. 4): ``close_generators``
checks its cap against |G|, ``build_action`` accepts generator images exactly
when |<(s, s^X)>| = |G| (the images then define a homomorphism),
``JointAction.joint_order`` is |<(s^N, s^M)>|, and ``orbits`` and
``classify_action`` read only the generator columns (kernel size =
|G| / |image|; semi-regular when every orbit has |G| points). A chain level
works on tuples up to degree 32 and on int arrays above it, where the level's
Schreier generators are formed as one array per block. No element is listed
for these answers.

The read-only int tables are built on first use, from the chains. A group
keeps the chain ``close_generators`` built for its order. Its (order x
degree) element table lists the chain's transversal products, one gather per
level, sorted by their images of the base points: the base points increase,
so that is the order of the image arrays. Every product times every
generator is found by its images of the base points in one vectorised
lookup, which gives the Cayley right-multiplication table ``right[i, s]`` =
index of ``elements[i]`` composed with generator s. One walk over these ids
puts the rows in breadth-first order and records the Cayley tree: narrow
layers take one Python step per edge, wide ones one gather each. An action
keeps the chain of its pairs (s^X, s) that ``build_action`` checked (other
builders make it on first use); its (|G| x target_size) table lists that
chain on the target points and G's base points, and the same lookup puts
each image at its element's id. A natural action's table is G's own. A
joint action's element ids come from both tables. ``elements``, ``images``
and ``joint_elements`` are ``Permutation`` views built on first use.

A group is always <generators>: ``close_generators`` is the one way to build
one. An action is always its generator image rows: ``build_action`` is the one
place that checks rows from outside, and ``natural_action``,
``regular_action``, ``trivial_action`` and ``designs.replicate_action`` derive
rows that are images by construction. The element order, images and error
texts are those of a closure with one ``compose`` per product and a per-edge
action walk (``tests/oracles.py`` keeps both as references); rejected
generator images are walked along the Cayley tree to name the first failing
edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

import numpy as np

DEFAULT_ORDER_CAP = 10_000


class GroupError(ValueError):
    """Invalid permutation, inconsistent action, or non-generating set."""


@dataclass(frozen=True)
class Permutation:
    """A bijection of {0..n-1} in image-array form."""

    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(len(self.images))):
            raise GroupError(f"not a permutation of 0..{len(self.images) - 1}: {self.images!r}")

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.images))

    def __repr__(self):
        return f"Permutation({format_cycles(self)!r}, degree={self.degree})"


def perm(images: Iterable[int]) -> Permutation:
    return Permutation(tuple(images))


def identity(n: int) -> Permutation:
    return Permutation(tuple(range(n)))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """Return p after q: result(i) = p(q(i))."""
    if p.degree != q.degree:
        raise GroupError(f"degree mismatch: {p.degree} != {q.degree}")
    return Permutation(tuple(p.images[j] for j in q.images))


def inverse(p: Permutation) -> Permutation:
    inv = [0] * p.degree
    for i, v in enumerate(p.images):
        inv[v] = i
    return Permutation(tuple(inv))


# ---------------------------------------------------------------------------
# cycle notation


def format_cycles(p: Permutation, one_based: bool = False) -> str:
    """Render as a product of disjoint cycles, fixed points omitted: "(0 1 2)(4 5)"."""
    off = 1 if one_based else 0
    seen = [False] * p.degree
    parts = []
    for start in range(p.degree):
        if seen[start] or p.images[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        j = p.images[start]
        while j != start:
            cyc.append(j)
            seen[j] = True
            j = p.images[j]
        parts.append("(" + " ".join(str(c + off) for c in cyc) + ")")
    return "".join(parts) if parts else "()"


def parse_cycles(text: str, degree: int, one_based: bool = False) -> Permutation:
    """Parse cycle notation like "(0 1 2)(4 5)"; "()" or "" is the identity."""
    off = 1 if one_based else 0
    images = list(range(degree))
    touched = set()
    body = text.strip()
    if body in ("", "()"):
        return identity(degree)
    if not body.startswith("(") or not body.endswith(")"):
        raise GroupError(f"cycle notation must be parenthesized: {text!r}")
    for chunk in body[1:-1].split(")("):
        fields = chunk.replace(",", " ").split()
        if not fields:
            continue
        try:
            cyc = [int(f) - off for f in fields]
        except ValueError:
            raise GroupError(f"non-integer entry in cycle {chunk!r}") from None
        for c in cyc:
            if not 0 <= c < degree:
                raise GroupError(f"index {c + off} out of range for degree {degree} in {text!r}")
            if c in touched:
                raise GroupError(f"index {c + off} repeated in {text!r}")
            touched.add(c)
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            images[a] = b
    return Permutation(tuple(images))


# ---------------------------------------------------------------------------
# groups


def _image_table(rows, size: int) -> np.ndarray:
    """Check generator images as permutations of 0..size-1; return one read-only int table.

    ``rows`` holds ``Permutation`` objects or int sequences, or is an int
    array. A row of another length, a non-integer entry, an entry out of
    range or a repeated entry raises GroupError.
    """
    rows = [getattr(row, "images", row) for row in rows]
    wrong = [len(row) for row in rows if len(row) != size]
    if wrong:
        raise GroupError(f"generator image degree {wrong[0]} != {size}")
    table = np.array(rows).reshape(len(rows), size)
    if table.size and not np.issubdtype(table.dtype, np.integer):
        raise GroupError(f"generator image table must hold integers, not {table.dtype}")
    table = table.astype(np.intp, copy=False)
    bad = np.flatnonzero((np.sort(table, axis=1) != np.arange(size)).any(axis=1))
    if len(bad):
        raise GroupError(
            f"generator image {bad[0]} is not a permutation of 0..{size - 1}: "
            f"{table[bad[0]].tolist()}"
        )
    return _read_only(table)


class PermutationGroup:
    """A finite permutation group: generator rows and a stabilizer chain, tables built on first use.

    elements[0] is the identity; the rest follow breadth-first layers over the
    generators, each layer sorted by image array, so the element order is a
    deterministic function of the generator list. ``close_generators`` is the
    one constructor's caller: it takes the distinct generator rows, their
    element ids and the chain that gave the order. The element table, the
    Cayley table and tree, and the element index are built on first use.
    """

    def __init__(self, rows: np.ndarray, generator_ids: Sequence[int], chain: _StabilizerChain):
        self.degree = rows.shape[1]
        self.generator_ids = tuple(generator_ids)
        self.order = chain.order
        self._chain = chain
        # image rows of the generators, in ``generator_ids`` order
        self._generator_rows = _read_only(rows)
        # id sets ``symmetrize_genset`` has shown to be inverse-closed and generating
        self._generating_sets: set[frozenset[int]] = set()

    @cached_property
    def _closure(self) -> _Closure:
        """The tables of a generated group, listed from its chain and walked breadth-first.

        The chain's products sorted by their images of the base points are the
        elements in row order. Every product times every generator is found by
        those images in one lookup, and one walk over these ids puts the rows
        in breadth-first order and records the Cayley tree.
        """
        chain = self._chain
        base = np.array(chain.base, dtype=np.intp)
        listing = _transversal_products(chain.transversals, np.arange(self.degree)[None, :])
        lookup = _BaseLookup(listing, base, chain.orbit_lengths)
        # (p s)(b) = p(s(b)): a product's base images are columns s(b) of p's row
        columns = self._generator_rows[:, base]
        images = listing[:, columns].reshape(len(listing) * len(columns), len(base))
        right = lookup(images).reshape(len(listing), len(columns))[lookup.order]
        order, *tree = _breadth_first(right)
        ids = np.empty_like(order)
        ids[order] = np.arange(len(order))
        table = _read_only(listing[lookup.order[order]])
        return _Closure(table, _read_only(ids[right[order]]), tree, lookup, ids)

    @cached_property
    def _table(self) -> np.ndarray:
        return self._closure.table

    def _ids(self, base_images: np.ndarray) -> np.ndarray:
        """Element ids of the elements with these images of the chain's base points, one per row."""
        return self._closure.ids[self._closure.lookup(base_images)]

    @cached_property
    def elements(self) -> tuple[Permutation, ...]:
        return tuple(Permutation(tuple(row)) for row in self._table.tolist())

    @cached_property
    def _index(self) -> dict[tuple[int, ...], int]:
        return {row: i for i, row in enumerate(map(tuple, self._table.tolist()))}

    def index_of(self, p: Permutation) -> int:
        try:
            return self._index[p.images]
        except KeyError:
            raise GroupError(f"{p!r} is not an element of this group") from None

    def mul(self, i: int, j: int) -> int:
        """Index of elements[i] composed with elements[j] (j applied first)."""
        return self.index_of(compose(self.elements[i], self.elements[j]))

    def inv(self, i: int) -> int:
        # the inverse sends b to the position of b in the row: its base images
        return int(self._ids(np.argsort(self._table[i])[None, self._chain.base])[0])

    @cached_property
    def _cayley_right(self) -> np.ndarray:
        """right[i, t] = index of elements[i] composed with generators[t] (generator first)."""
        return self._closure.right

    @cached_property
    def _cayley_tree(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Breadth-first spanning tree of the Cayley graph from the identity.

        Per layer, (elements, parents, generator columns); an element follows
        the first edge reaching it in (parent position, generator) order.
        """
        ids = self._closure.ids
        child, parent, column, bounds = self._closure.tree
        return [
            (ids[child[lo:hi]], ids[parent[lo:hi]], column[lo:hi])
            for lo, hi in zip(bounds[1:], bounds[2:])
            if lo < hi
        ]

    @property
    def generators(self) -> tuple[Permutation, ...]:
        return tuple(perm(row) for row in self._generator_rows.tolist())

    def __eq__(self, other):
        """Equal generator rows, in order: an action's rows are images of exactly these."""
        return self is other or (
            isinstance(other, PermutationGroup)
            and np.array_equal(self._generator_rows, other._generator_rows)
        )

    def __hash__(self):
        return hash((self._generator_rows.shape, self._generator_rows.tobytes()))

    def __repr__(self):
        return f"PermutationGroup(degree={self.degree}, order={self.order})"


class _Closure(NamedTuple):
    """A group's tables: elements, Cayley right table and tree, and the lookup by base images.

    ``lookup`` gives positions in base-image order, and ``ids`` maps them to
    element ids. ``tree`` is ``_breadth_first``'s (child, parent, column,
    bounds) in those positions.
    """

    table: np.ndarray
    right: np.ndarray
    tree: list
    lookup: _BaseLookup
    ids: np.ndarray


def _read_only(table: np.ndarray) -> np.ndarray:
    table.flags.writeable = False
    return table


# Stabilizer chains. Up to this degree a level works on tuples, one C-level
# map per product; wider, on int arrays, one array op per step of a level.
_TUPLE_DEGREE = 32
# Schreier generators (rows x degree) formed per block on the array route
_SCHREIER_BLOCK_CELLS = 1 << 16


def _compose_tuple(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """p after q; ``itemgetter`` with one index returns the entry, not a tuple."""
    return itemgetter(*q)(p) if len(q) > 1 else tuple(p[i] for i in q)


def _inverse_tuple(p: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted(range(len(p)), key=p.__getitem__))


def _transversal(point: int, gens, degree: int) -> dict[int, tuple[int, ...]]:
    """Schreier tree of ``point``: one product of ``gens`` mapping it to each orbit point."""
    reps = {point: tuple(range(degree))}
    frontier = [point]
    while frontier:
        grown = []
        for p in frontier:
            for g in gens:
                q = g[p]
                if q not in reps:
                    reps[q] = _compose_tuple(g, reps[p])
                    grown.append(q)
        frontier = grown
    return reps


def _schreier_tuples(point: int, gens: list[tuple[int, ...]], reps) -> list[tuple[int, ...]]:
    """Distinct non-identity Schreier generators u_{g x}^-1 g u_x of the stabilizer of ``point``.

    ``reps`` is the Schreier tree of ``point`` under ``gens``.
    """
    inverses: dict[int, tuple[int, ...]] = {}
    found: dict[tuple[int, ...], None] = {}
    for u in reps.values():
        for g in gens:
            gu = _compose_tuple(g, u)
            x = gu[point]
            if gu != reps[x]:  # u_x^-1 g u is not the identity
                if x not in inverses:
                    inverses[x] = _inverse_tuple(reps[x])
                found[_compose_tuple(inverses[x], gu)] = None
    return list(found)


def _transversal_rows(
    point: int, gens: np.ndarray, room: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """``_transversal`` on int arrays: (slot, reps), reps[slot[x]] mapping ``point`` to x.

    slot[x] is -1 off the orbit. Each round applies the generators and their
    2^r-th powers to every rep so far, so a long cycle is covered in
    logarithmically many rounds; candidates are compared by the point they
    reach, and only the new reps are composed. Past ``room`` + 1 reps the
    orbit is cut short, so a capped chain never holds more reps than that.
    """
    count, degree = gens.shape
    slot = np.full(degree, -1, dtype=np.intp)
    slot[point] = 0
    reps = np.arange(degree, dtype=np.intp).reshape(1, degree)
    orbit = np.array([point])
    movers = jumps = gens
    while room is None or len(reps) <= room:
        heads = movers[:, orbit].T.ravel()  # k * |movers| + s: mover s after rep k
        points, first = np.unique(heads, return_index=True)
        new = slot[points] < 0
        if not new.any():
            break
        if room is not None:
            new &= np.cumsum(new) <= room + 1 - len(reps)
        rep, mover = np.divmod(first[new], len(movers))
        rows = movers.ravel()[(mover * degree)[:, None] + reps[rep]]  # mover(rep(i))
        slot[points[new]] = np.arange(len(reps), len(reps) + len(rows))
        reps = np.concatenate([reps, rows])
        orbit = np.concatenate([orbit, points[new]])
        jumps = jumps.ravel()[jumps + (np.arange(count) * degree)[:, None]]  # squared
        movers = np.concatenate([gens, jumps])
    return slot, reps


def _schreier_rows(point: int, gens: np.ndarray, slot: np.ndarray, reps: np.ndarray) -> np.ndarray:
    """``_schreier_tuples`` on int arrays, formed per block of reps."""
    count, degree = gens.shape
    flat = gens.ravel()
    block = max(1, _SCHREIER_BLOCK_CELLS // (count * degree))
    found = []
    for lo in range(0, len(reps), block):
        # row k * |S| + s is generator s after rep k, compared with the rep of its image of point
        gu = flat[(np.arange(count) * degree)[None, :, None] + reps[lo:lo + block, None, :]]
        gu = gu.reshape(-1, degree)
        u = reps[slot[gu[:, point]]]
        keep = (gu != u).any(axis=1)
        gu, u = gu[keep], u[keep]
        inverses = np.empty_like(u)
        inverses[np.arange(len(u))[:, None], u] = np.arange(degree)
        found.append(inverses[np.arange(len(u))[:, None], gu])  # u^-1(g(u(i)))
    return _distinct_rows(np.concatenate(found))


def _distinct_rows(table: np.ndarray) -> np.ndarray:
    """The rows of an image table at their first occurrences."""
    first: dict[bytes, int] = {}
    for pos, row in enumerate(table):
        first.setdefault(row.tobytes(), pos)
    return table[list(first.values())]


class _StabilizerChain:
    """A stabilizer chain of the group generated by int rows: base points and transversals.

    G_0 is the group of the generator rows. The generators of G_{l+1}, the
    pointwise stabilizer of b_0..b_l, are the distinct Schreier generators
    u_{g x}^-1 g u_x of level l (Schreier's lemma; Sims 1970, Seress,
    *Permutation Group Algorithms*, ch. 4), and b_l is the smallest point
    G_l moves, so the levels take the lower points first. ``trees[l]`` is the
    transversal of b_l under G_l, and |G| is the product of the orbit
    lengths. Past ``limit`` the chain stops: that product only grows, so it
    then exceeds ``limit`` without being the order.
    """

    def __init__(self, gens: np.ndarray, limit: int | None = None):
        self.degree = degree = gens.shape[1]
        self.narrow = degree <= _TUPLE_DEGREE
        level = gens[(gens != np.arange(degree)).any(axis=1)]
        if self.narrow:
            level = list(dict.fromkeys(map(tuple, level.tolist())))
        self.base: list[int] = []
        self.orbit_lengths: list[int] = []
        self.trees: list = []
        while len(level):
            if self.narrow:
                point = min(next(i for i, v in enumerate(g) if v != i) for g in level)
                tree = _transversal(point, level, degree)
            else:
                point = int(np.argmax((level != np.arange(degree)).any(axis=0)))
                room = None if limit is None else limit // self.order
                tree = _transversal_rows(point, level, room)
            self.base.append(point)
            self.trees.append(tree)
            self.orbit_lengths.append(len(tree) if self.narrow else len(tree[1]))
            if limit is not None and self.order > limit:
                return
            if self.narrow:
                level = _schreier_tuples(point, level, tree)
            else:
                level = _schreier_rows(point, level, *tree)

    @property
    def order(self) -> int:
        return math.prod(self.orbit_lengths)

    @cached_property
    def transversals(self) -> list[np.ndarray]:
        """Each level's transversal as a read-only int table, the identity first."""
        if self.narrow:
            return [
                _read_only(np.array(list(tree.values()), dtype=np.intp)) for tree in self.trees
            ]
        return [reps for _, reps in self.trees]

    def __contains__(self, images: tuple[int, ...]) -> bool:
        """Whether the permutation lies in the group: sift it through every level."""
        for point, tree in zip(self.base, self.trees):
            if self.narrow:
                u = tree.get(images[point])
            else:
                slot, reps = tree
                k = slot[images[point]]
                u = tuple(reps[k].tolist()) if k >= 0 else None
            if u is None:
                return False
            images = _compose_tuple(_inverse_tuple(u), images)  # u^-1 after h fixes b_l
        return images == tuple(range(self.degree))


def _group_order(gens: np.ndarray, limit: int | None = None) -> int:
    """|<gens>| for the generator rows ``gens``; past ``limit``, some value above it."""
    return _StabilizerChain(gens, limit).order


def _transversal_products(levels: Sequence[np.ndarray], rows: np.ndarray) -> np.ndarray:
    """Every product u_0 u_1 ... u_{k-1} r: one row u_l of each ``levels[l]``, then one of ``rows``.

    ``levels`` are a chain's transversals as int tables. A product is read
    only at the columns ``rows`` holds, so ``rows`` may hold chosen columns
    of the right factor, e.g. an identity row restricted to some points.
    One gather per level; u_0 varies slowest and the row of ``rows`` fastest.
    """
    for reps in reversed(levels):
        rows = reps[:, rows].reshape(-1, rows.shape[1])
    return rows


class _BaseLookup:
    """Sorts a listing of group elements by their images of a chain's base points, and finds rows.

    An element is fixed by its images of b_0..b_{k-1}. In the sorted order
    the elements with equal images of b_0..b_{l-1}, a coset of G_l, are
    |G_l| consecutive rows: a block. A run of levels a..c-1 is found at once
    by one integer key per row, the rank of its block at level a and then
    the images of b_a..b_{c-1} as base-degree digits, which sorts as the
    rows do. A run is as long as its keys fit in int64, so a group has one
    run unless both its degree and its base are large.
    """

    def __init__(self, listing: np.ndarray, base: np.ndarray, orbit_lengths: Sequence[int]):
        self.base = base
        degree = listing.shape[1]
        sizes = [math.prod(orbit_lengths[l:]) for l in range(len(base) + 1)]  # |G_l|
        spans, keys = [], []
        a = 0
        while a < len(base):
            c = a + 1
            while c < len(base) and sizes[0] // sizes[a] * degree ** (c + 1 - a) < 2**63:
                c += 1
            digits = np.array([degree**e for e in range(c - a - 1, -1, -1)], dtype=np.int64)
            spans.append((a, c, digits))
            keys.append(listing[:, base[a:c]] @ digits)
            a = c
        # ``order`` sorts the listing's rows by base images. Keys are distinct, so one
        # key needs no stable sort; a trivial group has one row and no key.
        self.order = np.lexsort(keys[::-1]) if len(keys) > 1 else np.argsort(keys[0] if keys else 0)
        self.runs = []
        for (a, c, digits), key in zip(spans, keys):
            scale, heads = degree ** (c - a), key[self.order[::sizes[c]]]  # each block's first row
            if a:  # the block ranks at level a, none before the first run
                heads += np.arange(len(heads)) // (sizes[a] // sizes[c]) * scale
            self.runs.append((a, c, digits, scale, heads))

    def __call__(self, images: np.ndarray) -> np.ndarray:
        """Sorted positions of the elements whose base images are the rows of ``images``."""
        rank = None
        for a, c, digits, scale, keys in self.runs:
            key = images[:, a:c] @ digits
            if a:
                key += rank * scale
            rank = keys.searchsorted(key)
        return np.zeros(len(images), dtype=np.intp) if rank is None else rank


# Layers with at most this many edges are walked one Python step per edge;
# wider layers take one gather each.
_NARROW_LAYER_EDGES = 64


def _breadth_first(right: np.ndarray) -> tuple[np.ndarray, ...]:
    """Walk a Cayley right table from element 0: (order, child, parent, column) and bounds.

    Positions bounds[l]..bounds[l + 1] of child, parent and column hold layer
    l of the breadth-first tree, the root alone at layer 0: an element joins
    by the first edge reaching it in (parent position, generator) order.
    ``order`` lists the elements layer by layer, each layer sorted.
    """
    n, count = right.shape
    seen = bytearray(n)
    seen[0] = 1
    entry = None  # entry[x]: the first edge of x's layer reaching x, made at the first wide layer
    child, parent, column = np.zeros((3, n), dtype=np.intp)
    heads, kids, dads, cols = map(memoryview, (right.ravel(), child, parent, column))
    bounds = [0, 1]
    lo, hi = 0, 1  # the layer being expanded
    while lo < hi:
        k = hi
        if (hi - lo) * count > _NARROW_LAYER_EDGES:  # one gather of the layer's edges
            if entry is None:
                reached, entry = np.frombuffer(seen, dtype=bool), np.full(n, n * count)
            edges = right[child[lo:hi]].ravel()  # edge e * |S| + s leaves layer[e] by generator s
            fresh = np.flatnonzero(~reached[edges])
            np.minimum.at(entry, edges[fresh], fresh)
            first = fresh[entry[edges[fresh]] == fresh]
            positions, columns = np.divmod(first, count)
            k += len(first)
            child[hi:k], parent[hi:k], column[hi:k] = edges[first], child[lo:hi][positions], columns
            reached[child[hi:k]] = True
            bounds.append(k)
            lo, hi = hi, k
        else:  # one Python step per edge, layer after layer while they stay narrow
            i = lo
            while lo < hi and (hi - lo) * count <= _NARROW_LAYER_EDGES:
                p = kids[i]
                for s in range(count):
                    h = heads[p * count + s]
                    if not seen[h]:
                        seen[h] = 1
                        kids[k], dads[k], cols[k] = h, p, s
                        k += 1
                i += 1
                if i == hi:
                    bounds.append(k)
                    lo, hi = hi, k
    order = child.copy()
    for lo, hi in zip(bounds, bounds[1:]):
        if hi - lo > 1:
            order[lo:hi].sort()
    return order, child, parent, column, bounds


def close_generators(gens: Sequence[Permutation], cap: int = DEFAULT_ORDER_CAP) -> PermutationGroup:
    """The group generated by a generator list; its elements are listed on first use.

    The order comes from a stabilizer chain, which the group keeps. The
    generator ids are those of the breadth-first closure: the identity is
    element 0, and the distinct non-identity generators make up layer 1,
    sorted by image array.

    Raises GroupError when the group has more than ``cap`` elements.
    """
    if not gens:
        raise GroupError("need at least one generator")
    if cap <= 0:
        raise GroupError("cap must be positive")
    degree = gens[0].degree
    for g in gens:
        if g.degree != degree:
            raise GroupError(f"degree mismatch among generators: {g.degree} != {degree}")

    # repeated generators add no products; the first occurrence fixes the order
    unique = list(dict.fromkeys(g.images for g in gens))
    rows = _read_only(np.array(unique, dtype=np.intp).reshape(len(unique), degree))
    chain = _StabilizerChain(rows, limit=cap)
    if chain.order > cap:
        raise GroupError(f"order cap exceeded: closure has more than {cap} elements; raise the cap")
    ident = tuple(range(degree))
    layer = sorted(row for row in unique if row != ident)
    gen_ids = [0 if row == ident else 1 + layer.index(row) for row in unique]
    return PermutationGroup(rows, gen_ids, chain)


# ---------------------------------------------------------------------------
# named generator families


def cyclic_generators(n: int) -> list[Permutation]:
    """Z_n: a single n-cycle i -> i+1 (mod n)."""
    if n < 1:
        raise GroupError("cyclic: n must be >= 1")
    return [Permutation(tuple((i + 1) % n for i in range(n)))]


def dihedral_generators(n: int) -> list[Permutation]:
    """D_n on n points: the n-cycle plus the reflection i -> -i (mod n)."""
    if n < 1:
        raise GroupError("dihedral: n must be >= 1")
    rot = Permutation(tuple((i + 1) % n for i in range(n)))
    ref = Permutation(tuple((n - i) % n for i in range(n)))
    return [rot, ref]


def symmetric_generators(n: int) -> list[Permutation]:
    """S_n: the adjacent transposition (0 1) plus the n-cycle."""
    if n < 1:
        raise GroupError("symmetric: n must be >= 1")
    if n == 1:
        return [identity(1)]
    swap = list(range(n))
    swap[0], swap[1] = 1, 0
    gens = [Permutation(tuple(swap))]
    if n > 2:
        gens.append(Permutation(tuple((i + 1) % n for i in range(n))))
    return gens


def wreath_generators(d: int, blocks: int) -> list[Permutation]:
    """S_d wr S_blocks acting on d*blocks points (blocks of size d).

    Within-block S_d generators on block 0, plus generators permuting whole
    blocks; the closure has order (d!)^blocks * blocks!.
    """
    if d < 1 or blocks < 1:
        raise GroupError("wreath: d and blocks must be >= 1")
    n = d * blocks
    gens: list[Permutation] = []
    for sg in symmetric_generators(d):
        if sg.is_identity():
            continue
        ext = list(range(n))
        ext[:d] = sg.images
        gens.append(Permutation(tuple(ext)))

    def block_map(bperm: Permutation) -> Permutation:
        imgs = [0] * n
        for b in range(blocks):
            for i in range(d):
                imgs[b * d + i] = bperm(b) * d + i
        return Permutation(tuple(imgs))

    for bg in symmetric_generators(blocks):
        if bg.is_identity():
            continue
        gens.append(block_map(bg))
    return gens or [identity(n)]


def direct_product_generators(*factors: Sequence[Permutation]) -> list[Permutation]:
    """Generators of a direct product acting on the disjoint union of the factors."""
    if not factors:
        raise GroupError("direct_product: need at least one factor")
    degrees = []
    for f in factors:
        if not f:
            raise GroupError("direct_product: empty factor generator list")
        degrees.append(f[0].degree)
    total = sum(degrees)
    gens = []
    offset = 0
    for f, deg in zip(factors, degrees):
        for g in f:
            imgs = list(range(total))
            for i in range(deg):
                imgs[offset + i] = offset + g(i)
            gens.append(Permutation(tuple(imgs)))
        offset += deg
    return gens


def named_group(kind: str, **params) -> list[Permutation]:
    """Dispatch on a family name; see the individual constructors for degrees."""
    if kind == "cyclic":
        return cyclic_generators(params["n"])
    if kind == "dihedral":
        return dihedral_generators(params["n"])
    if kind == "symmetric":
        return symmetric_generators(params["n"])
    if kind == "wreath":
        return wreath_generators(params["d"], params["blocks"])
    if kind == "direct_product":
        return direct_product_generators(*params["factors"])
    raise GroupError(f"unknown group kind {kind!r}")


# ---------------------------------------------------------------------------
# actions


@dataclass(frozen=True)
class OrbitPartition:
    """Orbits of an action: orbit_of[i] is the orbit id of point i."""

    orbit_of: tuple[int, ...]
    representatives: tuple[int, ...]

    @property
    def orbit_count(self) -> int:
        return len(self.representatives)

    def members(self, orbit_id: int) -> list[int]:
        return list(self._members[orbit_id])

    @cached_property
    def _members(self) -> tuple[list[int], ...]:
        """The points of each orbit in ascending order, grouped in one pass over ``orbit_of``."""
        members = tuple([] for _ in self.representatives)
        for i, o in enumerate(self.orbit_of):
            members[o].append(i)
        return members


@dataclass(frozen=True)
class ActionProfile:
    faithful: bool
    transitive: bool
    semi_regular: bool
    regular: bool
    kernel_size: int
    image_order: int


class GroupAction:
    """One permutation of the target set per group element, homomorphically.

    An action is its generator image rows, in ``group.generator_ids`` order,
    which its builders know to extend to a homomorphism: ``build_action``
    checks rows from outside, the others derive them. The pairs (s^X, s)
    generate a copy of G, the graph of the action; the (|G| x target_size)
    table lists that pair group's chain on the target points and G's base
    points, and puts each image at the id of its element. A natural action's
    table is G's element table. ``images`` is the table's ``Permutation``
    view, built on first use.
    """

    def __init__(self, group: PermutationGroup, target_size: int, generator_rows: np.ndarray):
        self.group = group
        self.target_size = target_size
        self._generator_rows = _read_only(generator_rows)

    @cached_property
    def _pair_chain(self) -> _StabilizerChain:
        """Stabilizer chain of the pairs (s^X, s): the target points, then G's points shifted."""
        pairs = np.hstack([self._generator_rows, self.group._generator_rows + self.target_size])
        return _StabilizerChain(pairs)

    @cached_property
    def _table(self) -> np.ndarray:
        group = self.group
        if self._generator_rows is group._generator_rows:  # the natural action
            return group._table
        size = self.target_size
        # the pair group's rows at the target points and at G's base points, shifted
        points = np.concatenate([np.arange(size), group._closure.lookup.base + size])
        listing = _transversal_products(self._pair_chain.transversals, points[None, :])
        table = np.empty((group.order, size), dtype=np.intp)
        table[group._ids(listing[:, size:] - size)] = listing[:, :size]
        return _read_only(table)

    @cached_property
    def _image_order(self) -> int:
        """Order of the image group, the permutations of the target set that G induces."""
        return _group_order(self._generator_rows)

    @cached_property
    def _orbits(self) -> OrbitPartition:
        """The orbit partition of the target set, from the generator rows."""
        low = _orbit_minima(self._generator_rows)
        reps = np.unique(low)
        return OrbitPartition(tuple(np.searchsorted(reps, low).tolist()), tuple(reps.tolist()))

    @cached_property
    def images(self) -> tuple[Permutation, ...]:
        return tuple(Permutation(tuple(row)) for row in self._table.tolist())

    def __repr__(self):
        return f"GroupAction(|G|={self.group.order}, target_size={self.target_size})"


def _tree_images(group: PermutationGroup, gen_rows: np.ndarray) -> np.ndarray:
    """Element images from generator images, each tree element's parent image then its generator's.

    The tree does not reach an identity generator: its row stays the identity.
    """
    img = np.tile(np.arange(gen_rows.shape[1], dtype=np.intp), (group.order, 1))
    for layer, parents, columns in group._cayley_tree:
        img[layer] = img[parents[:, None], gen_rows[columns]]
    return img


def _first_failing_edge(group: PermutationGroup, gen_table: np.ndarray) -> str:
    """The error text of images that are no homomorphism: the first Cayley edge they break.

    The images are carried along the Cayley tree, then img(x . g_s) ==
    img(x) . img(g_s) is tested on every edge; the first failing edge in
    breadth-first (element, generator) order names x . g_s. The tree does not
    reach an identity generator; its image is compared first, as the edge
    the walk would report first.
    """
    img = _tree_images(group, gen_table)
    if (img[list(group.generator_ids)] != gen_table).any():
        return "inconsistent action: element () receives two distinct images"
    right = group._cayley_right
    queue = np.concatenate([[0]] + [layer for layer, _, _ in group._cayley_tree])
    # bad[k, s]: the edge from the k-th element by generator s fails (one table-sized test each)
    bad = np.stack([(img[right[:, s]] != img[:, g]).any(axis=1) for s, g in enumerate(gen_table)])
    k, s = np.argwhere(bad.T[queue])[0]
    x = format_cycles(perm(group._table[right[queue[k], s]].tolist()))
    return f"inconsistent action: element {x} receives two distinct images"


def build_action(
    group: PermutationGroup, gen_images: Sequence[Permutation], target_size: int
) -> GroupAction:
    """The action of ``group`` extending the generator images, listed on first use.

    The one check of images from outside: ``gen_images`` holds ``Permutation``
    objects or int rows, or is an int array. The images define a homomorphism
    exactly when the pairs (s, s^X) generate a group no larger than G;
    rejected images raise GroupError naming the first Cayley edge they break.
    """
    gen_ids = group.generator_ids
    if len(gen_images) != len(gen_ids):
        raise GroupError(f"need {len(gen_ids)} generator images, got {len(gen_images)}")
    gen_table = _image_table(gen_images, target_size)
    # the target points come first, so the chain's levels on them measure the image
    pairs = np.hstack([gen_table, group._generator_rows + target_size])
    chain = _StabilizerChain(pairs, limit=group.order)
    if chain.order != group.order:
        raise GroupError(_first_failing_edge(group, gen_table))
    action = GroupAction(group, target_size, gen_table)
    action._pair_chain = chain
    action._image_order = math.prod(
        size for b, size in zip(chain.base, chain.orbit_lengths) if b < target_size
    )
    return action


def natural_action(group: PermutationGroup) -> GroupAction:
    """Each element acting by itself on {0..degree-1}."""
    return GroupAction(group, group.degree, group._generator_rows)


def regular_action(group: PermutationGroup) -> GroupAction:
    """The group acting on its own element indices by left multiplication."""
    table = [[group.mul(i, j) for j in range(group.order)] for i in range(group.order)]
    table = _read_only(np.array(table, dtype=np.intp))
    action = GroupAction(group, group.order, table[list(group.generator_ids)])
    action._table = table
    return action


def trivial_action(group: PermutationGroup, target_size: int) -> GroupAction:
    rows = np.tile(np.arange(target_size), (len(group.generator_ids), 1))
    return GroupAction(group, target_size, rows)


def _first_rows(table: np.ndarray) -> np.ndarray:
    """Ascending indices of each distinct row's first occurrence in an image table.

    Rows agreeing on a base (points only the kernel fixes all of) agree everywhere.
    """
    moved = table != table[0]  # row 0 is the identity's
    base, stabilizer = [], np.ones(len(table), dtype=bool)
    while (where := moved[stabilizer].any(axis=0)).any():
        base.append(int(np.argmax(where)))
        stabilizer &= ~moved[:, base[-1]]
    if stabilizer.sum() == 1:  # a trivial kernel: every row is distinct
        return np.arange(len(table))
    return np.sort(np.unique(table[:, base], axis=0, return_index=True)[1])


def _orbit_minima(gens: np.ndarray) -> np.ndarray:
    """low[x]: the smallest point in the orbit of x under the rows ``gens``.

    Each round gives every point the smallest label among its images and
    preimages, then jumps each label to its own label. Labels stay in the
    orbit and only fall, and they are stable exactly when constant on orbits.
    """
    low = np.arange(gens.shape[1])
    moves = np.concatenate([gens, np.argsort(gens, axis=1)])
    while True:
        nxt = np.minimum(low, low[moves].min(axis=0, initial=len(low)))
        nxt = nxt[nxt]
        if np.array_equal(nxt, low):
            return low
        low = nxt


def orbits(action: GroupAction) -> OrbitPartition:
    """Partition the target set into orbits; representative = smallest index.

    The partition is computed once per action and kept on it.
    """
    return action._orbits


def classify_action(action: GroupAction) -> ActionProfile:
    """Faithfulness, transitivity, and (semi-)regularity of an action.

    Semi-regularity is a property of G's action, not of its image: every point
    stabilizer in G is trivial, g.x = x => g = e, which by orbit-stabilizer
    holds exactly when every orbit has |G| points. A kernel element other than
    e fixes every point, so a non-faithful action is never semi-regular.
    Regular means transitive and semi-regular. The image order comes from the
    generator images' stabilizer chain; the kernel is G / image.
    """
    image_order = action._image_order
    kernel_size = action.group.order // image_order
    part = action._orbits
    orbit_sizes = np.bincount(part.orbit_of, minlength=part.orbit_count)
    transitive = part.orbit_count == 1
    semi_regular = kernel_size == 1 and bool((orbit_sizes == action.group.order).all())
    return ActionProfile(
        faithful=kernel_size == 1,
        transitive=transitive,
        semi_regular=semi_regular,
        regular=transitive and semi_regular,
        kernel_size=kernel_size,
        image_order=image_order,
    )


def faithful_image(action: GroupAction) -> tuple[PermutationGroup, ActionProfile]:
    """The deduplicated image group (the quotient by the kernel) plus the profile."""
    gen_imgs = [perm(row) for row in action._generator_rows.tolist()]
    image_group = close_generators(gen_imgs, cap=max(DEFAULT_ORDER_CAP, action.group.order))
    return image_group, classify_action(action)


def _row_pairs(n_rows: np.ndarray, m_rows: np.ndarray, view=tuple):
    """Row k of two int tables as the pair (view(pi_N images), view(pi_M images)), in row order."""
    return zip(map(view, n_rows.tolist()), map(view, m_rows.tolist()))


class JointAction:
    """Paired input/output actions of one reference group (a sub-direct product).

    ``joint_order`` is the order of the group generated by the generator
    pairs (s^N, s^M); the element ids of the distinct pairs are found in the
    two image tables on first use.
    """

    def __init__(self, n_action: GroupAction, m_action: GroupAction):
        if n_action.group != m_action.group:
            raise GroupError("reference-group mismatch between the two actions")
        self.group = n_action.group
        self.n_action = n_action
        self.m_action = m_action
        if self.group.order in (n_action._image_order, m_action._image_order):
            self.joint_order = self.group.order  # one side alone tells the elements apart
        else:
            self.joint_order = self._chain.order

    @cached_property
    def _chain(self) -> _StabilizerChain:
        """Stabilizer chain of the pairs on N followed by M."""
        n_rows, m_rows = self.n_action._generator_rows, self.m_action._generator_rows
        return _StabilizerChain(np.hstack([n_rows, m_rows + self.n_size]))

    def _holds(self, row: tuple[int, ...]) -> bool:
        """Whether a row on N then M (M shifted by n_size) is a joint element; nothing is listed."""
        return row in self._chain

    @cached_property
    def _element_ids(self) -> np.ndarray:
        """Element ids of the distinct (g^N, g^M) pairs, each at its first occurrence."""
        if self.joint_order == self.group.order:  # a faithful pairing: every element
            return np.arange(self.group.order)
        return _first_rows(np.hstack([self.n_action._table, self.m_action._table]))

    def _pairs(self, view=tuple):
        ids = self._element_ids
        return _row_pairs(self.n_action._table[ids], self.m_action._table[ids], view)

    @cached_property
    def joint_elements(self) -> tuple[tuple[Permutation, Permutation], ...]:
        return tuple(self._pairs(perm))

    @property
    def n_size(self) -> int:
        return self.n_action.target_size

    @property
    def m_size(self) -> int:
        return self.m_action.target_size

    def pair_set(self) -> set[tuple[tuple[int, ...], tuple[int, ...]]]:
        return set(self._pairs())

    def __repr__(self):
        return (
            f"JointAction(|G|={self.group.order}, n={self.n_size}, "
            f"m={self.m_size}, joint_order={self.joint_order})"
        )


def joint_action(n_action: GroupAction, m_action: GroupAction) -> JointAction:
    return JointAction(n_action, m_action)


def symmetrize_genset(group: PermutationGroup, element_ids: Iterable[int]) -> tuple[int, ...]:
    """Close a set of element ids under inverse and verify it generates the group.

    The subgroup's order comes from a stabilizer chain of the id rows; nothing
    of it is listed. A set shown to generate is kept on the group, so the
    same set is not checked twice.
    """
    ids = set(element_ids)
    for i in ids:
        if not 0 <= i < group.order:
            raise GroupError(f"element id {i} out of range for a group of order {group.order}")
    ids = frozenset(ids | {group.inv(i) for i in ids})
    if ids not in group._generating_sets:
        order = _group_order(group._table[sorted(ids)])
        if order != group.order:
            raise GroupError(
                f"A does not generate G: closure of A union A^-1 has order {order} < {group.order}"
            )
        group._generating_sets.add(ids)
    return tuple(sorted(ids))
