"""Permutation algebra, finite permutation groups, and discrete group actions.

Conventions used across the package:

* a permutation of degree n is stored by its image array: ``p.images[i] = p(i)``,
  0-based;
* composition applies the right factor first: ``compose(p, q)(i) = p(q(i))``;
* the action on a vector moves values onto permuted slots: ``(p . x)[p(i)] = x[i]``,
  equivalently ``(p . x)[i] = x[p^-1(i)]``.

Group elements are numbered in the lexicographic order of their image
arrays, the identity first. The order depends on the group alone, not on its
generator list, so every construction downstream (orbit ids, colors, exports)
is reproducible.

Groups and actions are handled through their generators. Every group the
package forms is a ``PermutationGroup`` built by ``_row_group`` from int image
rows, the one place a deterministic stabilizer chain is built (Sims 1970;
Seress, *Permutation Group Algorithms*, ch. 4): G itself, whose order
``close_generators`` checks against its cap; an action's graph, the pairs
(s^X, s), which ``build_action`` accepts exactly when its order is |G| (the
images then define a homomorphism); the joint group of the pairs (s^N, s^M),
whose order is ``JointAction.joint_order``; an action's image group, whose
order gives the kernel (|G| / |image|); the subgroup a genset generates; and
``autsearch``'s Aut. ``orbits`` and ``classify_action`` read only the
generator columns (semi-regular when every orbit has |G| points). Up to
degree 256, the width of a ``bytes.translate`` table, a chain keeps each
permutation as a ``bytes`` row: a product is one ``translate`` call, an
inverse one ``bytes.maketrans`` table, and a level's transversal one
``np.frombuffer``. Above 256 a level works on int arrays, and its Schreier
generators are formed as one array per block. No element is listed for these
answers.

A group answers everything else from its chain: membership is a sift
(``in``), ``_products`` reads every element at chosen points, one gather per
level, and the read-only (order x degree) table sorts those products by their
images of the base points. The base points increase, so that is the order of
the image arrays; ``_lex_walk`` yields the elements in the same order one at
a time, listing none. An element's key reads its base images as the digits
of one base-degree number (an int64 while degree^k < 2^63, a Python int
past that), so one ``searchsorted`` over the sorted keys finds any
element's id. An action's (|G| x target_size) table reads its graph's
products at the target points and G's base points, and the same lookup puts
each image at its element's id; the graph ``build_action`` checked is used
for that and then released. A natural action's table is G's own. A joint
action that tells fewer elements apart than G has its element ids from both
tables, one distinct row per value on its group's base. Actions and joint
actions are int tables only; a group's ``generators`` and ``elements`` are
its ``Permutation`` views, built on first use.

A group is always <generators>: ``close_generators`` is the one public way to
build one. An action is always its generator image rows: ``build_action`` is the one
place that checks rows from outside, and ``natural_action``,
``regular_action``, ``trivial_action`` and ``designs.replicate_action`` derive
rows that are images by construction. The elements are those of a closure
with one ``compose`` per product, sorted, and the images and error texts
those of a per-edge action walk (``tests/oracles.py`` keeps both as
references); rejected generator images take that walk, a FIFO walk from the
identity keyed by element images, which stops at the first failing edge and
names it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from operator import index, itemgetter
from typing import Iterable, Iterator, Sequence

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

    Every group in the package is one: G, an action's graph and image, the
    joint group, a genset's subgroup and Aut. ``_row_group`` is the one
    constructor's caller: it takes the distinct generator rows and builds the
    chain that gives the order. Membership is the chain's sift, and the
    element table, sorted, its lazy walk ``_lex_walk`` and ``_products`` at
    chosen points are read off the chain. Element ids follow the
    lexicographic order of the image arrays, so elements[0] is the identity
    and the order depends on the group alone, not on its generator list. The
    element table, the element index and ``generator_ids`` are built on first
    use.
    """

    def __init__(self, rows: np.ndarray, chain: _StabilizerChain):
        self.degree = rows.shape[1]
        self.order = chain.order
        self._chain = chain
        # image rows of the distinct generators, in ``generators`` order
        self._generator_rows = _read_only(rows)

    def __contains__(self, images: tuple[int, ...]) -> bool:
        """Whether the permutation with these images lies in the group: the chain's sift."""
        return images in self._chain

    def _products(self, points: np.ndarray) -> np.ndarray:
        """Every element's images of ``points``, one row each, unsorted.

        Row k is the product u_0 u_1 ... u_{k-1} of one transversal element
        per level, u_0 varying slowest, read only at ``points``: one gather
        per level.
        """
        rows = points[None, :]
        for reps in reversed(self._chain.transversals):
            rows = reps[:, rows].reshape(-1, rows.shape[1])
        return rows

    @cached_property
    def _closure(self) -> _BaseLookup:
        """The lookup holding the element table: the chain's products sorted by base images.

        The base points increase, and two elements that agree on b_0..b_{l-1}
        agree on every point below b_l, so that sort is the lexicographic
        order of the image arrays. The same keys find any element's row.
        """
        listing = self._products(np.arange(self.degree))
        return _BaseLookup(listing, np.array(self._chain.base, dtype=np.intp))

    def _lex_walk(self) -> Iterator[tuple[int, ...]]:
        """Every element as an image tuple in ``_table``'s order, one at a time, listing none.

        Under a prefix h = u_0 ... u_{l-1} the elements agree below b_l, as in
        ``_closure``, and send b_l to h(x), x the orbit point of u_l. Visiting
        each orbit in order of h(x) therefore yields the elements in row
        order; the walk is depth-first and lazy, as deep as the chain is long.
        """
        chain = self._chain
        # (b_l, the transversal as tuples) per level: h u sends b_l to h(u(b_l))
        levels = list(zip(chain.base, [list(map(tuple, r.tolist())) for r in chain.transversals]))

        def walk(level: int, h: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
            if level == len(levels):
                yield h
                return
            b, reps = levels[level]
            for u in sorted(reps, key=lambda u: h[u[b]]):
                yield from walk(level + 1, _compose_tuple(h, u))

        return walk(0, tuple(range(self.degree)))

    @cached_property
    def _table(self) -> np.ndarray:
        return self._closure.table

    def _ids(self, base_images: np.ndarray) -> np.ndarray:
        """Element ids of the elements with these images of the chain's base points, one per row."""
        return self._closure(base_images)

    def word_ids(self, words: Sequence[Sequence[int]]) -> tuple[int, ...]:
        """Element ids of words in the generators, one per word; the empty word is the identity.

        Letter s names ``generators[s]``, and the word [s_0, ..., s_k] is the
        product g_{s_0} ... g_{s_k}, g_{s_k} applied first. A word is applied
        to the chain's base points alone, and all words are found in one lookup.
        """
        base = np.array(self._chain.base, dtype=np.intp)
        images = np.empty((len(words), len(base)), dtype=np.intp)
        for k, word in enumerate(words):
            points = base
            for s in reversed(word):
                points = self._generator_rows[s, points]
            images[k] = points
        return tuple(self._ids(images).tolist())

    @cached_property
    def generator_ids(self) -> tuple[int, ...]:
        """Element ids of the distinct generators, in ``generators`` order."""
        return self.word_ids([[s] for s in range(len(self._generator_rows))])

    @cached_property
    def elements(self) -> tuple[Permutation, ...]:
        return tuple(Permutation(tuple(row)) for row in self._table.tolist())

    @cached_property
    def _index(self) -> dict[tuple[int, ...], int]:
        return {row: i for i, row in enumerate(map(tuple, self._table.tolist()))}

    def mul(self, i: int, j: int) -> int:
        """Index of elements[i] composed with elements[j] (j applied first)."""
        return self._index[compose(self.elements[i], self.elements[j]).images]

    def inv(self, i: int) -> int:
        # the inverse sends b to the position of b in the row: its base images
        return int(self._ids(np.argsort(self._table[i])[None, self._chain.base])[0])

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


def _read_only(table: np.ndarray) -> np.ndarray:
    table.flags.writeable = False
    return table


# Schreier generators (rows x degree) formed per block on the array route
_SCHREIER_BLOCK_CELLS = 1 << 16
# The identity as a ``bytes.translate`` table. A byte row of degree d permutes
# its first d entries, and its last 256 - d pad the row out to a table.
_BYTE_IDENTITY = bytes(range(256))


def _compose_tuple(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """p after q; ``itemgetter`` with one index returns the entry, not a tuple."""
    return itemgetter(*q)(p) if len(q) > 1 else tuple(p[i] for i in q)


def _inverse_tuple(p: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted(range(len(p)), key=p.__getitem__))


def _translate_tables(gens: list[bytes]) -> list[bytes]:
    """Each byte row g padded to a 256-entry table: ``q.translate(table)`` is g after q."""
    pad = _BYTE_IDENTITY[len(gens[0]):]
    return [g + pad for g in gens]


def _transversal(point: int, gens: list[bytes]) -> dict[int, bytes]:
    """Schreier tree of ``point``: one product of ``gens`` mapping it to each orbit point."""
    reps = {point: _BYTE_IDENTITY[:len(gens[0])]}
    frontier = [point]
    tables = _translate_tables(gens)
    while frontier:
        grown = []
        for p in frontier:
            u = reps[p]
            for g, table in zip(gens, tables):
                q = g[p]
                if q not in reps:
                    reps[q] = u.translate(table)
                    grown.append(q)
        frontier = grown
    return reps


def _schreier_bytes(point: int, gens: list[bytes], reps: dict[int, bytes]) -> list[bytes]:
    """Distinct non-identity Schreier generators u_{g x}^-1 g u_x of the stabilizer of ``point``.

    ``reps`` is the Schreier tree of ``point`` under ``gens``;
    ``bytes.maketrans(u, ident)`` is u^-1 as a translate table.
    """
    ident = reps[point]
    tables = _translate_tables(gens)
    inverses: dict[int, bytes] = {}
    found: dict[bytes, None] = {}
    for u in reps.values():
        for table in tables:
            gu = u.translate(table)
            x = gu[point]
            if gu != reps[x]:  # u_x^-1 g u is not the identity
                if x not in inverses:
                    inverses[x] = bytes.maketrans(reps[x], ident)
                found[gu.translate(inverses[x])] = None
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
    """``_schreier_bytes`` on int arrays, formed per block of reps."""
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
    """The rows of an image table at their first occurrences: the table itself when all differ."""
    first: dict[bytes, int] = {}
    for pos, row in enumerate(table):
        first.setdefault(row.tobytes(), pos)
    return table if len(first) == len(table) else table[list(first.values())]


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

    Up to degree 256, the width of a ``bytes.translate`` table, a
    permutation is a ``bytes`` row, a product one ``translate`` and a tree a
    dict from orbit point to rep. Wider, a level works on int arrays.
    """

    def __init__(self, gens: np.ndarray, limit: int | None = None):
        self.degree = degree = gens.shape[1]
        self.narrow = degree <= 256
        if self.narrow:
            self._ident = _BYTE_IDENTITY[:degree]
            level = dict.fromkeys(map(bytes, gens.astype(np.uint8)))
            level.pop(self._ident, None)
            level = list(level)
            ident_bits = int.from_bytes(self._ident, "little")
        else:
            level = gens[(gens != np.arange(degree)).any(axis=1)]
        self.base: list[int] = []
        self.orbit_lengths: list[int] = []
        self.trees: list = []
        while len(level):
            if self.narrow:
                # byte i of ``moved`` is nonzero when some row moves point i
                moved = 0
                for g in level:
                    moved |= int.from_bytes(g, "little") ^ ident_bits
                point = ((moved & -moved).bit_length() - 1) // 8
                tree = _transversal(point, level)
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
                level = _schreier_bytes(point, level, tree)
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
                _read_only(
                    np.frombuffer(b"".join(tree.values()), dtype=np.uint8)
                    .reshape(len(tree), self.degree)
                    .astype(np.intp)
                )
                for tree in self.trees
            ]
        return [reps for _, reps in self.trees]

    def __contains__(self, images: tuple[int, ...]) -> bool:
        """Whether the permutation lies in the group: sift it through every level."""
        if self.narrow:
            h = bytes(images)
            for point, tree in zip(self.base, self.trees):
                u = tree.get(h[point])
                if u is None:
                    return False
                h = h.translate(bytes.maketrans(u, self._ident))  # u^-1 after h fixes b_l
            return h == self._ident
        for point, (slot, reps) in zip(self.base, self.trees):
            k = slot[images[point]]
            if k < 0:
                return False
            images = _compose_tuple(_inverse_tuple(tuple(reps[k].tolist())), images)
        return images == tuple(range(self.degree))


class _BaseLookup:
    """A listing of group elements sorted by their images of a chain's base points; finds rows.

    An element is fixed by its images of b_0..b_{k-1}. Its key reads them as
    the digits of one base-degree number, b_0's image the most significant,
    so keys are distinct and sort as the rows do: one ``argsort`` orders the
    listing and one ``searchsorted`` finds rows. Keys are int64 while
    degree^k < 2^63 and Python ints in an object array past that.
    """

    def __init__(self, listing: np.ndarray, base: np.ndarray):
        self.base = base
        degree, k = listing.shape[1], len(base)
        dtype = np.int64 if degree**k < 2**63 else object
        self._digits = np.array([degree**e for e in range(k - 1, -1, -1)], dtype=dtype)
        keys = self._key(listing[:, base])
        order = np.argsort(keys)  # keys are distinct: no stable sort needed
        self.table = _read_only(listing[order])
        self._keys = keys[order]

    def _key(self, images: np.ndarray) -> np.ndarray:
        return images.astype(self._digits.dtype, copy=False) @ self._digits

    def __call__(self, images: np.ndarray) -> np.ndarray:
        """Rows of ``table`` holding the elements whose base images are the rows of ``images``."""
        return self._keys.searchsorted(self._key(images))


def _row_group(rows: np.ndarray, limit: int | None = None) -> PermutationGroup:
    """The group generated by int image rows, each distinct row kept once, at its first occurrence.

    The one place a stabilizer chain is built. Past ``limit`` the chain
    stops, and the group's order then exceeds ``limit`` without being |G|.
    """
    rows = _distinct_rows(np.asarray(rows, dtype=np.intp))
    return PermutationGroup(rows, _StabilizerChain(rows, limit))


def close_generators(gens: Sequence[Permutation], cap: int = DEFAULT_ORDER_CAP) -> PermutationGroup:
    """The group generated by a generator list; its elements are listed on first use.

    The order comes from a stabilizer chain, which the group keeps. Repeated
    generators are kept once, at their first occurrence.

    Raises GroupError when the group has more than ``cap`` elements.
    """
    if not gens:
        raise GroupError("need at least one generator")
    if cap <= 0:
        raise GroupError("cap must be positive")
    group = _row_group(_image_table(gens, gens[0].degree), limit=cap)
    if group.order > cap:
        raise GroupError(f"order cap exceeded: closure has more than {cap} elements; raise the cap")
    return group


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
    for k, f in enumerate(factors):
        if not f:
            raise GroupError("direct_product: empty factor generator list")
        degrees.append(f[0].degree)
        for s, g in enumerate(f):
            if g.degree != degrees[-1]:
                raise GroupError(
                    f"direct_product: factor {k} generator {s} has degree {g.degree}, "
                    f"not {degrees[-1]}"
                )
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

    An action is its generator image rows, in ``group.generators`` order,
    which its builders know to extend to a homomorphism: ``build_action``
    checks rows from outside, the others derive them. The pairs (s^X, s)
    generate ``_pair_group``, a copy of G, the graph of the action; the
    (|G| x target_size) table reads its products at the target points and
    G's base points, and puts each image at the id of its element; the graph
    is released once the table is listed. A natural action's table is G's
    element table. The image group, generated by the generator rows, is
    built once, and its order gives the kernel.
    """

    def __init__(self, group: PermutationGroup, target_size: int, generator_rows: np.ndarray):
        self.group = group
        self.target_size = target_size
        self._generator_rows = _read_only(generator_rows)

    @cached_property
    def _pair_group(self) -> PermutationGroup:
        """The graph of the action, the pairs (s^X, s): the target points, then G's points shifted.

        Its chain stops past |G|, where the images define no homomorphism.
        """
        pairs = np.hstack([self._generator_rows, self.group._generator_rows + self.target_size])
        return _row_group(pairs, limit=self.group.order)

    @cached_property
    def _table(self) -> np.ndarray:
        group = self.group
        if self._generator_rows is group._generator_rows:  # the natural action
            return group._table
        size = self.target_size
        # the pair group's rows at the target points and at G's base points, shifted
        points = np.concatenate([np.arange(size), group._closure.base + size])
        listing = self._pair_group._products(points)
        del self._pair_group  # read only here; on the array route its transversals are tables
        table = np.empty((group.order, size), dtype=np.intp)
        table[group._ids(listing[:, size:] - size)] = listing[:, :size]
        return _read_only(table)

    @cached_property
    def _image_group(self) -> PermutationGroup:
        """The image group, the permutations of the target set that G induces."""
        return _row_group(self._generator_rows)

    @cached_property
    def _image_order(self) -> int:
        """Order of the image group; ``build_action`` sets it from the graph's chain."""
        return self._image_group.order

    @cached_property
    def _orbits(self) -> OrbitPartition:
        """The orbit partition of the target set, from the generator rows."""
        low = _orbit_minima(self._generator_rows)
        reps = np.unique(low)
        return OrbitPartition(tuple(np.searchsorted(reps, low).tolist()), tuple(reps.tolist()))

    def __repr__(self):
        return f"GroupAction(|G|={self.group.order}, target_size={self.target_size})"


def _first_failing_edge(group: PermutationGroup, gen_table: np.ndarray) -> str:
    """The error text of images that are no homomorphism: the first Cayley edge they break.

    A FIFO walk from the identity over the Cayley graph, keyed by element
    images: each edge (x, s) either gives x . g_s the image img(x) . img(g_s),
    or must agree with the image it already has. The first edge that
    disagrees names x . g_s.
    """
    gens = list(map(tuple, group._generator_rows.tolist()))
    targets = list(map(tuple, gen_table.tolist()))
    ident = tuple(range(group.degree))
    img = {ident: tuple(range(gen_table.shape[1]))}
    queue = [ident]
    for x in queue:  # the queue grows as the walk reaches new elements
        for g, t in zip(gens, targets):
            y = _compose_tuple(x, g)
            cand = _compose_tuple(img[x], t)
            if y not in img:
                img[y] = cand
                queue.append(y)
            elif img[y] != cand:
                name = format_cycles(perm(y))
                return f"inconsistent action: element {name} receives two distinct images"
    raise AssertionError("images rejected by the order test satisfy every Cayley edge")


def build_action(
    group: PermutationGroup, gen_images: Sequence[Permutation], target_size: int
) -> GroupAction:
    """The action of ``group`` extending the generator images, listed on first use.

    The one check of images from outside: ``gen_images`` holds ``Permutation``
    objects or int rows, or is an int array. The images define a homomorphism
    exactly when the pairs (s, s^X) generate a group no larger than G;
    rejected images raise GroupError naming the first Cayley edge they break.
    """
    count = len(group._generator_rows)
    if len(gen_images) != count:
        raise GroupError(f"need {count} generator images, got {len(gen_images)}")
    gen_table = _image_table(gen_images, target_size)
    action = GroupAction(group, target_size, gen_table)
    # the target points come first, so the chain's levels on them measure the image
    chain = action._pair_group._chain
    if chain.order != group.order:
        raise GroupError(_first_failing_edge(group, gen_table))
    action._image_order = math.prod(
        size for b, size in zip(chain.base, chain.orbit_lengths) if b < target_size
    )
    return action


def natural_action(group: PermutationGroup) -> GroupAction:
    """Each element acting by itself on {0..degree-1}."""
    return GroupAction(group, group.degree, group._generator_rows)


def regular_action(group: PermutationGroup) -> GroupAction:
    """The group acting on its own element ids by left multiplication.

    The points are element ids, in the lexicographic order of the image
    arrays: for Z_n with its one n-cycle generator s, point k is s^k.
    """
    table = [[group.mul(i, j) for j in range(group.order)] for i in range(group.order)]
    table = _read_only(np.array(table, dtype=np.intp))
    action = GroupAction(group, group.order, table[list(group.generator_ids)])
    action._table = table
    return action


def trivial_action(group: PermutationGroup, target_size: int) -> GroupAction:
    rows = np.tile(np.arange(target_size), (len(group._generator_rows), 1))
    return GroupAction(group, target_size, rows)


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
    """The image group (G over the kernel), generated by the generator image rows; the profile."""
    return action._image_group, classify_action(action)


class JointAction:
    """Paired input/output actions of one reference group (a sub-direct product).

    ``joint_order`` is the order of ``_group``, the group generated by the
    generator pairs (s^N, s^M) on N followed by M, unless one side alone tells
    G's elements apart; the element ids of the distinct pairs, ``_element_ids``,
    are found in the two image tables on first use, and rows of those tables
    are the joint elements. Membership is ``in _group``, a sift.
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
            self.joint_order = self._group.order

    @cached_property
    def _group(self) -> PermutationGroup:
        """The joint group: the generator pairs on N followed by M (M shifted by n_size)."""
        n_rows, m_rows = self.n_action._generator_rows, self.m_action._generator_rows
        return _row_group(np.hstack([n_rows, m_rows + self.n_size]))

    @cached_property
    def _element_ids(self) -> np.ndarray:
        """Element ids of the distinct (g^N, g^M) pairs, each at its first occurrence.

        Below |G| the joint order came from ``_group``, and pairs that agree
        on its chain's base agree everywhere (all of them, when the base is empty).
        """
        if self.joint_order == self.group.order:  # a faithful pairing: every element
            return np.arange(self.group.order)
        table = np.hstack([self.n_action._table, self.m_action._table])
        return np.sort(np.unique(table[:, self._group._chain.base], axis=0, return_index=True)[1])

    @property
    def n_size(self) -> int:
        return self.n_action.target_size

    @property
    def m_size(self) -> int:
        return self.m_action.target_size

    def __repr__(self):
        return (
            f"JointAction(|G|={self.group.order}, n={self.n_size}, "
            f"m={self.m_size}, joint_order={self.joint_order})"
        )


def joint_action(n_action: GroupAction, m_action: GroupAction) -> JointAction:
    return JointAction(n_action, m_action)


def symmetrize_genset(group: PermutationGroup, element_ids: Iterable[int]) -> tuple[int, ...]:
    """Close a set of element ids under inverse and verify it generates the group.

    Each id is read as an integer (a bool is none) and returned as an int.
    A set holding every non-identity generator id generates by definition.
    Otherwise the subgroup's order comes from the group of the id rows;
    nothing of it is listed.
    """
    ids = set()
    for i in element_ids:
        if isinstance(i, (bool, np.bool_)) or not hasattr(i, "__index__"):
            raise GroupError(f"element id {i!r} is not an integer")
        ids.add(index(i))
    for i in ids:
        if not 0 <= i < group.order:
            raise GroupError(f"element id {i} out of range for a group of order {group.order}")
    ids |= {group.inv(i) for i in ids}
    if not ids.union([0]).issuperset(group.generator_ids):
        order = _row_group(group._table[sorted(ids)]).order
        if order != group.order:
            raise GroupError(
                f"A does not generate G: closure of A union A^-1 has order {order} < {group.order}"
            )
    return tuple(sorted(ids))
