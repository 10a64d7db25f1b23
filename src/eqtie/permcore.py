"""Permutation algebra, finite permutation groups, and discrete group actions.

Conventions used across the package:

* a permutation of degree n is stored by its image array: ``p.images[i] = p(i)``,
  0-based;
* composition applies the right factor first: ``compose(p, q)(i) = p(q(i))``;
* the action on a vector moves values onto permuted slots: ``(p . x)[p(i)] = x[i]``,
  equivalently ``(p . x)[i] = x[p^-1(i)]``;
* the permutation matrix has a 1 at row ``p(j)``, column ``j``, which makes
  ``matrix(compose(p, q)) == matrix(p) @ matrix(q)`` exact.

Group elements are enumerated breadth-first from the generating set, layers
sorted lexicographically by image array, so every construction downstream
(orbit ids, colors, exports) is reproducible.

Groups and actions are read-only integer image tables, each row checked once
to be a permutation. ``close_generators`` builds a group's (order x degree)
table, one fancy index of the frontier by all generators per layer, and
records the Cayley right-multiplication table ``right[i, s]`` = index of
``elements[i]`` composed with generator s. A ``GroupAction``'s (|G| x
target_size) table is checked when built to be a homomorphism on all
|G| x |S| Cayley edges (one table-sized comparison per generator), so exact
questions about it need only the generators' rows. A group's ``elements``, an
action's ``images`` and a joint action's ``joint_elements`` are
``Permutation`` views built on first use. The element order, images and error
texts are those of a closure with one ``compose`` per product and a per-edge
action walk (``tests/oracles.py`` keeps both as references).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

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


def permutation_matrix(p: Permutation) -> np.ndarray:
    """0/1 matrix with a 1 at (p(j), j)."""
    mat = np.zeros((p.degree, p.degree), dtype=np.int64)
    mat[list(p.images), range(p.degree)] = 1
    return mat


def act_on_vector(p: Permutation, x: np.ndarray) -> np.ndarray:
    """Apply the vector action: result[p(i)] = x[i]."""
    x = np.asarray(x)
    if x.shape[0] != p.degree:
        raise GroupError(f"vector length {x.shape[0]} != degree {p.degree}")
    out = np.empty_like(x)
    out[list(p.images)] = x
    return out


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


def _image_table(rows, size: int, what: str) -> np.ndarray:
    """Check rows as permutations of 0..size-1; return them as one read-only int table.

    ``rows`` holds ``Permutation`` objects or int sequences, or is an int
    array. A row of another length, a non-integer entry, an entry out of
    range or a repeated entry raises GroupError naming ``what`` the rows are.
    """
    if not isinstance(rows, np.ndarray):
        rows = [getattr(row, "images", row) for row in rows]
    wrong = [len(row) for row in rows if len(row) != size]
    if wrong:
        raise GroupError(f"{what} degree {wrong[0]} != {size}")
    table = np.array(rows).reshape(len(rows), size)
    if table.size and not np.issubdtype(table.dtype, np.integer):
        raise GroupError(f"{what} table must hold integers, not {table.dtype}")
    table = table.astype(np.intp, copy=False)
    bad = np.flatnonzero((np.sort(table, axis=1) != np.arange(size)).any(axis=1))
    if len(bad):
        raise GroupError(
            f"{what} {bad[0]} is not a permutation of 0..{size - 1}: {table[bad[0]].tolist()}"
        )
    table.flags.writeable = False
    return table


class PermutationGroup:
    """A finite permutation group, kept as one read-only (order x degree) image table.

    elements[0] is the identity; the rest follow breadth-first layers over the
    generators, each layer sorted by image array, so the element order is a
    deterministic function of the generator list. Elements are given as
    ``Permutation`` objects or int rows; ``elements`` is a view built on first use.
    """

    def __init__(self, degree: int, elements, generator_ids: Sequence[int]):
        self.degree = degree
        self._table = _image_table(elements, degree, "element")
        self.generator_ids = tuple(generator_ids)
        self.order = len(self._table)
        self._index = {row: i for i, row in enumerate(map(tuple, self._table.tolist()))}
        if not self.order or (self._table[0] != np.arange(degree)).any():
            raise GroupError("element 0 must be the identity")
        if len(self._index) != self.order:
            raise GroupError("duplicate elements")

    @cached_property
    def elements(self) -> tuple[Permutation, ...]:
        return tuple(Permutation(tuple(row)) for row in self._table.tolist())

    def index_of(self, p: Permutation) -> int:
        try:
            return self._index[p.images]
        except KeyError:
            raise GroupError(f"{p!r} is not an element of this group") from None

    def mul(self, i: int, j: int) -> int:
        """Index of elements[i] composed with elements[j] (j applied first)."""
        return self.index_of(compose(self.elements[i], self.elements[j]))

    def inv(self, i: int) -> int:
        return self._index[tuple(np.argsort(self._table[i]).tolist())]

    @cached_property
    def _cayley_right(self) -> np.ndarray:
        """right[i, t] = index of elements[i] composed with generators[t] (generator first).

        ``close_generators`` records it while closing; a group built from an
        explicit element list gets it here, once.
        """
        right = [[self.mul(i, g) for g in self.generator_ids] for i in range(self.order)]
        return np.array(right, dtype=np.intp).reshape(self.order, len(self.generator_ids))

    @cached_property
    def _cayley_tree(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Breadth-first spanning tree of the Cayley graph from the identity.

        Per layer, (elements, parents, generator columns); an element follows
        the first edge reaching it in (parent position, generator) order.
        """
        right = self._cayley_right
        reached = np.zeros(self.order, dtype=bool)
        reached[0] = True
        layer = np.zeros(1, dtype=np.intp)
        tree = []
        while True:
            heads = right[layer].ravel()  # edge k * |S| + s leaves layer[k] by generator s
            first = np.unique(heads, return_index=True)[1]
            first = np.sort(first[~reached[heads[first]]])
            if not len(first):
                return tree
            positions, columns = np.divmod(first, right.shape[1])
            parents, layer = layer[positions], heads[first]
            reached[layer] = True
            tree.append((layer, parents, columns))

    @property
    def generators(self) -> tuple[Permutation, ...]:
        return tuple(perm(row) for row in self._table[list(self.generator_ids)].tolist())

    def __eq__(self, other):
        return (
            isinstance(other, PermutationGroup)
            and self.degree == other.degree
            and np.array_equal(self._table, other._table)
        )

    def __hash__(self):
        return hash((self.degree, self._table.tobytes()))

    def __repr__(self):
        return f"PermutationGroup(degree={self.degree}, order={self.order})"


def _row_keys(table: np.ndarray) -> list[bytes]:
    """One hashable key per row of an image table; keys sort as the rows do.

    Big-endian bytes compare in value order, so ``sorted`` on keys is the
    lexicographic order of the image arrays.
    """
    return [row.tobytes() for row in table.astype(">u4")]


def close_generators(gens: Sequence[Permutation], cap: int = DEFAULT_ORDER_CAP) -> PermutationGroup:
    """Close a generator list under composition, breadth-first.

    Works on an (order x degree) image table: a layer's candidates are the
    frontier rows composed with every generator in one fancy index, the new
    ones are kept by row key and sorted by image array, and the index of each
    candidate becomes its entry in the group's Cayley table.

    Raises GroupError when the closure grows past ``cap`` elements.
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
    gen_table = np.array(unique, dtype=np.intp).reshape(len(unique), degree)
    frontier = np.arange(degree, dtype=np.intp).reshape(1, degree)
    index = {_row_keys(frontier)[0]: 0}
    layers = [frontier]
    right: list[int] = []
    while len(frontier):
        # row k * |S| + s is frontier[k] composed with generator s: p(g(i)) = p[g[i]]
        cand = frontier[:, gen_table].reshape(-1, degree)
        keys = _row_keys(cand)
        fresh: dict[bytes, int] = {}
        for pos, key in enumerate(keys):
            if key not in index:
                fresh.setdefault(key, pos)
        layer = sorted(fresh)
        for key in layer:
            index[key] = len(index)
        right.extend(index[key] for key in keys)
        if len(index) > cap:
            raise GroupError(
                f"order cap exceeded: closure has more than {cap} elements; raise the cap"
            )
        frontier = cand[[fresh[key] for key in layer]]
        layers.append(frontier)

    gen_ids = [index[key] for key in _row_keys(gen_table)]
    group = PermutationGroup(degree, np.concatenate(layers), gen_ids)
    group._cayley_right = np.array(right, dtype=np.intp).reshape(group.order, len(unique))
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
        return [i for i, o in enumerate(self.orbit_of) if o == orbit_id]


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

    ``images`` holds the image of each of ``group.elements`` in turn, as
    ``Permutation`` objects or int rows, kept as one read-only table that must
    satisfy img(x . g_s) == img(x) . img(g_s) on every Cayley edge (the first
    failing edge in breadth-first order names x . g_s); ``images`` is its
    ``Permutation`` view, built on first use.
    """

    def __init__(self, group: PermutationGroup, target_size: int, images):
        self.group = group
        self.target_size = target_size
        if len(images) != group.order:
            raise GroupError("need one image per group element")
        table = _image_table(images, target_size, "image")
        if (table[0] != np.arange(target_size)).any():
            raise GroupError("identity must act as the identity permutation")
        right = group._cayley_right
        queue = np.concatenate([[0]] + [layer for layer, _, _ in group._cayley_tree])
        # bad[x, s]: the edge from element x by generator s fails (one table-sized test each)
        bad = np.zeros((group.order, len(group.generator_ids)), dtype=bool)
        for s, g in enumerate(table[list(group.generator_ids)]):
            bad[:, s] = (table[right[:, s]] != table[:, g]).any(axis=1)
        bad = bad[queue]
        if bad.any():
            k, s = divmod(int(np.flatnonzero(bad)[0]), bad.shape[1])
            x = format_cycles(perm(group._table[right[queue[k], s]].tolist()))
            raise GroupError(f"inconsistent action: element {x} receives two distinct images")
        if len(queue) != group.order:
            raise GroupError("generators do not generate the reference group")
        self._table = table

    @cached_property
    def images(self) -> tuple[Permutation, ...]:
        return tuple(Permutation(tuple(row)) for row in self._table.tolist())

    def __repr__(self):
        return f"GroupAction(|G|={self.group.order}, target_size={self.target_size})"


def build_action(
    group: PermutationGroup, gen_images: Sequence[Permutation], target_size: int
) -> GroupAction:
    """Extend generator images to the whole group along the Cayley table.

    Each element of the breadth-first spanning tree gets its parent's image
    composed with the generator's image, and ``GroupAction`` checks every
    edge. The tree does not reach an identity generator; its image is
    compared here, on the edge the check would report first.
    """
    gen_ids = group.generator_ids
    if len(gen_images) != len(gen_ids):
        raise GroupError(f"need {len(gen_ids)} generator images, got {len(gen_images)}")
    gen_table = _image_table(gen_images, target_size, "generator image")
    # rows the tree never reaches (non-generating ids) stay identities for the table check
    img = np.tile(np.arange(target_size, dtype=np.intp), (group.order, 1))
    for layer, parents, columns in group._cayley_tree:
        img[layer] = img[parents[:, None], gen_table[columns]]
    if (img[list(gen_ids)] != gen_table).any():
        raise GroupError("inconsistent action: element () receives two distinct images")
    return GroupAction(group, target_size, img)


def natural_action(group: PermutationGroup) -> GroupAction:
    """Each element acting by itself on {0..degree-1}."""
    return GroupAction(group, group.degree, group._table)


def regular_action(group: PermutationGroup) -> GroupAction:
    """The group acting on its own element indices by left multiplication."""
    table = [[group.mul(i, j) for j in range(group.order)] for i in range(group.order)]
    return GroupAction(group, group.order, np.array(table, dtype=np.intp))


def trivial_action(group: PermutationGroup, target_size: int) -> GroupAction:
    return GroupAction(group, target_size, np.tile(np.arange(target_size), (group.order, 1)))


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


def orbits(action: GroupAction) -> OrbitPartition:
    """Partition the target set into orbits; representative = smallest index."""
    low = action._table.min(axis=0)  # low[x]: the smallest g.x over all of G
    reps = np.unique(low)
    return OrbitPartition(tuple(np.searchsorted(reps, low).tolist()), tuple(reps.tolist()))


def classify_action(action: GroupAction) -> ActionProfile:
    """Faithfulness, transitivity, and (semi-)regularity of an action.

    Semi-regularity is a property of G's action, not of its image: every point
    stabilizer in G is trivial, g.x = x => g = e. A kernel element other than
    e fixes every point, so a non-faithful action is never semi-regular.
    Regular means transitive and semi-regular.
    """
    table = action._table
    fixed = table == np.arange(action.target_size)  # fixed[g, x]: g.x = x
    kernel_size = int(fixed.all(axis=1).sum())
    image_order = action.group.order // kernel_size  # the image is G / kernel
    transitive = orbits(action).orbit_count == 1
    # only row 0 (the identity element) may fix a point: the kernel must be
    # trivial and every other image fixed-point free
    semi_regular = kernel_size == 1 and not fixed[1:].any()
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
    gen_imgs = [perm(row) for row in action._table[list(action.group.generator_ids)].tolist()]
    image_group = close_generators(gen_imgs, cap=max(DEFAULT_ORDER_CAP, action.group.order))
    profile = classify_action(action)
    if image_group.order * profile.kernel_size != action.group.order:
        raise GroupError("image order times kernel size must equal the group order")
    return image_group, profile


class JointAction:
    """Paired input/output actions of one reference group (a sub-direct product)."""

    def __init__(self, n_action: GroupAction, m_action: GroupAction):
        if n_action.group != m_action.group:
            raise GroupError("reference-group mismatch between the two actions")
        self.group = n_action.group
        self.n_action = n_action
        self.m_action = m_action
        # element ids of the distinct (g^N, g^M) pairs, each at its first occurrence
        self._element_ids = _first_rows(np.hstack([n_action._table, m_action._table]))
        self.joint_order = len(self._element_ids)

    def _pairs(self):
        ids = self._element_ids
        return zip(*(map(tuple, a._table[ids].tolist()) for a in (self.n_action, self.m_action)))

    @cached_property
    def joint_elements(self) -> tuple[tuple[Permutation, Permutation], ...]:
        return tuple((Permutation(gn), Permutation(gm)) for gn, gm in self._pairs())

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
    """Close a set of element ids under inverse and verify it generates the group."""
    ids = set(element_ids)
    for i in ids:
        if not 0 <= i < group.order:
            raise GroupError(f"element id {i} out of range for a group of order {group.order}")
    ids |= {group.inv(i) for i in set(ids)}
    sub = close_generators([perm(r) for r in group._table[sorted(ids)].tolist()], cap=group.order)
    if sub.order != group.order:
        raise GroupError(
            f"A does not generate G: closure of A union A^-1 has order {sub.order} "
            f"< {group.order}"
        )
    return tuple(sorted(ids))
