"""Independent oracles: brute-force enumeration, direct summation, naive checks.

Everything here is deliberately written from the definitions, without reusing
the search/design code paths it is used to validate.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from eqtie.layer import LayerError, check_equivariance
from eqtie.permcore import GroupError, compose, format_cycles, identity


def edge_set(rel):
    """A relation's edges as a frozenset of (n, m) tuples."""
    return frozenset(map(tuple, rel.edges.tolist()))


def alpha(s, n, m):
    """The set of color ids of structure ``s`` whose edges contain (n, m)."""
    return frozenset(r.color_id for r in s.relations if (r.edges == (n, m)).all(axis=1).any())


def merged_alpha(cm, n, m):
    """The base color set of cell (n, m), read back from a merged color matrix."""
    mid = int(cm.grid[m, n])
    return frozenset(cm.merged_to_base[mid]) if mid else frozenset()


def structure_alpha(s):
    """Cell -> color-set table computed straight from the relation lists."""
    edge_sets = [(r.color_id, edge_set(r)) for r in s.relations]
    table = {}
    for n in range(s.n_size):
        for m in range(s.m_size):
            table[(n, m)] = frozenset(c for c, edges in edge_sets if (n, m) in edges)
    return table


def permutation_matrix(p):
    """0/1 matrix with a 1 at row p(j), column j.

    With this convention ``permutation_matrix(compose(p, q))`` equals
    ``permutation_matrix(p) @ permutation_matrix(q)`` exactly.
    """
    mat = np.zeros((p.degree, p.degree), dtype=np.int64)
    mat[list(p.images), range(p.degree)] = 1
    return mat


def act_on_vector(p, x):
    """The vector action: result[p(i)] = x[i]."""
    x = np.asarray(x)
    if x.shape[0] != p.degree:
        raise GroupError(f"vector length {x.shape[0]} != degree {p.degree}")
    out = np.empty_like(x)
    out[list(p.images)] = x
    return out


def check_subgroup_monotonicity(layer, joint, sub_joint, **kwargs):
    """Whether passing the equivariance check on ``joint`` implies passing it on ``sub_joint``."""
    if not sub_joint.pair_set() <= joint.pair_set():
        raise LayerError("sub_joint elements are not a subset of the joint elements")
    full = check_equivariance(layer, joint, **kwargs)
    sub = check_equivariance(layer, sub_joint, **kwargs)
    return (not full.passed) or sub.passed


def brute_force_automorphisms(s):
    """All (pi_N, pi_M) in S_N x S_M preserving every cell's color set."""
    alpha = structure_alpha(s)
    found = []
    for pn in itertools.permutations(range(s.n_size)):
        for pm in itertools.permutations(range(s.m_size)):
            if all(
                alpha[(n, m)] == alpha[(pn[n], pm[m])]
                for n in range(s.n_size)
                for m in range(s.m_size)
            ):
                found.append((pn, pm))
    return found


def brute_force_graph_automorphisms(adjacency):
    """All permutations pi with B[pi(i), pi(j)] == B[i, j]."""
    b = np.asarray(adjacency)
    n = b.shape[0]
    return [
        pi
        for pi in itertools.permutations(range(n))
        if all(b[pi[i], pi[j]] == b[i, j] for i in range(n) for j in range(n))
    ]


def commutes_exactly(w, pn, pm):
    """P_pm @ W == W @ P_pn checked entry-by-entry from the definition."""
    w = np.asarray(w)
    m_size, n_size = w.shape
    inv_m = [0] * m_size
    for i, v in enumerate(pm):
        inv_m[v] = i
    for i in range(m_size):
        for j in range(n_size):
            if w[inv_m[i], j] != w[i, pn[j]]:
                return False
    return True


def circular_cross_correlation(theta_by_shift, x):
    """y_g = sum_a theta_a * x[(g + a) mod n] by direct summation."""
    n = len(x)
    return np.array(
        [sum(t * x[(g + a) % n] for a, t in theta_by_shift.items()) for g in range(n)]
    )


def wreath_dense_color(n, m, block_size):
    """Same-position / same-block / cross-block cell classes, built directly."""
    if n == m:
        return 1
    if n // block_size == m // block_size:
        return 2
    return 3


def orbit_stabilizer_counts(image_perms, point):
    """(orbit size, stabilizer size) of a point under an explicit permutation list."""
    orbit = {p[point] for p in image_perms}
    stab = sum(1 for p in image_perms if p[point] == point)
    return len(orbit), stab


def wreath_order(d, blocks):
    return math.factorial(d) ** blocks * math.factorial(blocks)


def float_residual_per_trial(apply, pairs, n_size, trials, seed):
    """Max |g^M . f(x) - f(g^N . x)|, one input vector per (element, trial).

    The reference for the float route: ``pairs`` are (g^N, g^M) image tuples,
    ``apply`` maps one input vector to one output vector, and the inputs are
    drawn one at a time from ``default_rng(seed)`` in pair-major order.
    """

    def act(images, v):
        out = np.empty_like(v)
        for i, image in enumerate(images):
            out[image] = v[i]
        return out

    rng = np.random.default_rng(seed)
    worst = 0.0
    for gn, gm in pairs:
        for _ in range(trials):
            x = rng.integers(-9, 10, size=n_size).astype(float)
            lhs = act(gm, apply(x))
            rhs = apply(act(gn, x))
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def distinct_pairs(n_images, m_images):
    """(g^N, g^M) image tuples in first-occurrence order, duplicates dropped."""
    pairs = []
    for gn, gm in zip(n_images, m_images):
        if (gn, gm) not in pairs:
            pairs.append((gn, gm))
    return pairs


def closure_per_element(gens):
    """(elements, generator ids) of a breadth-first closure, one ``compose`` per product.

    The reference for ``permcore.close_generators``: element 0 is the identity,
    each new layer is sorted by image tuple, and generator ids keep the first
    occurrence of each generator.
    """
    ident = identity(gens[0].degree)
    elements = [ident]
    seen = {ident.images}
    frontier = [ident]
    while frontier:
        layer = []
        for p in frontier:
            for g in gens:
                q = compose(p, g)
                if q.images not in seen:
                    seen.add(q.images)
                    layer.append(q)
        layer.sort(key=lambda t: t.images)
        elements.extend(layer)
        frontier = layer
    index = {p.images: i for i, p in enumerate(elements)}
    gen_ids = []
    for g in gens:
        if index[g.images] not in gen_ids:
            gen_ids.append(index[g.images])
    return elements, gen_ids


def cayley_right_per_element(elements, generator_ids):
    """right[i][s] = index of elements[i] composed with generator s, one ``compose`` per entry.

    The reference for ``PermutationGroup._cayley_right``.
    """
    index = {p.images: i for i, p in enumerate(elements)}
    return [[index[compose(p, elements[g]).images] for g in generator_ids] for p in elements]


def cayley_tree_per_element(elements, generator_ids):
    """Layers (element ids, parent ids, generator columns) of the breadth-first Cayley tree.

    The reference for ``PermutationGroup._cayley_tree``: each layer scans its
    edges in (parent, generator) order, and an element not reached before
    joins the next layer by the first edge that reaches it.
    """
    right = cayley_right_per_element(elements, generator_ids)
    reached = {0}
    layer = [0]
    tree = []
    while True:
        grown = []
        for parent in layer:
            for s, child in enumerate(right[parent]):
                if child not in reached:
                    reached.add(child)
                    grown.append((child, parent, s))
        if not grown:
            return tree
        tree.append(tuple(list(column) for column in zip(*grown)))
        layer = tree[-1][0]


def action_per_edge(elements, generator_ids, gen_images, target_size):
    """Element images by a per-edge walk of the Cayley graph; GroupError on a conflict.

    The reference for ``permcore.build_action``: a FIFO queue from the
    identity, each edge (element, generator) either assigns the product image
    or compares against the one already assigned.
    """
    index = {p.images: i for i, p in enumerate(elements)}
    images = [None] * len(elements)
    images[0] = identity(target_size)
    queue = [0]
    head = 0
    while head < len(queue):
        i = queue[head]
        head += 1
        for gid, gimg in zip(generator_ids, gen_images):
            k = index[compose(elements[i], elements[gid]).images]
            cand = compose(images[i], gimg)
            if images[k] is None:
                images[k] = cand
                queue.append(k)
            elif images[k] != cand:
                raise GroupError(
                    "inconsistent action: element "
                    f"{format_cycles(elements[k])} receives two distinct images"
                )
    if any(img is None for img in images):
        raise GroupError("generators do not generate the reference group")
    return images


def classify_per_image(images):
    """(kernel size, image order, semi-regular) of an action from its image tuples.

    The reference for ``permcore.classify_action``: one identity test and one
    fixed-point test per image; images[0] belongs to the identity element.
    """
    ident = tuple(range(len(images[0])))
    kernel_size = sum(1 for p in images if p == ident)
    semi_regular = kernel_size == 1 and all(
        all(v != i for i, v in enumerate(p)) for p in images[1:]
    )
    return kernel_size, len(set(images)), semi_regular


def dense_design_per_element(pairs, n_size, m_size):
    """(edges, provenance) per dense color, one orbit scan over ``pairs`` per color.

    The reference for ``designs.dense_design``: ``pairs`` are the distinct
    (g^N, g^M) image tuples, cells are visited row-major (m outer, n inner)
    and each cell not yet colored starts a new color.
    """
    assigned = set()
    colors = []
    for m in range(m_size):
        for n in range(n_size):
            if (n, m) in assigned:
                continue
            orbit = frozenset((gn[n], gm[m]) for gn, gm in pairs)
            assigned |= orbit
            colors.append((orbit, {"kind": "dense", "representative": (n, m)}))
    return colors


def sparse_design_per_element(n_images, m_images, genset):
    """(edges, provenance) per sparse color, one scan over all elements per color.

    The reference for ``designs.sparse_design``: ``n_images`` and
    ``m_images`` are image tuples indexed by element id, orbits are numbered
    by their smallest point, and relation (p, q, a) holds
    {(g(a(n_p)), g(m_q))} over every element g.
    """

    def representatives(images):
        reps, seen = [], set()
        for x in range(len(images[0])):
            if x not in seen:
                reps.append(x)
                seen |= {p[x] for p in images}
        return reps

    colors = []
    for p, n_rep in enumerate(representatives(n_images)):
        for q, m_rep in enumerate(representatives(m_images)):
            for a in sorted(set(genset)):
                start = n_images[a][n_rep]
                edges = frozenset((gn[start], gm[m_rep]) for gn, gm in zip(n_images, m_images))
                colors.append(
                    (edges, {"kind": "sparse", "n_orbit": p, "m_orbit": q, "generator": a})
                )
    return colors


def exact_pass_all_pairs(w, pairs):
    """P_gM @ W == W @ P_gN for every (g^N, g^M) image-tuple pair.

    The reference for the exact route of ``layer.check_equivariance``, which
    asks it of the group's generators alone.
    """
    return all(commutes_exactly(w, gn, gm) for gn, gm in pairs)


def orbits_from_table(table):
    """(orbit id per point, representatives) from a full (|G| x size) image table.

    The reference for ``permcore.orbits``, which reads only the generator
    columns: a point's orbit is named by the smallest g.x over all of G.
    """
    table = np.asarray(table)
    low = table.min(axis=0)
    reps = np.unique(low)
    return tuple(np.searchsorted(reps, low).tolist()), tuple(reps.tolist())


def classify_from_table(table, group_order):
    """(faithful, transitive, semi_regular, regular, kernel size, image order) from a full table.

    The reference for ``permcore.classify_action``, which reads only the
    generator columns: the kernel is the rows fixing every point, and a
    semi-regular action fixes a point only under row 0, the identity.
    """
    table = np.asarray(table)
    fixed = table == np.arange(table.shape[1])
    kernel_size = int(fixed.all(axis=1).sum())
    transitive = len(orbits_from_table(table)[1]) == 1
    semi_regular = kernel_size == 1 and not fixed[1:].any()
    return (kernel_size == 1, transitive, semi_regular, transitive and semi_regular,
            kernel_size, group_order // kernel_size)


def merge_colors_per_cell(s):
    """(grid, merged_to_base) of ``designs.merge_colors`` by one dict probe per cell.

    The reference for the vectorised merge: cells are visited row-major (m
    outer, n inner) and each new sorted color set gets the next merged id.
    """
    cell_sets = {}
    for rel in s.relations:
        for n, m in rel.edges.tolist():
            cell_sets.setdefault((n, m), set()).add(rel.color_id)
    grid = np.zeros((s.m_size, s.n_size), dtype=np.int64)
    merged_ids = {}
    merged_to_base = {}
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
    return grid, merged_to_base
