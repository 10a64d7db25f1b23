"""Independent oracles: brute-force enumeration, direct summation, naive checks.

Everything here is deliberately written from the definitions, without reusing
the search/design code paths it is used to validate.
"""

from __future__ import annotations

import ast
import itertools
import json
import math
import random
import re
import sys
from pathlib import Path

import numpy as np

from eqtie.autsearch import SearchStats, color_refine
from eqtie.designs import Relation, SharingStructure
from eqtie.layer import LayerError, check_equivariance
from eqtie.permcore import GroupError, format_cycles
from eqtie.specio import _edge_color

RUN_PY = Path(__file__).resolve().parent.parent / "bench" / "run.py"


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


def identity(n):
    """The identity of degree n as an image tuple."""
    return tuple(range(n))


def compose(p, q):
    """p after q on image tuples: result[i] = p[q[i]]."""
    if len(p) != len(q):
        raise GroupError(f"degree mismatch: {len(p)} != {len(q)}")
    return tuple(p[j] for j in q)


def inverse(p):
    """The inverse image tuple: result[p[i]] = i."""
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


def permutation_matrix(p):
    """0/1 matrix with a 1 at row p[j], column j.

    With this convention ``permutation_matrix(compose(p, q))`` equals
    ``permutation_matrix(p) @ permutation_matrix(q)`` exactly.
    """
    mat = np.zeros((len(p), len(p)), dtype=np.int64)
    mat[list(p), range(len(p))] = 1
    return mat


def act_on_vector(p, x):
    """The vector action: result[p[i]] = x[i]."""
    x = np.asarray(x)
    if x.shape[0] != len(p):
        raise GroupError(f"vector length {x.shape[0]} != degree {len(p)}")
    out = np.empty_like(x)
    out[list(p)] = x
    return out


def image_rows(action):
    """An action's or a group's images as tuples, one per element id, read off its table."""
    return list(map(tuple, action._table.tolist()))


def joint_pairs(joint):
    """The distinct (g^N, g^M) image tuples of a joint action, in element-id order."""
    ids = joint._element_ids
    n_rows, m_rows = joint.n_action._table[ids], joint.m_action._table[ids]
    return list(zip(map(tuple, n_rows.tolist()), map(tuple, m_rows.tolist())))


def aut_pairs(result):
    """Every automorphism as (pi_N, pi_M) image tuples, in the order of its group's table."""
    n = result._n_size
    rows = map(tuple, result._group._table.tolist())
    return [(row[:n], tuple(v - n for v in row[n:])) for row in rows]


def check_subgroup_monotonicity(layer, joint, sub_joint, **kwargs):
    """Whether passing the equivariance check on ``joint`` implies passing it on ``sub_joint``."""
    if not set(joint_pairs(sub_joint)) <= set(joint_pairs(joint)):
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



def preserves_edges(s, pn, pm):
    """Whether (pn, pm) maps every relation's edge set onto itself, one pair at a time."""
    return all(
        frozenset((pn[n], pm[m]) for n, m in rel.edges.tolist()) == edge_set(rel)
        for rel in s.relations
    )


def frozenset_automorphism_search(s, reference=None, leaves=None):
    """Generator rows over N then M, order, stats and verdict of the frozenset-set search.

    The reference for ``autsearch.enumerate_automorphisms``, whose search
    keeps each M node's candidates as an int bitmask: the same base, levels
    and depth-first order, written with a frozenset of candidates per M node,
    a list of used N nodes reset at every level, and the level loop's own
    copy of the search step. Orbits are closed as sets, the verdict checks
    each reference generator pair edge by edge, and no budget or cap applies.
    A ``leaves`` list receives the M candidate sets of every leaf, in order.
    """
    n_size, m_size = s.n_size, s.m_size
    grid = s.color_matrix.grid.tolist()
    table = color_refine(s)

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
    counts = {"nodes": 0, "leaves": 0, "orbit_pruned": 0}

    def assign(i, j, cand_m):
        new_cand = []
        for mm in range(m_size):
            label = grid[mm][i]
            filtered = frozenset(m2 for m2 in cand_m[mm] if grid[m2][j] == label)
            if not filtered:
                return None
            new_cand.append(filtered)
        counts["nodes"] += 1
        return new_cand

    def pairing(cand_m):
        counts["leaves"] += 1
        if leaves is not None:
            leaves.append(cand_m)
        groups = {}
        for mm in range(m_size):
            groups.setdefault(cand_m[mm], []).append(mm)
        covered = set()
        for targets, sources in groups.items():
            if len(targets) != len(sources):
                return None
            covered |= targets
        if len(covered) != m_size:
            return None
        return sorted(groups.items(), key=lambda kv: kv[1])

    prefix_cand = [[m_class_members[j] for j in range(m_size)]]
    for b in base:
        prefix_cand.append(assign(b, b, prefix_cand[-1]))
    kernel_groups = [sources for _, sources in pairing(prefix_cand[-1])]
    kernel_order = math.prod(math.factorial(len(g)) for g in kernel_groups)

    pi_n = list(range(n_size))
    used_n = [False] * n_size

    def search(level, cand_m):
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

    def orbit(point, gens):
        seen, frontier = {point}, [point]
        while frontier:
            frontier = [g[p] for p in frontier for g in gens if g[p] not in seen]
            seen.update(frontier)
        return seen

    degree = n_size + m_size
    strong = []
    base_orbits = [0] * n_size
    for level in range(n_size - 1, -1, -1):
        b = base[level]
        for k in range(n_size):
            used_n[k] = False
            pi_n[k] = k
        for k in range(level):
            used_n[base[k]] = True
        delta = orbit(b, strong)
        for gamma in n_candidates[b]:
            if used_n[gamma] or gamma == b:
                continue
            if gamma in delta:
                counts["orbit_pruned"] += 1
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
                delta = orbit(b, strong)
        base_orbits[level] = len(delta)

    kernel_gens = []
    for group_nodes in kernel_groups:
        for cyc in [group_nodes[:2], group_nodes][:len(group_nodes) - 1]:
            row = list(range(degree))
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                row[n_size + a] = n_size + b
            kernel_gens.append(row)
    rows = np.array(kernel_gens + strong, dtype=np.intp).reshape(-1, degree)
    order = kernel_order * math.prod(base_orbits)
    stats = SearchStats(
        counts["nodes"], counts["leaves"], counts["orbit_pruned"], tuple(base_orbits), kernel_order
    )
    verdict = None
    if reference is not None:
        pairs = zip(reference.n_action._generator_rows.tolist(),
                    reference.m_action._generator_rows.tolist())
        if not all(preserves_edges(s, pn, pm) for pn, pm in pairs):
            verdict = "incomparable"
        else:
            verdict = "equal" if order == reference.joint_order else "proper_supergroup"
    return rows, order, stats, verdict

def certify_witness(result, joint):
    """(pi_N, pi_M) images of the supergroup witness, read from the listing.

    The reference for ``autsearch.certify_unique``, which lists nothing: when
    ``result`` lists Aut (its order is at most the element cap), the first
    automorphism outside the joint group in order of N images, then M
    images; else the first generator outside it. None when there is none.
    """
    inside = set(joint_pairs(joint))
    if result.elements is None:
        candidates = list(result.generators)
    else:
        candidates = sorted(aut_pairs(result))
    return next((pair for pair in candidates if pair not in inside), None)


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


def primes_by_trial_division(count):
    """The first ``count`` primes, each candidate divided by every earlier prime."""
    primes = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return primes


def may_overflow(layers):
    """Whether sigma(W x) through ``layers`` may pass float max / 4 on inputs in [-9, 9].

    The reference for ``layer._may_overflow``: the bound on a layer's outputs
    is its largest row sum of |W|, one Python ``sum`` per row, times the bound
    on its inputs.
    """
    reach = 9.0
    for tied in layers:
        reach *= max((sum(abs(float(v)) for v in row) for row in tied.weights()), default=0.0)
        if not reach <= sys.float_info.max / 4:
            return True
    return False


def float_residual_per_trial(apply, pairs, n_size, trials, seed, overflows=False):
    """Max |g^M . f(x) - f(g^N . x)|, one input vector per (element, trial).

    The reference for the float route: ``pairs`` are (g^N, g^M) image tuples,
    ``apply`` maps one input vector to one output vector, and the inputs are
    drawn one at a time from ``default_rng(seed)`` in pair-major order. The
    maxima fold with ``np.maximum``, so a NaN residual survives, as it does on
    the route. When ``overflows`` (see ``may_overflow``) and there are trials,
    the residual is NaN without evaluating ``apply``.
    """
    if trials and overflows:
        return math.nan

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
            worst = np.maximum(worst, np.max(np.abs(lhs - rhs)))
    return float(worst)


def distinct_pairs(n_images, m_images):
    """(g^N, g^M) image tuples in first-occurrence order, duplicates dropped."""
    pairs = []
    for gn, gm in zip(n_images, m_images):
        if (gn, gm) not in pairs:
            pairs.append((gn, gm))
    return pairs


def closure_per_element(gens):
    """(elements, generator ids) of a closure, one ``compose`` per product, sorted by image tuple.

    The reference for ``permcore.close_generators``: ``gens`` are image rows,
    the elements are image tuples, element 0 is the identity, the elements
    follow the lexicographic order of their image tuples, and generator ids
    keep the first occurrence of each generator.
    """
    gens = [tuple(int(v) for v in g) for g in gens]
    seen = {identity(len(gens[0]))}
    frontier = list(seen)
    for p in frontier:  # the frontier grows as products are found
        for g in gens:
            q = compose(p, g)
            if q not in seen:
                seen.add(q)
                frontier.append(q)
    elements = sorted(seen)
    index = {p: i for i, p in enumerate(elements)}
    gen_ids = []
    for g in gens:
        if index[g] not in gen_ids:
            gen_ids.append(index[g])
    return elements, gen_ids


def action_per_edge(elements, generator_ids, gen_images, target_size):
    """Element images by a per-edge walk of the Cayley graph; GroupError on a conflict.

    The reference for ``permcore.build_action``: a FIFO queue from the
    identity, each edge (element, generator) either assigns the product image
    or compares against the one already assigned. Elements, generator images
    and the returned images are image tuples.
    """
    index = {p: i for i, p in enumerate(elements)}
    gen_images = [tuple(int(v) for v in g) for g in gen_images]
    images = [None] * len(elements)
    images[0] = identity(target_size)
    queue = [0]
    head = 0
    while head < len(queue):
        i = queue[head]
        head += 1
        for gid, gimg in zip(generator_ids, gen_images):
            k = index[compose(elements[i], elements[gid])]
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


def structure_per_relation(n_size, m_size, colors, warnings=()):
    """A ``SharingStructure`` built one ``Relation(c, rows, provenance)`` at a time.

    The reference for the builders' one-table path: ``colors`` lists
    (rows, provenance) per color, color ids count from 1, and each relation
    sorts and de-duplicates its own rows.
    """
    relations = tuple(Relation(k + 1, rows, p) for k, (rows, p) in enumerate(colors))
    return SharingStructure(n_size, m_size, relations, tuple(warnings))


def assert_same_structure(built, reference):
    """Colors, provenance, edges and the stacked table agree; ``built`` is slices of one table.

    Every relation of ``built`` is a read-only slice of its read-only
    ``_stacked_edges`` table.
    """
    assert (built.n_size, built.m_size, built.warnings) == (
        reference.n_size, reference.m_size, reference.warnings
    )
    assert [r.color_id for r in built.relations] == [r.color_id for r in reference.relations]
    assert [r.provenance for r in built.relations] == [r.provenance for r in reference.relations]
    for got, want in zip(built._stacked_edges, reference._stacked_edges, strict=True):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    table = built._stacked_edges[0]
    assert not table.flags.writeable
    for rel, ref in zip(built.relations, reference.relations):
        assert rel.edges.dtype == ref.edges.dtype and np.array_equal(rel.edges, ref.edges)
        assert rel.edges.base is table and not rel.edges.flags.writeable
        try:
            rel.edges.flags.writeable = True
        except ValueError:
            pass  # a view of a read-only array cannot be made writable
        else:
            raise AssertionError(f"relation {rel.color_id}: edges could be made writable")


def channel_colors_per_relation(s, k_in, k_out):
    """(rows, provenance) per color of ``designs.expand_channels``, one relation copy at a time."""
    return [
        (
            [(ki * s.n_size + n, ko * s.m_size + m) for n, m in rel.edges.tolist()],
            {"kind": "channel", "base_color": rel.color_id, "in_channel": ki, "out_channel": ko},
        )
        for ko in range(k_out)
        for ki in range(k_in)
        for rel in s.relations
    ]


def tied_colors_per_relation(s):
    """(rows, provenance) per color of the tied group convolution, by one dict of row lists.

    The relations of the untied sparse structure ``s`` are grouped by
    (output orbit, generator), in relation order, and each group's rows are
    concatenated; the groups are ordered by their key.
    """
    rows, orbits = {}, {}
    for rel in s.relations:
        key = (rel.provenance["m_orbit"], rel.provenance["generator"])
        rows.setdefault(key, []).extend(map(tuple, rel.edges.tolist()))
        orbits.setdefault(key, []).append(rel.provenance["n_orbit"])
    return [
        (rows[key], {"kind": "sparse_tied", "m_orbit": key[0], "generator": key[1],
                     "n_orbits": tuple(orbits[key])})
        for key in sorted(rows)
    ]


def materialize_per_color(cm, theta):
    """W of ``layer.materialize`` by one ``sum`` of a fancy-indexed theta per merged color."""
    theta = np.asarray(theta)
    sums = np.zeros(cm.merged_color_count + 1, dtype=theta.dtype)
    for mid, base in cm.merged_to_base.items():
        sums[mid] = theta[[c - 1 for c in base]].sum()
    return sums[cm.grid]


def dump_mask_reference(doc):
    """The mask bytes by definition: the indented encoding, one step per cell."""
    return json.dumps(doc, indent=2) + "\n"


def to_dot_reference(structure, digraph_mode=False):
    """The DOT bytes by definition: one formatted line per node and per edge."""
    lines = []
    if digraph_mode:
        lines.append("digraph sharing {")
        for i in range(structure.n_size):
            lines.append(f'  v{i} [label="{i}"];')
        for rel in structure.relations:
            if rel.provenance.get("kind") == "identity":
                continue
            style = f'[label="{rel.color_id}", color="{_edge_color(rel.color_id)}"];'
            lines.extend(f"  v{n} -> v{m} {style}" for n, m in rel.edges.tolist())
    else:
        lines.append("graph sharing {")
        lines.append("  rankdir=LR;")
        lines.append("  subgraph cluster_input {")
        lines.append('    label="N";')
        for i in range(structure.n_size):
            lines.append(f'    n{i} [label="{i}"];')
        lines.append("  }")
        lines.append("  subgraph cluster_output {")
        lines.append('    label="M";')
        for j in range(structure.m_size):
            lines.append(f'    m{j} [label="{j}"];')
        lines.append("  }")
        for rel in structure.relations:
            style = f'[label="{rel.color_id}", color="{_edge_color(rel.color_id)}"];'
            lines.extend(f"  n{n} -- m{m} {style}" for n, m in rel.edges.tolist())
    lines.append("}")
    return "\n".join(lines) + "\n"


def bench_conjugate_spec():
    """``conjugate_spec`` of the benchmark script, read from its syntax tree without running it."""
    tree = ast.parse(RUN_PY.read_text())
    body = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "conjugate_spec"]
    namespace = {"json": json, "random": random, "re": re}
    exec(compile(ast.Module(body=body, type_ignores=[]), str(RUN_PY), "exec"), namespace)
    return namespace["conjugate_spec"]
