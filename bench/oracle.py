#!/usr/bin/env python3
"""Recompute the answers in bench/expected without eqtie, and compare.

Groups and orders come from sympy; the dense and sparse designs are rebuilt
here from their definitions (cell orbits of the joint group); automorphism
orders come from networkx's VF2 matcher on the colored bipartite graph. Where
enumeration is out of reach (aut order above 10^4), the script checks the
premise of the analytic count instead: every cell carries the same label, so
aut is all of S_N x S_M.

    python3 bench/oracle.py          # exits 1 on any mismatch

Not part of a timed run; run it after changing the corpus or the expected files.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import networkx as nx
from networkx.algorithms import isomorphism
from sympy.combinatorics import Permutation, PermutationGroup
from sympy.combinatorics.named_groups import CyclicGroup, SymmetricGroup

BENCH = Path(__file__).resolve().parent
ENUMERATION_LIMIT = 10_000
NODE_BUDGET = 24  # eqtie's default; specs above it are never certified


def cycles(text: str, size: int) -> list[int]:
    images = list(range(size))
    body = text.strip()
    if body not in ("", "()"):
        for chunk in body[1:-1].split(")("):
            pts = [int(v) for v in chunk.split()]
            for a, b in zip(pts, pts[1:] + pts[:1]):
                images[a] = b
    return images


def group_order(g: dict) -> int:
    kind = g["kind"]
    if kind == "cyclic":
        return CyclicGroup(g["n"]).order()
    if kind == "symmetric":
        return SymmetricGroup(g["n"]).order()
    if kind == "direct_product":
        return math.prod(group_order(f) for f in g["factors"])
    if kind == "wreath":
        d, b = g["d"], g["blocks"]
        n = d * b
        swap_d = [1, 0] + list(range(2, d))
        cycle_d = list(range(1, d)) + [0]
        gens = [Permutation(p + list(range(d, n))) for p in (swap_d, cycle_d)]
        swap_b = [1, 0] + list(range(2, b))
        cycle_b = list(range(1, b)) + [0]
        for bp in (swap_b, cycle_b):
            gens.append(Permutation([bp[i // d] * d + i % d for i in range(n)]))
        return PermutationGroup(gens).order()
    if kind == "generators":
        return PermutationGroup([Permutation(cycles(c, g["degree"])) for c in g["generators"]]).order()
    raise ValueError(kind)


def compose(p, q):
    """p after q."""
    return [p[j] for j in q]


def point_orbits(gens, size):
    orbit_of = [-1] * size
    reps = []
    for start in range(size):
        if orbit_of[start] < 0:
            orbit_of[start] = len(reps)
            stack = [start]
            while stack:
                x = stack.pop()
                for g in gens:
                    if orbit_of[g[x]] < 0:
                        orbit_of[g[x]] = len(reps)
                        stack.append(g[x])
            reps.append(start)
    return reps


def cell_orbit(pairs, cell):
    seen = {cell}
    stack = [cell]
    while stack:
        n, m = stack.pop()
        for gn, gm in pairs:
            c = (gn[n], gm[m])
            if c not in seen:
                seen.add(c)
                stack.append(c)
    return frozenset(seen)


def relations(spec: dict) -> tuple[int, int, list[frozenset]]:
    n, m = spec["n_action"]["size"], spec["m_action"]["size"]
    gn = [cycles(c, n) for c in spec["n_action"]["generator_images"]]
    gm = [cycles(c, m) for c in spec["m_action"]["generator_images"]]
    pairs = list(zip(gn, gm))
    rels: list[frozenset] = []
    if spec["design"] == "dense":
        covered: set = set()
        for mm in range(m):
            for nn in range(n):
                if (nn, mm) not in covered:
                    rels.append(cell_orbit(pairs, (nn, mm)))
                    covered |= rels[-1]
    else:
        genset = []
        for word in spec["genset"]:
            a = list(range(n))
            for i in word:
                a = compose(a, gn[i])
            genset.append(a)
        n_reps, m_reps = point_orbits(gn, n), point_orbits(gm, m)
        by_key: dict = {}
        for p, np_ in enumerate(n_reps):
            for q, mq in enumerate(m_reps):
                for k, a in enumerate(genset):
                    key = (q, k) if spec.get("tie_across_orbits") else (p, q, k)
                    by_key[key] = by_key.get(key, frozenset()) | cell_orbit(pairs, (a[np_], mq))
        rels = [by_key[k] for k in sorted(by_key)]
    if spec.get("mode") == "digraph":
        rels.append(frozenset((i, i) for i in range(n)))
    ch = spec.get("channels", {"in": 1, "out": 1})
    rels = [
        frozenset((ki * n + a, ko * m + b) for a, b in r)
        for ko in range(ch["out"]) for ki in range(ch["in"]) for r in rels
    ]
    return n * ch["in"], m * ch["out"], rels


def joint_order(spec: dict) -> int:
    n, m = spec["n_action"]["size"], spec["m_action"]["size"]
    gens = [
        Permutation(cycles(a, n) + [n + v for v in cycles(b, m)])
        for a, b in zip(spec["n_action"]["generator_images"], spec["m_action"]["generator_images"])
    ]
    return PermutationGroup(gens).order()


def labels(n, m, rels):
    table = {}
    for color, r in enumerate(rels, start=1):
        for cell in r:
            table.setdefault(cell, set()).add(color)
    return {cell: frozenset(c) for cell, c in table.items()}


def aut_order(n, m, rels, expected: int | None):
    label = labels(n, m, rels)
    if expected is not None and expected > ENUMERATION_LIMIT:
        full = len(label) == n * m and len(set(label.values())) == 1
        return math.factorial(n) * math.factorial(m) if full else None
    g = nx.Graph()
    g.add_nodes_from((("n", i), {"side": 0}) for i in range(n))
    g.add_nodes_from((("m", j), {"side": 1}) for j in range(m))
    g.add_edges_from((("n", a), ("m", b), {"label": lab}) for (a, b), lab in label.items())
    matcher = isomorphism.GraphMatcher(
        g, g,
        node_match=lambda x, y: x["side"] == y["side"],
        edge_match=lambda x, y: x["label"] == y["label"],
    )
    return sum(1 for _ in matcher.isomorphisms_iter())


def main() -> int:
    bad = 0
    for path in sorted((BENCH / "expected").glob("*.json")):
        if path.name == "library.json":
            continue
        want = json.loads(path.read_text())
        spec = json.loads((BENCH / want["spec"]).read_text())
        n, m, rels = relations(spec)
        got = {
            "group_order": group_order(spec["group"]),
            "joint_order": joint_order(spec),
            "base_color_count": len(rels),
            "merged_color_count": len(set(labels(n, m, rels).values())),
        }
        if n + m <= NODE_BUDGET:
            got["aut_order"] = aut_order(n, m, rels, want["aut_order"])
        for key, value in got.items():
            ok = value == want[key]
            bad += not ok
            print(f"{path.stem:<18} {key:<18} {value!s:>12} {'ok' if ok else 'MISMATCH ' + str(want[key])}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
