r"""
Exhaustive generators for the three families, exact counting and
generating-function tables.

All generators are deterministic: Dyck paths come out in lexicographic
order ('d' < 'u'), intervals in lower-major order over path pairs, degree
trees grouped by underlying tree with label choices ascending, and maps
in first-seen order of the permutation-pair scan. The map enumerator is
independent of the bijections: it scans all pairs of permutations acting
on edge ids, keeps the genus-0 pairs, and retains exactly the canonically
labelled representative of each root-preserving isomorphism class. Both
it and ``PlanarMap.canonical_code`` label edges with the one
breadth-first search of ``maps.bfs_edge_order``, so the oracle shares
code with the maps module only.
"""

from __future__ import annotations

import math
from itertools import permutations
from typing import Iterator

from .dyck import (DyckPath, NewInterval, bracket_vector, iter_dyck_words,
                   interval_stats)
from .maps import (HypermapCode, PlanarMap, bfs_edge_order, from_hypermap,
                   perm_cycles)
from .trees import DegreeTree, PlaneTree, dyck_to_plane_tree


def enum_dyck(n: int) -> list[DyckPath]:
    """All Dyck paths of size n, lexicographically."""
    if n < 0:
        raise ValueError("size must be non-negative")
    return [DyckPath(w) for w in iter_dyck_words(n)]


def enum_new_intervals(n: int) -> list[NewInterval]:
    """All new intervals of size n, by filtering pairs of Dyck paths."""
    if n < 1:
        raise ValueError("intervals need size >= 1")
    paths = enum_dyck(n)
    vectors = [bracket_vector(p) for p in paths]
    out = []
    for i, lower in enumerate(paths):
        vp = vectors[i]
        for j, upper in enumerate(paths):
            vq = vectors[j]
            if vq[0] != n - 1:
                continue
            if any(a > b for a, b in zip(vp, vq)):
                continue
            if any(vq[k] > 0 and vp[k] > (vq[k + 1] if k + 1 < n else 0)
                   for k in range(n)):
                continue
            out.append(NewInterval(lower, upper))
    return out


def _label_choices(tree: PlaneTree) -> list[tuple[dict[int, int], int]]:
    """All admissible label assignments on the tree, as (edge labels by
    child node, derived root label) pairs. Built bottom-up over reversed
    preorder: the choices on a node's subtree combine its children's."""
    subtree: dict[int, list[tuple[dict[int, int], int]]] = {}
    for node in reversed(range(tree.node_count)):
        kids = tree.children[node]
        if not kids:
            subtree[node] = [({}, 0)]
            continue
        per_child = [subtree.pop(c) for c in kids]
        first = per_child[0]
        rest = per_child[1:]
        out = []
        rest_combos: list[tuple[dict[int, int], int]] = [({}, 0)]
        for choices in rest:
            rest_combos = [({**acc, **lab}, s + ell)
                           for acc, s in rest_combos for lab, ell in choices]
        k = len(kids)
        for lab1, ell1 in first:
            for labr, sumr in rest_combos:
                for a in range(ell1 + 1):
                    labs = {**lab1, **labr, kids[0]: a}
                    out.append((labs, k - a + ell1 + sumr))
        subtree[node] = out
    return subtree[0]


def enum_degree_trees(n: int) -> list[DegreeTree]:
    """All degree trees of size n."""
    if n < 0:
        raise ValueError("size must be non-negative")
    out = []
    for word in iter_dyck_words(n):
        tree = dyck_to_plane_tree(DyckPath(word))
        for labs, _ in _label_choices(tree):
            out.append(DegreeTree(tree, tuple(labs.get(v, 0)
                                              for v in range(1, n + 1))))
    return out


def enum_maps_oracle(n: int) -> list[PlanarMap]:
    """All rooted bipartite planar maps with n edges, one canonically
    labelled representative per root-preserving isomorphism class.

    Independent of the bijections: scans permutation pairs with root edge
    1 and keeps the genus-0 ones whose breadth-first edge order
    (:func:`~tamari_atlas.maps.bfs_edge_order`, the search behind every
    canonical code) is the identity, which makes them transitive and
    canonically labelled.
    """
    if n < 0:
        raise ValueError("size must be non-negative")
    if n == 0:
        return [from_hypermap(HypermapCode(0, (), (), 0))]
    ids = range(1, n + 1)
    identity = list(ids)
    # permutations of 1..n, index 0 unused, and their cycle counts
    perms = [(0,) + p for p in permutations(ids)]
    cycle_counts = [len(perm_cycles(p, ids)) for p in perms]
    out = []
    for sigma, c_sigma in zip(perms, cycle_counts):
        for alpha, c_alpha in zip(perms, cycle_counts):
            faces = [sigma[a] for a in alpha]
            if c_sigma + c_alpha + len(perm_cycles(faces, ids)) != n + 2:
                continue
            if bfs_edge_order(sigma, alpha, 1) == identity:
                out.append(from_hypermap(
                    HypermapCode(n, sigma[1:], alpha[1:], 1)))
    return out


def count_formula(n: int) -> int:
    """Exact number of new intervals of size n, for n >= 2."""
    if n < 2:
        raise ValueError("closed formula applies for n >= 2")
    num = 3 * 2 ** (n - 2) * math.factorial(2 * n - 2)
    den = math.factorial(n - 1) * math.factorial(n + 1)
    if num % den:
        raise AssertionError("formula did not divide exactly")
    return num // den


GfTable = dict[tuple[int, int, int, int, int], int]


def gf_table(family: str, max_size: int) -> GfTable:
    """Coefficient table of the statistics generating function.

    Intervals contribute at (n, rcont-1, c00, c01, c11), maps at
    (n, outdeg, black, white, face); values are exact counts.
    """
    table: GfTable = {}
    if family == 'intervals':
        for n in range(1, max_size + 1):
            for interval in enum_new_intervals(n):
                s = interval_stats(interval)
                key = (n, s.rcont - 1, s.c00, s.c01, s.c11)
                table[key] = table.get(key, 0) + 1
    elif family == 'maps':
        for n in range(0, max_size + 1):
            for m in enum_maps_oracle(n):
                s = m.stats()
                key = (n, s.outdeg, s.black, s.white, s.face)
                table[key] = table.get(key, 0) + 1
    else:
        raise ValueError(f"unknown family {family!r}")
    return table


def gf_table_lines(table: GfTable) -> Iterator[str]:
    """Sorted ``n i j k l count`` dump lines."""
    for key in sorted(table):
        yield ' '.join(map(str, key + (table[key],)))
