r"""
Exhaustive generators for the three families, exact counting and
generating-function tables.

All generators are deterministic: Dyck paths come out in lexicographic
order ('d' < 'u'), intervals in lower-major order over path pairs, and
maps in increasing order of their canonical (sigma, alpha) pair. Degree
trees come grouped by plane tree, in the order of its Dyck word, and
within a plane tree in product order: at each node the children's
labellings vary as in ``itertools.product`` (first child outermost) and
the first edge's label, from 0 up, innermost. Words come from the one
bounded Dyck-word search, ``dyck.words_under``. The map
enumerator is independent of the bijections: it grows canonical
permutation pairs one edge at a time from the one-edge map, inserting
the new edge into every black and white corner (or onto a new vertex of
either colour), and keeps a genus-0 result exactly when the new edge is
its last breadth-first edge. That is McKay's canonical augmentation
("Isomorph-free exhaustive generation", 1998): each map is grown once,
from its canonical parent, so nothing is relabelled or deduplicated. It
shares only ``orbits``, ``bfs_edge_order`` and ``HypermapCode`` with
the maps module.
"""

from __future__ import annotations

import math
from functools import cache
from itertools import chain, product
from typing import Iterable, Iterator, Sequence

from .dyck import (DyckPath, NewInterval, bracket_vector, iter_dyck_words,
                   interval_stats, words_under)
from .maps import HypermapCode, bfs_edge_order, orbits
from .trees import DegreeTree, _plane_tree


def enum_dyck(n: int) -> list[DyckPath]:
    """All Dyck paths of size n, lexicographically."""
    if n < 0:
        raise ValueError("size must be non-negative")
    return [DyckPath(w) for w in iter_dyck_words(n)]


def enum_new_intervals(n: int) -> list[NewInterval]:
    """All new intervals of size n, in lower-major order.

    Generated directly: an upper path Q has first up step matching the
    final down step, and the lower paths of Q are exactly the Dyck words
    with V_P(k) <= min(V_Q(k), V_Q(k+1)) where V_Q(k) > 0 and V_P(k) = 0
    elsewhere (Chapoton, arXiv:1809.10981). Each distinct word becomes
    one DyckPath, shared by its intervals."""
    if n < 1:
        raise ValueError("intervals need size >= 1")
    path = cache(DyckPath)
    pairs = []
    for inner in iter_dyck_words(n - 1):
        upper = path('u' + inner + 'd')
        vq = bracket_vector(upper) + (0,)
        bound = [min(vq[k], vq[k + 1]) if vq[k] else 0 for k in range(n)]
        pairs.extend((lower, upper.steps) for lower in words_under(bound))
    pairs.sort()
    return [NewInterval(path(lower), path(upper)) for lower, upper in pairs]


def enum_degree_trees(n: int) -> list[DegreeTree]:
    """All degree trees of size n, in the order given above. Bottom-up
    over reversed preorder, a node's choices are (labels of its subtree's
    edges in preorder, derived label) pairs: a subtree's edges are
    contiguous in preorder, so they are each child's edge label, then
    that child's labels. Its first edge takes 0..l(first child), the
    others 0."""
    if n < 0:
        raise ValueError("size must be non-negative")
    out = []
    for word in iter_dyck_words(n):
        tree = _plane_tree(word.split('u')[:-1], 'd')
        subtree: dict[int, list[tuple[tuple[int, ...], int]]] = {}
        for node in reversed(range(tree.node_count)):
            kids = tree.children[node]
            if not kids:
                subtree[node] = [((), 0)]
                continue
            mine = subtree[node] = []
            for (labs, ell), *rest in product(*map(subtree.pop, kids)):
                tail = tuple(chain.from_iterable((0, *t) for t, _ in rest))
                label = len(kids) + ell + sum(x for _, x in rest)
                mine.extend(((a, *labs, *tail), label - a)
                            for a in range(ell + 1))
        out.extend(DegreeTree(tree, labs) for labs, _ in subtree[0])
    return out


def _insertions(perm: Sequence[int], k: int) -> list[list[int]]:
    """The permutation of 1..k-1 extended to k: k placed right after each
    of 1..k-1 in its cycle, then k as a new fixed point (last)."""
    out = []
    for e in range(1, k):
        p = [*perm, perm[e]]
        p[e] = k
        out.append(p)
    out.append([*perm, k])
    return out


def _grow(level: list[tuple[tuple[int, ...], tuple[int, ...]]],
          k: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Canonical pairs with k edges from the canonical pairs with k - 1.

    Edge k goes into each black corner or onto a new black vertex, and
    into each white corner or onto a new white vertex, never with both
    ends new. A pendant edge keeps genus 0, a chord keeps it if its two
    corners lie on one face of the parent. A pair is kept when k is its
    last BFS edge; it is then canonical and grown once, from its
    canonical parent (itself minus edge k)."""
    out = []
    for sigma, alpha in level:
        # label corners by face: the step e -> sigma[alpha[e]] passes the
        # white corner after e and the black corner after alpha[e]
        white = orbits([sigma[x] for x in alpha], range(1, k))[0]
        black = [0] * k
        for e, a in enumerate(alpha):
            black[a] = white[e]
        alphas = _insertions(alpha, k)
        for b, s in enumerate(_insertions(sigma, k), 1):
            for w, a in enumerate(alphas, 1):
                if b == w == k:   # both ends new: disconnected
                    continue
                if b < k and w < k and black[b] != white[w]:
                    continue   # a chord across two faces
                if bfs_edge_order(s, a, 1)[0][-1] == k:
                    out.append((tuple(s), tuple(a)))
    return sorted(out)


def enum_maps_oracle(n: int) -> list[HypermapCode]:
    """All rooted bipartite planar maps with n edges, as the canonical
    code of each root-preserving isomorphism class, in increasing order of
    their (sigma, alpha) pair.

    Independent of the bijections, by McKay's canonical augmentation. A
    map's canonical parent is the map minus its last edge in
    :func:`~tamari_atlas.maps.bfs_edge_order`: that edge either discovered
    its far end, which has no other edge, or reached a vertex queued
    earlier, so the parent is connected and every other edge keeps its
    BFS place. Growing each canonical pair of size n - 1 by each
    insertion of edge n, and keeping the pairs whose last BFS edge is n,
    yields every map once, already canonically labelled."""
    if n < 0:
        raise ValueError("size must be non-negative")
    if n == 0:
        return [HypermapCode(0, (), (), 0)]
    level = [((0, 1), (0, 1))]   # the one-edge map, index 0 unused
    for k in range(2, n + 1):
        level = _grow(level, k)
    return [HypermapCode(n, sigma[1:], alpha[1:], 1)
            for sigma, alpha in level]


ENUMERATE = {'intervals': enum_new_intervals, 'trees': enum_degree_trees,
             'maps': enum_maps_oracle}


def count_formula(n: int) -> int:
    """Exact number of new intervals of size n, for n >= 2."""
    if n < 2:
        raise ValueError("closed formula applies for n >= 2")
    num = 3 * 2 ** (n - 2) * math.factorial(2 * n - 2)
    den = math.factorial(n - 1) * math.factorial(n + 1)
    if num % den:
        raise RuntimeError("formula did not divide exactly")
    return num // den


GfTable = dict[tuple[int, int, int, int, int], int]


def gf_tally(family: str, objects: Iterable) -> GfTable:
    """Coefficient table of the statistics generating function over the
    given objects of one family.

    Intervals contribute at (n, rcont-1, c00, c01, c11), maps at
    (n, outdeg, black, white, face); values are exact counts.
    """
    if family not in ('intervals', 'maps'):
        raise ValueError(f"unknown family {family!r}")
    table: GfTable = {}
    for obj in objects:
        if family == 'intervals':
            s = interval_stats(obj)
            key = (obj.size, s.rcont - 1, s.c00, s.c01, s.c11)
        else:
            s = obj.stats()
            key = (obj.n, s.outdeg, s.black, s.white, s.face)
        table[key] = table.get(key, 0) + 1
    return table


def gf_table(family: str, max_size: int) -> GfTable:
    """:func:`gf_tally` over every object of the family up to max_size."""
    if family not in ('intervals', 'maps'):
        raise ValueError(f"unknown family {family!r}")
    sizes = range(int(family == 'intervals'), max_size + 1)
    if max_size < sizes.start:
        raise ValueError(f"{family} need size >= {sizes.start}")
    return gf_tally(family, (obj for n in sizes
                             for obj in ENUMERATE[family](n)))


def gf_table_lines(table: GfTable) -> Iterator[str]:
    """Sorted ``n i j k l count`` dump lines."""
    for key in sorted(table):
        yield ' '.join(map(str, key + (table[key],)))
