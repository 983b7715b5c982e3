r"""
Cross-module verification suite.

Every check is exhaustive at desk scale and reports one line; a run
passes when every line passes. The checks cover the counting agreement
between the three families and the closed formula, the statistic
identities and generating-function symmetry, the oracle-vs-bijection set
equality, the structural lemmas behind the bijections, and the face
half-degree multiset identity.
"""

from __future__ import annotations

from collections import Counter
from contextvars import ContextVar
from dataclasses import dataclass
from itertools import permutations as iter_permutations
from typing import Callable, Iterator, Mapping, Sequence

from .bijections import (certificates, interval_to_tree, map_to_interval,
                         map_to_tree, tree_to_interval, tree_to_map)
from .dyck import (NewInterval, bracket_vector, factor_between,
                   interval_stats, rising_contacts)
from .enumeration import (GfTable, count_formula, enum_degree_trees,
                          enum_maps_oracle, enum_new_intervals, gf_tally)
from .maps import HypermapCode, PlanarMap, from_hypermap
from .trees import DegreeTree, node_labels


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    ok: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.ok else 'FAIL'} {self.check_id} {self.detail}"


class _Corpora:
    """Each size of each family and each generating-function table,
    built on first use and kept for the lifetime of the object. Maps are
    kept as their canonical codes and rebuilt on every read, which takes
    a fraction of the memory of the maps themselves."""

    def __init__(self):
        self._built: dict[tuple, object] = {}

    def _get(self, key: tuple, build: Callable[[], object]):
        if key not in self._built:
            self._built[key] = build()
        return self._built[key]

    def map_codes(self, n: int) -> list[HypermapCode]:
        def build():
            maps = enum_maps_oracle(n)
            # code the maps from the back, so each is freed once coded
            codes = [maps.pop().to_hypermap() for _ in range(len(maps))]
            codes.reverse()
            return codes
        return self._get(('maps', n), build)

    def maps(self, n: int) -> Iterator[PlanarMap]:
        return map(from_hypermap, self.map_codes(n))

    def trees(self, n: int) -> list[DegreeTree]:
        return self._get(('trees', n), lambda: enum_degree_trees(n))

    def intervals(self, n: int) -> list[NewInterval]:
        return self._get(('intervals', n), lambda: enum_new_intervals(n))

    def gf(self, family: str, max_size: int) -> GfTable:
        """:func:`~tamari_atlas.enumeration.gf_table` over these corpora."""
        if family == 'maps':
            sizes, objects = range(0, max_size + 1), self.maps
        else:
            sizes, objects = range(1, max_size + 1), self.intervals
        return self._get(('gf', family, max_size), lambda: gf_tally(
            family, (obj for n in sizes for obj in objects(n))))


# the corpora of the running verify_suite call
_SUITE_CORPORA: ContextVar[_Corpora | None] = ContextVar(
    'suite_corpora', default=None)


def _corpora() -> _Corpora:
    """The corpora shared by the checks of one verify_suite call, or
    fresh ones for a check that runs on its own."""
    return _SUITE_CORPORA.get() or _Corpora()


def _result(check_id: str, failures: list[str], detail_ok: str) -> CheckResult:
    if failures:
        return CheckResult(check_id, False, '; '.join(failures[:3]))
    return CheckResult(check_id, True, detail_ok)


def check_counting(n_max: int) -> CheckResult:
    corpora = _corpora()
    fails = []
    total = 0
    for n in range(1, n_max + 1):
        expected = count_formula(n + 1)
        # maps first: their oracle's list is the largest transient object
        maps = len(corpora.map_codes(n))
        got = (len(corpora.intervals(n + 1)), len(corpora.trees(n)), maps)
        total += 1
        if got != (expected, expected, expected):
            fails.append(f"size {n}: formula {expected}, "
                         f"(intervals, trees, maps) = {got}")
    return _result('counting', fails,
                   f"three families and formula agree for sizes 1..{n_max}")


def check_roundtrip_map_tree(n_max: int) -> CheckResult:
    corpora = _corpora()
    fails = []
    count = 0
    for n in range(0, n_max + 1):
        for dt in corpora.trees(n):
            if map_to_tree(tree_to_map(dt)) != dt:
                fails.append(f"tree {dt} not recovered")
            count += 1
        for code in corpora.map_codes(n):
            text = str(code)
            if tree_to_map(map_to_tree(from_hypermap(code))
                           ).canonical_code() != text:
                fails.append(f"map {text} not recovered")
            count += 1
    return _result('roundtrip-map-tree', fails,
                   f"{count} objects, sizes 0..{n_max}")


def check_roundtrip_tree_interval(n_max: int) -> CheckResult:
    corpora = _corpora()
    fails = []
    count = 0
    for n in range(0, n_max + 1):
        for dt in corpora.trees(n):
            if interval_to_tree(tree_to_interval(dt)) != dt:
                fails.append(f"tree {dt} not recovered")
            count += 1
    for n in range(1, n_max + 2):
        for interval in corpora.intervals(n):
            if tree_to_interval(interval_to_tree(interval)) != interval:
                fails.append(f"interval {interval} not recovered")
            count += 1
    return _result('roundtrip-tree-interval', fails,
                   f"{count} objects, tree sizes 0..{n_max}")


def check_theorem_stats(n_max: int) -> CheckResult:
    corpora = _corpora()
    fails = []
    count = 0
    for n in range(1, n_max + 1):
        for m in corpora.maps(n):
            ms = m.stats()
            s = interval_stats(map_to_interval(m))
            if (ms.white, ms.black, ms.face, ms.outdeg) != \
                    (s.c00, s.c01, 1 + s.c11, s.rcont - 1):
                fails.append(f"map {m.canonical_code()}: {ms} vs {s}")
            count += 1
    return _result('theorem-stats', fails, f"{count} maps, sizes 1..{n_max}")


def check_corollary_identity(n_max: int) -> CheckResult:
    corpora = _corpora()
    maps_gf = corpora.gf('maps', n_max)
    ints_gf = corpora.gf('intervals', n_max + 1)
    # t * F_maps matches w * F_intervals: compare the maps entry at
    # (n, i, j, k, l) with the intervals entry at (n + 1, i, j, k, l - 1)
    shifted = {(n + 1, i, j, k, l - 1): c
               for (n, i, j, k, l), c in maps_gf.items()}
    fails = []
    for key in sorted(set(shifted) | set(ints_gf)):
        a, b = shifted.get(key, 0), ints_gf.get(key, 0)
        if a != b:
            fails.append(f"coefficient {key}: maps side {a}, "
                         f"intervals side {b}")
    return _result('corollary-identity', fails,
                   f"{len(ints_gf)} coefficients up to degree {n_max + 1}")


def check_gf_symmetry(n_max: int) -> CheckResult:
    """Symmetry of the w-shifted interval series in its three vertex-style
    variables, with the root-degree variable set to 1 (the refinement by
    outer degree is not symmetric) and starting at degree 2 (the degree-1
    coefficient is the size-zero map exception and stays one-sided)."""
    corpora = _corpora()
    ints_gf = corpora.gf('intervals', n_max + 1)
    table: dict[tuple[int, int, int, int], int] = {}
    for (n, i, j, k, l), c in ints_gf.items():
        if n < 2:
            continue
        key = (n, j, k, l + 1)
        table[key] = table.get(key, 0) + c
    fails = []
    for perm in iter_permutations(range(3)):
        permuted: dict[tuple[int, int, int, int], int] = {}
        for (n, j, k, l), c in table.items():
            exps = (j, k, l)
            key = (n,) + tuple(exps[p] for p in perm)
            permuted[key] = permuted.get(key, 0) + c
        if permuted != table:
            fails.append(f"not symmetric under permutation {perm}")
    return _result('gf-symmetry', fails,
                   f"all 6 permutations, degrees 2..{n_max + 1}")


def check_oracle_equivalence(n_max: int) -> CheckResult:
    corpora = _corpora()
    fails = []
    for n in range(0, n_max + 1):
        oracle = {str(code) for code in corpora.map_codes(n)}
        image = {tree_to_map(dt).canonical_code()
                 for dt in corpora.trees(n)}
        if oracle != image:
            fails.append(f"size {n}: oracle-only {sorted(oracle - image)}, "
                         f"image-only {sorted(image - oracle)}")
    return _result('oracle-equivalence', fails,
                   f"canonical-code sets equal for sizes 0..{n_max}")


def _internal_half_degrees(m: PlanarMap) -> Counter:
    outer = frozenset(m.outer_face())
    out: Counter = Counter()
    for orbit in m.face_orbits():
        if frozenset(orbit) != outer:
            out[len(orbit) // 2] += 1
    return out


def check_face_multiset(n_max: int) -> CheckResult:
    corpora = _corpora()
    fails = []
    count = 0
    for n in range(0, n_max + 1):
        for m in corpora.maps(n):
            faces = _internal_half_degrees(m)
            dt = map_to_tree(m)
            labels = Counter(x for x in dt.edge_labels if x > 0)
            interval = tree_to_interval(dt)
            contacts: Counter = Counter()
            for node in range(dt.tree.node_count):
                kids = dt.tree.children[node]
                if kids:
                    r = rising_contacts(
                        factor_between(interval.lower, node + 1))
                    if r > 0:
                        contacts[r] += 1
            if not faces == labels == contacts:
                fails.append(f"map {m.canonical_code()}: faces {dict(faces)}, "
                             f"labels {dict(labels)}, "
                             f"contacts {dict(contacts)}")
            count += 1
    return _result('face-multiset', fails, f"{count} maps, sizes 0..{n_max}")


def check_node_label_lemma(n_max: int) -> CheckResult:
    corpora = _corpora()
    fails = []
    count = 0
    for n in range(0, n_max + 1):
        for dt in corpora.trees(n):
            ell = node_labels(dt)
            sizes = dt.tree.subtree_sizes()
            subtree_label_sum = [0] * dt.tree.node_count
            for v in reversed(range(dt.tree.node_count)):
                subtree_label_sum[v] = sum(
                    subtree_label_sum[c] + dt.label_of(c)
                    for c in dt.tree.children[v])
            for v in range(dt.tree.node_count):
                if ell[v] != sizes[v] - subtree_label_sum[v]:
                    fails.append(f"tree {dt} node {v}: label {ell[v]} != "
                                 f"{sizes[v]} - {subtree_label_sum[v]}")
                if ell[v] < 0 or (ell[v] == 0) != (sizes[v] == 0):
                    fails.append(f"tree {dt} node {v}: positivity violated")
            count += 1
    return _result('node-label-lemma', fails,
                   f"{count} trees, sizes 0..{n_max}")


def check_certificate_location(n_max: int) -> CheckResult:
    corpora = _corpora()
    fails = []
    count = 0
    for n in range(0, n_max + 1):
        for dt in corpora.trees(n):
            cert = certificates(dt).certificate
            sizes = dt.tree.subtree_sizes()
            for v in range(dt.tree.node_count):
                w = cert[v]
                if w == v:
                    continue
                kids = dt.tree.children[v]
                if not kids:
                    fails.append(f"tree {dt}: leaf {v} certified by {w}")
                    continue
                first = kids[0]
                last = first + sizes[first]
                if not first <= w < last:
                    fails.append(f"tree {dt}: certificate {w} of {v} outside "
                                 f"leftmost subtree [{first}, {last}]")
            count += 1
    return _result('certificate-location', fails,
                   f"{count} trees, sizes 0..{n_max}")


def check_certificate_nesting(n_max: int) -> CheckResult:
    corpora = _corpora()
    fails = []
    count = 0
    for n in range(0, n_max + 1):
        for dt in corpora.trees(n):
            cert = certificates(dt).certificate
            n1 = dt.tree.node_count
            for v in range(n1):
                for v2 in range(v + 1, n1):
                    if v2 < cert[v] < cert[v2]:
                        fails.append(f"tree {dt}: crossing certificates "
                                     f"at {v}, {v2}")
                    if v2 != cert[v2] and cert[v] == v2:
                        fails.append(f"tree {dt}: node {v2} is both a "
                                     f"certifier target and forwards")
            count += 1
    return _result('certificate-nesting', fails,
                   f"{count} trees, sizes 0..{n_max}")


def _leftmost_branch(kids: Mapping[int, Sequence[int]], root: int
                     ) -> list[int]:
    out = [root]
    while kids.get(out[-1]):
        out.append(kids[out[-1]][0])
    return out


def _trace_shape_violation(w: PlanarMap, current: int, root: int,
                           children: Mapping[int, Sequence[int]]
                           ) -> str | None:
    tree_darts = [d for d in w.darts() if w.tag_of(d) == 'T']
    tree_vertices = {w.vertex_of(d) for d in tree_darts} | {root}
    if len(tree_darts) != 2 * (len(tree_vertices) - 1):
        return "tree-tagged edges do not form a tree"
    recorded = set(children)
    for kids in children.values():
        recorded |= set(kids)
    if recorded != tree_vertices:
        return "recorded tree nodes disagree with tree-tagged edges"

    # connected components of the map-tagged edges
    adj: dict[int, set[int]] = {}
    for d in w.darts():
        if w.tag_of(d) == 'M':
            a, b = w.vertex_of(d), w.vertex_of(w.mate(d))
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
    seen: set[int] = set()
    branch = _leftmost_branch(children, root)
    deepest_attached = None
    for start in adj:
        if start in seen:
            continue
        comp = {start}
        frontier = [start]
        while frontier:
            x = frontier.pop()
            for y in adj[x]:
                if y not in comp:
                    comp.add(y)
                    frontier.append(y)
        seen |= comp
        attach = comp & tree_vertices
        if len(attach) != 1:
            return (f"component attached to {len(attach)} tree nodes, "
                    "expected 1")
        node = next(iter(attach))
        if node not in branch:
            return "component attached off the leftmost branch"
        if deepest_attached is None or \
                branch.index(node) > branch.index(deepest_attached):
            deepest_attached = node
    if deepest_attached is not None and current != deepest_attached:
        return "current vertex is not the deepest attachment"
    return None


def check_trace_shape(n_max: int) -> CheckResult:
    corpora = _corpora()
    fails = []
    found: list[str | None] = []    # one entry per prepare step of a map

    def on_step(kind, *state):
        if kind == 'prepare':
            found.append(_trace_shape_violation(*state))

    count = 0
    for n in range(0, n_max + 1):
        for m in corpora.maps(n):
            map_to_tree(m, trace=on_step)
            fails += [f"map {m.canonical_code()}: {bad}" for bad in found
                      if bad is not None]
            count += len(found)
            found.clear()
    return _result('trace-shape', fails,
                   f"{count} prepare steps, sizes 0..{n_max}")


def check_trace_reversal(n_max: int) -> CheckResult:
    """Advance steps of the map direction, reversed, match the tree
    direction's steps case for case."""
    corpora = _corpora()
    fails = []
    count = 0
    advance = {'A1', 'A2', 'A3'}
    for n in range(0, n_max + 1):
        for dt in corpora.trees(n):
            fwd: list[str] = []
            back: list[str] = []
            m = tree_to_map(dt, trace=lambda kind, *_: back.append(kind))
            map_to_tree(m, trace=lambda kind, *_: fwd.append(kind))
            kinds_fwd = [k for k in fwd if k in advance]
            kinds_back = [k[:-1] for k in back if k.endswith("'")]
            if kinds_fwd != list(reversed(kinds_back)):
                fails.append(f"tree {dt}: {kinds_fwd} vs "
                             f"reversed {kinds_back}")
            count += 1
    return _result('trace-reversal', fails,
                   f"{count} trees, sizes 0..{n_max}")


def check_rising_contact_labels(n_max: int) -> CheckResult:
    corpora = _corpora()
    fails = []
    count = 0
    for n in range(0, n_max + 1):
        for dt in corpora.trees(n):
            interval = tree_to_interval(dt)
            for node in range(dt.tree.node_count):
                kids = dt.tree.children[node]
                if not kids:
                    continue
                r = rising_contacts(factor_between(interval.lower, node + 1))
                if r != dt.label_of(kids[0]):
                    fails.append(f"tree {dt} node {node}: contacts {r}, "
                                 f"label {dt.label_of(kids[0])}")
                count += 1
    return _result('rising-contact-labels', fails,
                   f"{count} leftmost edges, sizes 0..{n_max}")


def check_upper_bracket_subtrees(n_max: int) -> CheckResult:
    corpora = _corpora()
    fails = []
    count = 0
    for n in range(0, n_max + 1):
        for dt in corpora.trees(n):
            interval = tree_to_interval(dt)
            vq = bracket_vector(interval.upper)
            expect = dt.tree.subtree_sizes()
            if vq != expect:
                fails.append(f"tree {dt}: brackets {vq}, expected {expect}")
            count += 1
    return _result('upper-bracket-subtrees', fails,
                   f"{count} intervals, sizes 0..{n_max}")


def check_one_face_specialization(n_max: int) -> CheckResult:
    corpora = _corpora()
    fails = []
    count = 0
    for n in range(0, n_max + 1):
        for m in corpora.maps(n):
            if m.edge_count > 0 and len(m.face_orbits()) != 1:
                continue
            dt = map_to_tree(m)
            if any(dt.edge_labels):
                fails.append(f"map {m.canonical_code()}: labels "
                             f"{dt.edge_labels}")
            count += 1
    return _result('one-face-specialization', fails,
                   f"{count} one-face maps, sizes 0..{n_max}")


def check_bridge_agreement(n_max: int) -> CheckResult:
    corpora = _corpora()
    fails = []
    count = 0
    for n in range(1, n_max + 1):
        for m in corpora.maps(n):
            for d in m.darts():
                by_face = m.mate(d) in m.face_of(d)
                cut = m.copy()
                e = cut.edge_key(d)
                cut.delete_edge(d)
                comp = 0
                seen: set[int] = set()
                for v in cut.vertices():
                    if v in seen:
                        continue
                    comp += 1
                    frontier = [v]
                    seen.add(v)
                    while frontier:
                        x = frontier.pop()
                        for dd in cut.vertex_darts(x):
                            y = cut.vertex_of(cut.mate(dd))
                            if y not in seen:
                                seen.add(y)
                                frontier.append(y)
                by_cut = comp > 1
                if m.is_bridge(d) != by_face or m.is_bridge(d) != by_cut:
                    fails.append(f"map {m.canonical_code()} edge {e}: "
                                 f"face {by_face}, cut {by_cut}")
                count += 1
    return _result('bridge-agreement', fails,
                   f"{count} darts, sizes 1..{n_max}")


def check_map_sanity(n_max: int) -> CheckResult:
    """Euler relation and even face degrees on every enumerated map."""
    corpora = _corpora()
    fails = []
    count = 0
    for n in range(0, n_max + 1):
        for m in corpora.maps(n):
            faces = m.face_orbits()
            v = len(m.vertices()) or 1
            if v - m.edge_count + (len(faces) or 1) != 2:
                fails.append(f"map {m.canonical_code()}: Euler fails")
            if any(len(orbit) % 2 for orbit in faces):
                fails.append(f"map {m.canonical_code()}: odd face degree")
            count += 1
    return _result('map-sanity', fails, f"{count} maps, sizes 0..{n_max}")


def verify_suite(n_max: int) -> list[CheckResult]:
    """Run every check, bounded by n_max (maps and trees capped at 6
    edges, intervals one size larger). Results come back sorted by check
    id."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    maps_n = min(n_max, 6)
    tree_n = min(n_max, 6)
    token = _SUITE_CORPORA.set(_Corpora())
    try:
        results = [
            check_counting(maps_n),
            check_roundtrip_map_tree(min(maps_n, 5)),
            check_roundtrip_tree_interval(min(tree_n, 5)),
            check_theorem_stats(min(maps_n, 5)),
            check_corollary_identity(maps_n),
            check_gf_symmetry(maps_n),
            check_oracle_equivalence(min(maps_n, 5)),
            check_face_multiset(min(maps_n, 5)),
            check_node_label_lemma(tree_n),
            check_certificate_location(tree_n),
            check_certificate_nesting(tree_n),
            check_trace_shape(min(maps_n, 4)),
            check_trace_reversal(min(tree_n, 4)),
            check_rising_contact_labels(tree_n),
            check_upper_bracket_subtrees(tree_n),
            check_one_face_specialization(maps_n),
            check_bridge_agreement(min(maps_n, 5)),
            check_map_sanity(maps_n),
        ]
    finally:
        _SUITE_CORPORA.reset(token)
    return sorted(results, key=lambda r: r.check_id)


def report_lines(results: list[CheckResult]) -> list[str]:
    return [r.line() for r in results]
