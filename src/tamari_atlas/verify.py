r"""
Cross-module verification suite.

Every check is exhaustive at desk scale and reports one line; a run
passes when every line passes. The checks cover the counting agreement
between the three families and the closed formula, the statistic
identities and generating-function symmetry, the oracle-vs-bijection set
equality, the structural lemmas behind the bijections, and the face
half-degree multiset identity.

Most checks test one object at a time through :func:`_each`: a failure
names its object, even when a bijection raises on it, and a pass counts
the objects of each family with the sizes they were read at.

One memo, :func:`once`, makes each enumeration, generating-function
tally and untraced map_to_tree or tree_to_map image once per
:func:`verify_suite` call. Interval images cost more memory than they
save time, and a traced run watches a live working map: neither is kept.
"""

from __future__ import annotations

from collections import Counter
from contextvars import ContextVar
from dataclasses import dataclass
from functools import partial
from itertools import permutations as iter_permutations
from typing import Callable, Iterable, Mapping, Sequence

from .bijections import (certificates, interval_to_tree, map_to_tree,
                         tree_to_interval, tree_to_map)
from .dyck import (bracket_vector, factor_between, interval_stats,
                   rising_contacts)
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


_MEMO: ContextVar[dict] = ContextVar('memo')


class _Memo:
    """Keeps the calls made through :func:`once` while it is entered, in
    the enclosing memo if there is one: the memo of one
    :func:`verify_suite` call, or of one check that runs on its own."""

    def __enter__(self):
        self._token = _MEMO.set(_MEMO.get({}))

    def __exit__(self, *exc_info):
        _MEMO.reset(self._token)


def once(fn: Callable, *args):
    """``fn(*args)``, made once per memo and kept until the memo ends, or
    made afresh outside one. A call that raises is not kept, so the next
    check that needs it makes it again."""
    memo = _MEMO.get({})
    key = (fn, *args)
    if key not in memo:
        memo[key] = fn(*args)
    return memo[key]


def _family(family: str, n: int) -> list:
    """Size n of 'maps' (the oracle's HypermapCodes), 'trees' or 'intervals'
    through :func:`once`, by the enumerator bound here at call time."""
    return once({'maps': enum_maps_oracle, 'trees': enum_degree_trees,
                 'intervals': enum_new_intervals}[family], n)


def _gf(family: str, sizes: range) -> GfTable:
    return gf_tally(family, (obj for n in sizes for obj in _family(family, n)))


def _result(check_id: str, failures: list[str], detail_ok: str) -> CheckResult:
    if not failures:
        return CheckResult(check_id, True, detail_ok)
    more = [f"and {len(failures) - 3} more"] if len(failures) > 3 else []
    return CheckResult(check_id, False, '; '.join(failures[:3] + more))


def _each(check_id: str, test: Callable[[object], Iterable[str]],
          *sources: tuple[str, range],
          keep: Callable[[object], bool] = lambda obj: True) -> CheckResult:
    """Run ``test`` on every object that ``keep`` admits of each source, a
    family of :func:`_family` and a range of sizes. The test yields the
    object's problems; a ValueError or RuntimeError it raises is the
    object's one problem, and the other objects still run. A failure names
    its object; a pass counts the objects tested of each source."""
    fails: list[str] = []
    counts = []
    with _Memo():
        for family, sizes in sources:
            count = 0
            for n in sizes:
                for obj in _family(family, n):
                    if not keep(obj):
                        continue
                    try:
                        problems = list(test(obj))
                    except (RuntimeError, ValueError) as exc:
                        problems = [f"raised {type(exc).__name__}: {exc}"]
                    # the family's singular names the object
                    fails += [f"{family[:-1]} {obj}: {p}" for p in problems]
                    count += 1
            counts.append(
                f"{count} {family}, sizes {sizes.start}..{sizes.stop - 1}")
    return _result(check_id, fails, '; '.join(counts))


def check_counting(n_max: int) -> CheckResult:
    fails = []
    for n in range(1, n_max + 1):
        expected = count_formula(n + 1)
        # maps first: their oracle's list is the largest transient object
        maps = len(_family('maps', n))
        got = (len(_family('intervals', n + 1)), len(_family('trees', n)),
               maps)
        if got != (expected, expected, expected):
            fails.append(f"size {n}: formula {expected}, "
                         f"(intervals, trees, maps) = {got}")
    return _result('counting', fails,
                   f"three families and formula agree for sizes 1..{n_max}")


def _round_trip(to_other: Callable, to_tree: Callable) -> Callable:
    """Test that a tree, or an object of the other family, comes back
    through the two bijections."""
    def test(obj) -> Iterable[str]:
        there, back = ((to_other, to_tree) if isinstance(obj, DegreeTree)
                       else (to_tree, to_other))
        if back(there(obj)) != obj:
            yield "not recovered"
    return test


def check_roundtrip_map_tree(n_max: int) -> CheckResult:
    sizes = range(0, n_max + 1)
    return _each('roundtrip-map-tree',
                 _round_trip(partial(once, tree_to_map),
                             partial(once, map_to_tree)),
                 ('trees', sizes), ('maps', sizes))


def check_roundtrip_tree_interval(n_max: int) -> CheckResult:
    return _each('roundtrip-tree-interval',
                 _round_trip(tree_to_interval, interval_to_tree),
                 ('trees', range(0, n_max + 1)),
                 ('intervals', range(1, n_max + 2)))


def check_theorem_stats(n_max: int) -> CheckResult:
    def test(code: HypermapCode) -> Iterable[str]:
        ms = code.stats()
        s = interval_stats(tree_to_interval(once(map_to_tree, code)))
        if (ms.white, ms.black, ms.face, ms.outdeg) != \
                (s.c00, s.c01, 1 + s.c11, s.rcont - 1):
            yield f"{ms} vs {s}"
    return _each('theorem-stats', test, ('maps', range(1, n_max + 1)))


def check_corollary_identity(n_max: int) -> CheckResult:
    maps_gf = once(_gf, 'maps', range(0, n_max + 1))
    ints_gf = once(_gf, 'intervals', range(1, n_max + 2))
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
    ints_gf = once(_gf, 'intervals', range(1, n_max + 2))
    table: Counter = Counter()
    for (n, i, j, k, l), c in ints_gf.items():
        if n >= 2:
            table[n, j, k, l + 1] += c
    fails = []
    for perm in iter_permutations(range(3)):
        permuted: Counter = Counter()
        for (n, *exps), c in table.items():
            permuted[(n, *(exps[p] for p in perm))] += c
        if permuted != table:
            fails.append(f"not symmetric under permutation {perm}")
    return _result('gf-symmetry', fails,
                   f"all 6 permutations, degrees 2..{n_max + 1}")


def check_oracle_equivalence(n_max: int) -> CheckResult:
    fails = []
    for n in range(0, n_max + 1):
        # canonical codes: equal codes are the same rooted map
        oracle = set(_family('maps', n))
        image = {once(tree_to_map, dt) for dt in _family('trees', n)}
        if oracle != image:
            fails.append(f"size {n}: "
                         f"oracle-only {sorted(map(str, oracle - image))}, "
                         f"image-only {sorted(map(str, image - oracle))}")
    return _result('oracle-equivalence', fails,
                   f"canonical-code sets equal for sizes 0..{n_max}")


def check_face_multiset(n_max: int) -> CheckResult:
    def test(code: HypermapCode) -> Iterable[str]:
        # a face cycle's length is its face's half-degree
        faces = Counter(len(c) for c in code.face_cycles()
                        if code.root not in c)
        dt = once(map_to_tree, code)
        labels = Counter(x for x in dt.edge_labels if x > 0)
        interval = tree_to_interval(dt)
        contacts: Counter = Counter()
        for node in range(dt.tree.node_count):
            kids = dt.tree.children[node]
            if kids:
                r = rising_contacts(factor_between(interval.lower, node + 1))
                if r > 0:
                    contacts[r] += 1
        if not faces == labels == contacts:
            yield (f"faces {dict(faces)}, labels {dict(labels)}, "
                   f"contacts {dict(contacts)}")
    return _each('face-multiset', test, ('maps', range(0, n_max + 1)))


def check_node_label_lemma(n_max: int) -> CheckResult:
    def test(dt: DegreeTree) -> Iterable[str]:
        ell = node_labels(dt)
        sizes = dt.tree.subtree_sizes()
        subtree_label_sum = [0] * dt.tree.node_count
        for v in reversed(range(dt.tree.node_count)):
            subtree_label_sum[v] = sum(
                subtree_label_sum[c] + dt.label_of(c)
                for c in dt.tree.children[v])
        for v in range(dt.tree.node_count):
            if ell[v] != sizes[v] - subtree_label_sum[v]:
                yield (f"node {v}: label {ell[v]} != "
                       f"{sizes[v]} - {subtree_label_sum[v]}")
            if ell[v] < 0 or (ell[v] == 0) != (sizes[v] == 0):
                yield f"node {v}: positivity violated"
    return _each('node-label-lemma', test, ('trees', range(0, n_max + 1)))


def check_certificate_location(n_max: int) -> CheckResult:
    def test(dt: DegreeTree) -> Iterable[str]:
        cert = certificates(dt).certificate
        sizes = dt.tree.subtree_sizes()
        for v in range(dt.tree.node_count):
            w = cert[v]
            if w == v:
                continue
            kids = dt.tree.children[v]
            if not kids:
                yield f"leaf {v} certified by {w}"
                continue
            first = kids[0]
            last = first + sizes[first]
            if not first <= w < last:
                yield (f"certificate {w} of {v} outside "
                       f"leftmost subtree [{first}, {last}]")
    return _each('certificate-location', test, ('trees', range(0, n_max + 1)))


def check_certificate_nesting(n_max: int) -> CheckResult:
    def test(dt: DegreeTree) -> Iterable[str]:
        cert = certificates(dt).certificate
        n1 = dt.tree.node_count
        for v in range(n1):
            for v2 in range(v + 1, n1):
                if v2 < cert[v] < cert[v2]:
                    yield f"crossing certificates at {v}, {v2}"
                if v2 != cert[v2] and cert[v] == v2:
                    yield f"node {v2} is both a certifier target and forwards"
    return _each('certificate-nesting', test, ('trees', range(0, n_max + 1)))


def _reached(w: PlanarMap, start: int, crosses: Callable[[int], bool]
             ) -> set[int]:
    """Vertices of w reached from ``start`` along the darts that
    ``crosses`` admits; the one vertex search of the checks."""
    seen = {start}
    frontier = [start]
    while frontier:
        for d in w.vertex_darts(frontier.pop()):
            y = w.vertex_of(w.mate(d))
            if y not in seen and crosses(d):
                seen.add(y)
                frontier.append(y)
    return seen


def separates(w: PlanarMap, d: int) -> bool:
    """Cut test: a vertex search from one end of d's edge that does not
    cross the edge misses the other end."""
    m = w.mate(d)
    return w.vertex_of(m) not in _reached(w, w.vertex_of(d),
                                          lambda x: x not in (d, m))


def _trace_shape_violation(w: PlanarMap, current: int, root: int,
                           children: Mapping[int, Sequence[int]]
                           ) -> str | None:
    tree_darts = [d for d in w.darts() if w.tag_of(d) == 'T']
    tree_vertices = {w.vertex_of(d) for d in tree_darts} | {root}
    if len(tree_darts) != 2 * (len(tree_vertices) - 1):
        return "tree-tagged edges do not form a tree"
    recorded = set(children).union(*children.values())
    if recorded != tree_vertices:
        return "recorded tree nodes disagree with tree-tagged edges"

    # connected components of the map-tagged edges
    seen: set[int] = set()
    branch = [root]
    while children.get(branch[-1]):
        branch.append(children[branch[-1]][0])
    deepest_attached = None
    for d in w.darts():
        if w.tag_of(d) != 'M' or w.vertex_of(d) in seen:
            continue
        comp = _reached(w, w.vertex_of(d), lambda x: w.tag_of(x) == 'M')
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
    def test(code: HypermapCode) -> Iterable[str]:
        found: list[str | None] = []    # one entry per prepare step

        def on_step(kind, *state):
            if kind == 'prepare':
                found.append(_trace_shape_violation(*state))

        map_to_tree(code, trace=on_step)
        yield from (bad for bad in found if bad is not None)
    return _each('trace-shape', test, ('maps', range(0, n_max + 1)))


def check_trace_reversal(n_max: int) -> CheckResult:
    """Advance steps of the map direction, reversed, match the tree
    direction's steps case for case."""
    advance = {'A1', 'A2', 'A3'}

    def test(dt: DegreeTree) -> Iterable[str]:
        fwd: list[str] = []
        back: list[str] = []
        m = tree_to_map(dt, trace=lambda kind, *_: back.append(kind))
        map_to_tree(m, trace=lambda kind, *_: fwd.append(kind))
        kinds_fwd = [k for k in fwd if k in advance]
        kinds_back = [k[:-1] for k in back if k.endswith("'")]
        if kinds_fwd != list(reversed(kinds_back)):
            yield f"{kinds_fwd} vs reversed {kinds_back}"
    return _each('trace-reversal', test, ('trees', range(0, n_max + 1)))


def check_rising_contact_labels(n_max: int) -> CheckResult:
    def test(dt: DegreeTree) -> Iterable[str]:
        interval = tree_to_interval(dt)
        for node in range(dt.tree.node_count):
            kids = dt.tree.children[node]
            if not kids:
                continue
            r = rising_contacts(factor_between(interval.lower, node + 1))
            if r != dt.label_of(kids[0]):
                yield (f"node {node}: contacts {r}, "
                       f"label {dt.label_of(kids[0])}")
    return _each('rising-contact-labels', test,
                 ('trees', range(0, n_max + 1)))


def check_upper_bracket_subtrees(n_max: int) -> CheckResult:
    def test(dt: DegreeTree) -> Iterable[str]:
        vq = bracket_vector(tree_to_interval(dt).upper)
        expect = dt.tree.subtree_sizes()
        if vq != expect:
            yield f"brackets {vq}, expected {expect}"
    return _each('upper-bracket-subtrees', test,
                 ('trees', range(0, n_max + 1)))


def check_one_face_specialization(n_max: int) -> CheckResult:
    def test(code: HypermapCode) -> Iterable[str]:
        labels = once(map_to_tree, code).edge_labels
        if any(labels):
            yield f"labels {labels}"
    return _each('one-face-specialization', test,
                 ('maps', range(0, n_max + 1)),
                 keep=lambda code: code.n == 0 or len(code.face_cycles()) == 1)


def check_bridge_agreement(n_max: int) -> CheckResult:
    """Each advance step of map_to_tree against its live working map just
    before it: A1 or A2 exactly when the cut test finds the pending edge a
    bridge, else A3 labelled half the length of the face across it. The
    pending edge: the root corner's, then the map dart after a tree dart."""
    want: list[str | int] = []  # per pending edge: 'bridge' or half-degree
    got: list[str | int] = []   # per step: 'bridge' or the new edge's label

    def decide(w: PlanarMap, d: int) -> str | int:
        return ('bridge' if separates(w, d)
                else len(w.face_of(w.mate(d))) // 2)

    def on_step(kind, w, cur, root, children):
        if kind == 'prepare':   # the pending edge follows a tree dart
            want.extend(decide(w, d) for d in w.vertex_darts(cur)
                        if (w.tag_of(w.prev_cw(d)), w.tag_of(d)) == ('T', 'M'))
        elif kind == 'A3':   # the new tree edge is the one at cur
            got.extend(w.edge_label(x) for x in w.vertex_darts(cur)
                       if w.tag_of(x) == 'T')
        elif kind != 'backtrack':
            got.append('bridge')

    def test(code: HypermapCode) -> Iterable[str]:
        first = from_hypermap(code)
        want[:] = [decide(first, first.root_corner)]
        got.clear()
        map_to_tree(code, trace=on_step)
        if got != want:
            yield f"steps {got}, expected {want}"
    return _each('bridge-agreement', test, ('maps', range(1, n_max + 1)))


def check_map_sanity(n_max: int) -> CheckResult:
    """Euler relation and even face degrees on every enumerated map."""
    def test(code: HypermapCode) -> Iterable[str]:
        m = from_hypermap(code)
        degree = m.faces()[1]
        v = len(m.vertices()) or 1
        if v - m.edge_count + (len(degree) or 1) != 2:
            yield "Euler fails"
        if any(k % 2 for k in degree):
            yield "odd face degree"
    return _each('map-sanity', test, ('maps', range(0, n_max + 1)))


# each check's size cap, in the order the suite runs them
_CAPS = {
    'counting': 6, 'roundtrip-map-tree': 5, 'roundtrip-tree-interval': 5,
    'theorem-stats': 5, 'corollary-identity': 6, 'gf-symmetry': 6,
    'oracle-equivalence': 5, 'face-multiset': 5, 'node-label-lemma': 6,
    'certificate-location': 6, 'certificate-nesting': 6, 'trace-shape': 4,
    'trace-reversal': 4, 'rising-contact-labels': 6,
    'upper-bracket-subtrees': 6, 'one-face-specialization': 6,
    'bridge-agreement': 5, 'map-sanity': 6,
}


def verify_suite(n_max: int) -> list[CheckResult]:
    """Run each check up to min(n_max, its cap), intervals one size larger.
    A check fails with an error raised outside its objects, such as an
    enumerator's while building a corpus, and the other checks still run.
    Results come sorted by check id."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    results = []
    with _Memo():
        for check_id, cap in _CAPS.items():
            # looked up by name, so that a wrapper bound here is what runs
            check = globals()['check_' + check_id.replace('-', '_')]
            try:
                results.append(check(min(n_max, cap)))
            except (RuntimeError, ValueError) as exc:
                results.append(CheckResult(
                    check_id, False, f"raised {type(exc).__name__}: {exc}"))
    return sorted(results, key=lambda r: r.check_id)


def report_lines(results: list[CheckResult]) -> Iterable[str]:
    return [r.line() for r in results]
