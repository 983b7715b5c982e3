r"""
Cross-module verification suite.

Every check is exhaustive at desk scale and reports one line; a run
passes when every line passes. The checks cover the counting agreement
between the three families and the closed formula, the statistic
identities and generating-function symmetry, the oracle-vs-bijection set
equality, the structural lemmas behind the bijections, and the face
half-degree multiset identity.

Each check is declared once, with its cap in the suite, by ``@_check``.
One driver, :func:`_run`, walks up the sizes once, however many checks
it runs; each ``check_<id>(n_max)`` runs it for that check alone. At
each size it makes one :class:`_Size`, whose caches enumerate a family
and make an object's untraced image only when a check first reads it.
Each tally (:class:`_Tally`) reads the size whole; then each object
passes once through every check that tests one object at a time
(:class:`_Each`), and the size is freed, by reference counting, before
the next. A traced run watches a live working map, so each traced check
makes its own.
"""

from __future__ import annotations

from collections import Counter
from functools import cache, lru_cache
from itertools import permutations as iter_permutations
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .bijections import (certificates, interval_to_tree, map_to_tree,
                         tree_to_interval, tree_to_map)
from .dyck import bracket_vector, factor_rising_contacts, interval_stats
from .enumeration import ENUMERATE, GfTable, count_formula, gf_tally
from .maps import HypermapCode, PlanarMap, from_hypermap
from .trees import DegreeTree, node_labels


class CheckResult(NamedTuple):
    check_id: str
    ok: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.ok else 'FAIL'} {self.check_id} {self.detail}"


class _Size(NamedTuple):
    """What the checks read at one size n, each made by a ``functools``
    cache when a check first reads it, through the function bound here at
    call time: ``family(name)``, the maps or trees of size n or the
    intervals of size n + 1; ``image(obj)``, a map's tree or a tree's map,
    kept by value, so a round trip finds the kept image of an image;
    ``interval(obj)``, of a tree or a map's tree, only the last one kept
    (the driver passes each object through its checks in a row); and
    ``tally(name)``. What raises is not kept. No cached function refers
    to the record, so each size is freed when the driver moves on."""
    n: int
    family: Callable[[str], list]
    image: Callable[[object], object]
    interval: Callable[[object], object]
    tally: Callable[[str], GfTable]


def _size(n: int) -> _Size:
    # intervals of size n + 1 go with the maps and trees of size n
    family = cache(lambda name: ENUMERATE[name](n + (name == 'intervals')))
    image = cache(lambda obj: map_to_tree(obj)
                  if isinstance(obj, HypermapCode) else tree_to_map(obj))
    interval = lru_cache(maxsize=1)(lambda obj: tree_to_interval(
        image(obj) if isinstance(obj, HypermapCode) else obj))
    return _Size(n, family, image, interval,
                 cache(lambda name: gf_tally(name, family(name))))


class _Tally(NamedTuple):
    """A check that reads each size whole: ``step`` at each size of
    ``sizes``, then ``end`` gives its failures and the detail of a pass."""
    sizes: range
    step: Callable[[_Size], None]
    end: Callable[[], tuple[list[str], str]]
    families: tuple[str, ...] = ()      # it tests no single object


class _Each:
    """A check that tests one object at a time: each object that ``keep``
    admits of its families, at each size of ``sizes`` (intervals one size
    larger). ``test(obj, size)`` yields the object's problems; a
    ValueError or RuntimeError that it raises is the object's one problem,
    and the other objects still run. A failure names its object, and a
    pass counts the objects tested of each family."""

    def __init__(self, test: Callable[[object, _Size], Iterable[str]],
                 sizes: range, families: tuple[str, ...],
                 keep: Callable[[object], bool]):
        self.test, self.sizes, self.families, self.keep = \
            test, sizes, families, keep
        self.fails: dict[str, list[str]] = {f: [] for f in families}
        self.counts = dict.fromkeys(families, 0)

    def step(self, size: _Size) -> None:
        for family in self.families:    # an enumerator raises here
            size.family(family)

    def visit(self, family: str, obj, size: _Size) -> None:
        if not self.keep(obj):
            return
        try:
            problems = list(self.test(obj, size))
        except (RuntimeError, ValueError) as exc:
            problems = [f"raised {type(exc).__name__}: {exc}"]
        # the family's singular names the object
        self.fails[family] += [f"{family[:-1]} {obj}: {p}" for p in problems]
        self.counts[family] += 1

    def end(self) -> tuple[list[str], str]:
        first, last = self.sizes.start, self.sizes.stop - 1
        return sum(self.fails.values(), []), '; '.join(
            f"{self.counts[f]} {f}, sizes {first + (f == 'intervals')}.."
            f"{last + (f == 'intervals')}" for f in self.families)


def _result(check_id: str, failures: list[str], detail_ok: str) -> CheckResult:
    if not failures:
        return CheckResult(check_id, True, detail_ok)
    more = [f"and {len(failures) - 3} more"] if len(failures) > 3 else []
    return CheckResult(check_id, False, '; '.join(failures[:3] + more))


def _run(n_max: int, checks: Mapping[str, tuple]) -> list[CheckResult]:
    """Run each (cap, plan) up to min(n_max, cap) in one walk up the sizes:
    at each, each check that reads it steps, then each object passes through
    every check that tests it. An error raised outside a check's objects,
    such as an enumerator's, fails only that check, which stops there."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    plans = {check_id: plan(min(n_max, cap))
             for check_id, (cap, plan) in checks.items()}
    raised: dict[str, str] = {}
    for n in range(max(plan.sizes.stop for plan in plans.values())):
        size = _size(n)
        running = []
        for check_id, plan in plans.items():
            if n in plan.sizes and check_id not in raised:
                try:
                    plan.step(size)
                    running.append(plan)
                except (RuntimeError, ValueError) as exc:
                    raised[check_id] = f"raised {type(exc).__name__}: {exc}"
        for family in ('trees', 'maps', 'intervals'):
            visits = [plan for plan in running if family in plan.families]
            for obj in size.family(family) if visits else ():
                for plan in visits:
                    plan.visit(family, obj, size)
    return [CheckResult(check_id, False, raised[check_id])
            if check_id in raised else _result(check_id, *plan.end())
            for check_id, plan in plans.items()]


_PLANS: dict[str, tuple[int, Callable[[int], _Tally | _Each]]] = {}


def _check(cap: int, *families: str, first: int = 0,
           keep: Callable[[object], bool] = lambda obj: True) -> Callable:
    """File ``check_<id>`` with its cap for the suite and return the public
    ``check_<id>(n_max)``, the driver run on it alone up to n_max. With
    ``families`` it is a test of one object (see :class:`_Each`), run at
    each size from ``first``; without, it is the check's plan."""
    def register(fn: Callable) -> Callable[[int], CheckResult]:
        check_id = fn.__name__[len('check_'):].replace('_', '-')
        plan = fn if not families else lambda n_max: _Each(
            fn, range(first, n_max + 1), families, keep)
        _PLANS[check_id] = cap, plan

        def check(n_max: int) -> CheckResult:
            return _run(n_max, {check_id: (n_max, plan)})[0]
        check.__name__ = check.__qualname__ = fn.__name__
        check.__doc__ = fn.__doc__
        return check
    return register


@_check(6)
def check_counting(n_max: int) -> _Tally:
    fails = []

    def step(size: _Size) -> None:
        expected = count_formula(size.n + 1)
        # maps first: their oracle's list is the largest transient object
        maps = len(size.family('maps'))
        got = (len(size.family('intervals')), len(size.family('trees')),
               maps)
        if got != (expected, expected, expected):
            fails.append(f"size {size.n}: formula {expected}, "
                         f"(intervals, trees, maps) = {got}")
    return _Tally(range(1, n_max + 1), step, lambda: (
        fails, f"three families and formula agree for sizes 1..{n_max}"))


@_check(5, 'trees', 'maps')
def check_roundtrip_map_tree(obj, size: _Size) -> Iterable[str]:
    if size.image(size.image(obj)) != obj:
        yield "not recovered"


@_check(5, 'trees', 'intervals')
def check_roundtrip_tree_interval(obj, size: _Size) -> Iterable[str]:
    back = (interval_to_tree(size.interval(obj)) if isinstance(obj, DegreeTree)
            else tree_to_interval(interval_to_tree(obj)))
    if back != obj:
        yield "not recovered"


@_check(5, 'maps', first=1)
def check_theorem_stats(code: HypermapCode, size: _Size) -> Iterable[str]:
    ms = code.stats()
    s = interval_stats(size.interval(code))
    if (ms.white, ms.black, ms.face, ms.outdeg) != \
            (s.c00, s.c01, 1 + s.c11, s.rcont - 1):
        yield f"{ms} vs {s}"


@_check(6)
def check_corollary_identity(n_max: int) -> _Tally:
    fails = []
    coefficients = 0

    def step(size: _Size) -> None:
        nonlocal coefficients
        ints_gf = size.tally('intervals')
        coefficients += len(ints_gf)
        # t * F_maps matches w * F_intervals: compare the maps entry at
        # (n, i, j, k, l) with the intervals entry at (n + 1, i, j, k, l - 1)
        shifted = {(n + 1, i, j, k, l - 1): c
                   for (n, i, j, k, l), c in size.tally('maps').items()}
        for key in sorted(set(shifted) | set(ints_gf)):
            a, b = shifted.get(key, 0), ints_gf.get(key, 0)
            if a != b:
                fails.append(f"coefficient {key}: maps side {a}, "
                             f"intervals side {b}")
    return _Tally(range(0, n_max + 1), step, lambda: (
        fails, f"{coefficients} coefficients up to degree {n_max + 1}"))


@_check(6)
def check_gf_symmetry(n_max: int) -> _Tally:
    """Symmetry of the w-shifted interval series in its three vertex-style
    variables, with the root-degree variable set to 1 (the refinement by
    outer degree is not symmetric) and starting at degree 2 (the degree-1
    coefficient is the size-zero map exception and stays one-sided)."""
    broken: set[tuple[int, ...]] = set()

    def step(size: _Size) -> None:
        # a permutation keeps the degree, so each degree is tested alone
        table: Counter = Counter()
        for (_, i, j, k, l), c in size.tally('intervals').items():
            table[j, k, l + 1] += c
        for perm in iter_permutations(range(3)):
            permuted: Counter = Counter()
            for exps, c in table.items():
                permuted[tuple(exps[p] for p in perm)] += c
            if permuted != table:
                broken.add(perm)
    return _Tally(range(1, n_max + 1), step, lambda: (
        [f"not symmetric under permutation {perm}" for perm in sorted(broken)],
        f"all 6 permutations, degrees 2..{n_max + 1}"))


@_check(5)
def check_oracle_equivalence(n_max: int) -> _Tally:
    fails = []

    def step(size: _Size) -> None:
        # canonical codes: equal codes are the same rooted map
        oracle = set(size.family('maps'))
        image = set(map(size.image, size.family('trees')))
        if oracle != image:
            fails.append(f"size {size.n}: "
                         f"oracle-only {sorted(map(str, oracle - image))}, "
                         f"image-only {sorted(map(str, image - oracle))}")
    return _Tally(range(0, n_max + 1), step, lambda: (
        fails, f"canonical-code sets equal for sizes 0..{n_max}"))


@_check(5, 'maps')
def check_face_multiset(code: HypermapCode, size: _Size) -> Iterable[str]:
    # the half-degrees of the inner faces
    face, half = code.faces()
    faces = Counter(h for f, h in enumerate(half) if f != face[code.root])
    dt = size.image(code)
    labels = Counter(x for x in dt.edge_labels if x > 0)
    # the rising contacts of each internal node's factor of the lower path
    rising = factor_rising_contacts(size.interval(code).lower)
    contacts = Counter(rising[node] for node, kids
                       in enumerate(dt.tree.children)
                       if kids and rising[node] > 0)
    if not faces == labels == contacts:
        yield (f"faces {dict(faces)}, labels {dict(labels)}, "
               f"contacts {dict(contacts)}")


@_check(6, 'trees')
def check_node_label_lemma(dt: DegreeTree, *_) -> Iterable[str]:
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


@_check(6, 'trees')
def check_certificate_location(dt: DegreeTree, *_) -> Iterable[str]:
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


@_check(6, 'trees')
def check_certificate_nesting(dt: DegreeTree, *_) -> Iterable[str]:
    cert = certificates(dt).certificate
    n1 = dt.tree.node_count
    for v in range(n1):
        for v2 in range(v + 1, n1):
            if v2 < cert[v] < cert[v2]:
                yield f"crossing certificates at {v}, {v2}"
            if v2 != cert[v2] and cert[v] == v2:
                yield f"node {v2} is both a certifier target and forwards"


def _reached(w: PlanarMap, start: int, crosses: Callable[[int], bool]
             ) -> set[int]:
    """Vertices of w reached from the vertex of dart ``start`` along the
    darts that ``crosses`` admits; the one vertex search of the checks."""
    seen = {w.vertex_of(start)}
    frontier = [start]   # a dart of each vertex reached, its rotation unread
    while frontier:
        for d in w.rotation(frontier.pop()):
            y = w.vertex_of(w.mate(d))
            if y not in seen and crosses(d):
                seen.add(y)
                frontier.append(w.mate(d))
    return seen


def separates(w: PlanarMap, d: int) -> bool:
    """Cut test: a vertex search from one end of d's edge that does not
    cross the edge misses the other end."""
    m = w.mate(d)
    return w.vertex_of(m) not in _reached(w, d, lambda x: x not in (d, m))


def _trace_shape_violation(w: PlanarMap, current: int, root: int,
                           children: Sequence[Sequence[int]]
                           ) -> str | None:
    tree_darts = [d for d in w.darts() if w.tag_of(d) == 'T']
    tree_vertices = {w.vertex_of(d) for d in tree_darts} | {root}
    if len(tree_darts) != 2 * (len(tree_vertices) - 1):
        return "tree-tagged edges do not form a tree"
    recorded = {root}.union(*children)
    if recorded != tree_vertices:
        return "recorded tree nodes disagree with tree-tagged edges"

    # connected components of the map-tagged edges
    seen: set[int] = set()
    branch = [root]
    while children[branch[-1]]:
        branch.append(children[branch[-1]][0])
    deepest_attached = None
    for d in w.darts():
        if w.tag_of(d) != 'M' or w.vertex_of(d) in seen:
            continue
        comp = _reached(w, d, lambda x: w.tag_of(x) == 'M')
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


@_check(4, 'maps')
def check_trace_shape(code: HypermapCode, *_) -> Iterable[str]:
    found: list[str | None] = []    # one entry per prepare step

    def on_step(kind, *state):
        if kind == 'prepare':
            found.append(_trace_shape_violation(*state))

    map_to_tree(code, trace=on_step)
    yield from (bad for bad in found if bad is not None)


@_check(4, 'trees')
def check_trace_reversal(dt: DegreeTree, *_) -> Iterable[str]:
    """Advance steps of the map direction, reversed, match the tree
    direction's steps case for case."""
    fwd: list[str] = []
    back: list[str] = []
    m = tree_to_map(dt, trace=lambda kind, *_: back.append(kind))
    map_to_tree(m, trace=lambda kind, *_: fwd.append(kind))
    kinds_fwd = [k for k in fwd if k in ('A1', 'A2', 'A3')]
    kinds_back = [k[:-1] for k in back if k.endswith("'")]
    if kinds_fwd != list(reversed(kinds_back)):
        yield f"{kinds_fwd} vs reversed {kinds_back}"


@_check(6, 'trees')
def check_rising_contact_labels(dt: DegreeTree, size: _Size) -> Iterable[str]:
    # the rising contacts of each node's factor of the lower path
    rising = factor_rising_contacts(size.interval(dt).lower)
    for node, kids in enumerate(dt.tree.children):
        if kids and rising[node] != dt.label_of(kids[0]):
            yield (f"node {node}: contacts {rising[node]}, "
                   f"label {dt.label_of(kids[0])}")


@_check(6, 'trees')
def check_upper_bracket_subtrees(dt: DegreeTree, size: _Size) -> Iterable[str]:
    vq = bracket_vector(size.interval(dt).upper)
    expect = dt.tree.subtree_sizes()
    if vq != expect:
        yield f"brackets {vq}, expected {expect}"


@_check(6, 'maps',
        keep=lambda code: code.n == 0 or len(code.faces()[1]) == 1)
def check_one_face_specialization(code: HypermapCode, size: _Size
                                  ) -> Iterable[str]:
    labels = size.image(code).edge_labels
    if any(labels):
        yield f"labels {labels}"


def _decide(w: PlanarMap, d: int) -> str | int:
    """'bridge' if the cut test finds d's edge a bridge, else the
    half-degree of the face across it."""
    return 'bridge' if separates(w, d) else w.face_degree(w.mate(d)) // 2


@_check(5, 'maps', first=1)
def check_bridge_agreement(code: HypermapCode, *_) -> Iterable[str]:
    """Each advance step of map_to_tree against its live working map just
    before it: A1 or A2 exactly when the cut test finds the pending edge a
    bridge, else A3 labelled half the length of the face across it. The
    pending edge: the root corner's, then the map dart after a tree dart."""
    first = from_hypermap(code)
    want = [_decide(first, first.root_corner)]  # per pending edge
    got: list[str | int] = []   # per step: 'bridge' or the new edge's label

    def on_step(kind, w, cur, root, children):
        if kind == 'prepare':   # the pending edge follows a tree dart
            want.extend(_decide(w, d) for d in w.darts()
                        if w.vertex_of(d) == cur and
                        (w.tag_of(w.prev_cw(d)), w.tag_of(d)) == ('T', 'M'))
        elif kind == 'A3':   # the new tree edge is the one at cur
            got.extend(w.edge_label(x) for x in w.darts()
                       if w.vertex_of(x) == cur and w.tag_of(x) == 'T')
        elif kind != 'backtrack':
            got.append('bridge')

    map_to_tree(code, trace=on_step)
    if got != want:
        yield f"steps {got}, expected {want}"


@_check(6, 'maps')
def check_map_sanity(code: HypermapCode, *_) -> Iterable[str]:
    """Euler relation and even face degrees on every enumerated map."""
    m = from_hypermap(code)
    degree = m.faces()[1]
    v = len(m.vertices()) or 1
    if v - m.edge_count + (len(degree) or 1) != 2:
        yield "Euler fails"
    if any(k % 2 for k in degree):
        yield "odd face degree"


def verify_suite(n_max: int) -> list[CheckResult]:
    """Run each check up to min(n_max, its cap), intervals one size
    larger, in one walk over the sizes. Results come sorted by check id."""
    return sorted(_run(n_max, _PLANS), key=lambda r: r.check_id)


def report_lines(results: list[CheckResult]) -> Iterable[str]:
    return [r.line() for r in results]
