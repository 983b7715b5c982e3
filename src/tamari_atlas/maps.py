r"""
Rooted bipartite planar maps as half-edge structures.

Each edge carries two darts paired by the ``mate`` involution; ``next_cw``
gives the next dart in clockwise order around the dart's vertex. Corners
are represented by the dart that follows them in clockwise order, and the
root corner sits on a black vertex of the outer face. Faces are orbits of
``next_cw . mate``; walking that permutation advances clockwise along the
boundary of the face containing the starting corner.

A map is stored flat, as lists indexed by dart (index 0 unused): the
rotation ``_next`` and its inverse ``_prev``, ``_mate``, ``_vertex``, and
a ``_tag``/``_label`` pair written on both darts of an edge; per vertex,
``_color`` (None once deleted) and a representative dart ``_vrep`` (0 if
bare). Ids are never reused: a deleted dart keeps its slot with mate 0.
So placing or removing a dart is an O(1) splice, and a tag is one read.
Only this module touches the lists.

The permutation-pair encoding lists, per edge id in 1..n, the next edge
clockwise around its black end (sigma) and around its white end (alpha);
faces correspond to orbits of e -> sigma(alpha(e)). Its text form is
``n=<n> sigma=<cycles> alpha=<cycles> root=<edge>``, with disjoint cycles
including fixed points, and the edgeless map written ``n=0``.

Every orbit of a permutation, over edge ids or over darts, comes from the
one walker :func:`perm_cycles`. The canonical code relabels edges in the
order of :func:`bfs_edge_order`, the one breadth-first search over a
permutation pair, which the map oracle in ``enumeration`` also uses.

Maps are mutable through the surgery primitives and therefore must be
owned by a single thread at a time; the encodings are immutable values.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

BLACK = 0
WHITE = 1


def perm_cycles(perm: Mapping[int, int] | Sequence[int],
                points: Iterable[int]) -> list[list[int]]:
    """Disjoint cycles of the permutation x -> perm[x] that meet
    ``points``, in the order of their first point, each starting there.
    A permutation of {1..n} is passed as a sequence with index 0 unused."""
    seen: set[int] = set()
    cycles = []
    for start in points:
        if start in seen:
            continue
        cyc = [start]
        x = perm[start]
        while x != start:
            cyc.append(x)
            x = perm[x]
        seen.update(cyc)
        cycles.append(cyc)
    return cycles


def cycles_str(perm: Mapping[int, int] | Sequence[int],
               points: Iterable[int]) -> str:
    """Cycle notation of :func:`perm_cycles`, e.g. ``(1 2)(3)``."""
    return ''.join('(' + ' '.join(map(str, c)) + ')'
                   for c in perm_cycles(perm, points))


def bfs_edge_order(sigma: Sequence[int], alpha: Sequence[int],
                   root: int) -> list[int]:
    """Edges of a permutation pair in the breadth-first discovery order
    that defines the canonical labelling; sigma and alpha are indexed by
    edge, index 0 unused.

    The search starts at the black end of ``root`` and reads each vertex's
    rotation once, from the dart it was first reached by; an edge is
    discovered at its first read end. The order is shorter than n exactly
    when the pair is not transitive.
    """
    rot = (sigma, alpha)
    # read[side][e]: the black (0) or white (1) end of edge e has been read
    read = ([False] * len(sigma), [False] * len(sigma))
    order: list[int] = []
    queue = [(root, 0)]   # grows while it is read, first in first out
    for e, side in queue:
        here, far, nxt = read[side], read[1 - side], rot[side]
        x = e
        while not here[x]:
            here[x] = True
            if not far[x]:   # far end unread: x is discovered here
                order.append(x)
                queue.append((x, 1 - side))
            x = nxt[x]
    return order


@dataclass(frozen=True, slots=True)
class HypermapCode:
    """Permutation-pair encoding of a rooted bipartite planar map."""

    n: int
    sigma: tuple[int, ...]
    alpha: tuple[int, ...]
    root: int

    def __post_init__(self):
        if self.n < 0 or len(self.sigma) != self.n or len(self.alpha) != self.n:
            raise ValueError("permutations must act on {1..n}")
        for p in (self.sigma, self.alpha):
            if sorted(p) != list(range(1, self.n + 1)):
                raise ValueError(f"not a permutation of 1..{self.n}: {p}")
        if self.n == 0:
            if self.root != 0:
                raise ValueError("edgeless code has root=0")
            return
        if not 1 <= self.root <= self.n:
            raise ValueError("root edge out of range")
        sigma, alpha = (0,) + self.sigma, (0,) + self.alpha
        if len(bfs_edge_order(sigma, alpha, self.root)) < self.n:
            raise ValueError("permutation pair is not transitive")
        ids = range(1, self.n + 1)
        c = (len(perm_cycles(sigma, ids)) + len(perm_cycles(alpha, ids))
             + len(self.face_cycles()))
        if c != self.n + 2:
            raise ValueError(f"not genus 0: cycle count {c} != {self.n + 2}")

    def face_cycles(self) -> list[list[int]]:
        """Orbits of e -> sigma(alpha(e)), one per face."""
        sigma = (0,) + self.sigma
        return perm_cycles([sigma[a] for a in (0,) + self.alpha],
                           range(1, self.n + 1))

    def __str__(self) -> str:
        if self.n == 0:
            return "n=0"
        ids = range(1, self.n + 1)
        return (f"n={self.n} sigma={cycles_str((0,) + self.sigma, ids)} "
                f"alpha={cycles_str((0,) + self.alpha, ids)} "
                f"root={self.root}")


_CYCLE_RE = re.compile(r'\(([^()]*)\)')


def _parse_cycles(n: int, text: str) -> tuple[int, ...]:
    # count the points before allocating: n comes from the input and may
    # be far too large for a list
    cycles = [[int(t) for t in m.group(1).split()]
              for m in _CYCLE_RE.finditer(text)]
    if sum(map(len, cycles)) != n or re.sub(_CYCLE_RE, '', text).strip():
        raise ValueError(f"cycles {text!r} do not cover 1..{n} exactly")
    perm = [0] * n
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            if not 1 <= a <= n or perm[a - 1]:
                raise ValueError(f"bad cycle notation {text!r}")
            perm[a - 1] = b
    return tuple(perm)


def parse_hypermap(text: str) -> HypermapCode:
    """Parse the hypermap text form; whitespace and newlines both accepted
    between the fields."""
    parts = re.split(r'\b(n|sigma|alpha|root)=', text)
    if len(parts) < 3 or parts[0].strip():
        raise ValueError(f"malformed map text {text!r}")
    fields = {parts[i]: parts[i + 1].strip()
              for i in range(1, len(parts) - 1, 2)}

    def field(name: str) -> str:
        if name not in fields:
            raise ValueError(f"missing field {name!r}")
        return fields[name]

    n = int(field('n'))
    if n == 0:
        return HypermapCode(0, (), (), 0)
    return HypermapCode(n,
                        _parse_cycles(n, field('sigma')),
                        _parse_cycles(n, field('alpha')),
                        int(field('root')))


@dataclass(frozen=True)
class MapStats:
    """Vertex-color counts, face count and outer-face half-degree."""

    black: int
    white: int
    face: int
    outdeg: int


class PlanarMap:
    """Mutable half-edge structure for rooted bipartite planar maps.

    The constructor builds the edgeless map (one black vertex); use the
    surgery primitives or :func:`from_hypermap` to build anything larger.
    Tags and integer labels can be attached per edge for the bijection
    working state; surgery keeps them consistent.
    """

    # every field of the state, set up by __init__ and duplicated by copy;
    # all but root_corner are lists indexed by dart or by vertex
    __slots__ = ('_next', '_prev', '_mate', '_vertex', '_tag', '_label',
                 '_vrep', '_color', 'root_corner')

    def __init__(self):
        self._next: list[int] = [0]
        self._prev: list[int] = [0]
        self._mate: list[int] = [0]       # 0 marks a deleted dart
        self._vertex: list[int] = [0]
        self._tag: list[str | None] = [None]  # same on both darts of an edge
        self._label: list[int] = [0]
        self._vrep: list[int] = [0]       # vertex -> one of its darts, or 0
        self._color: list[int | None] = [BLACK]   # None: deleted vertex
        self.root_corner: int | None = None

    # -- basic queries -----------------------------------------------------

    def copy(self) -> "PlanarMap":
        m = PlanarMap()
        for field in PlanarMap.__slots__:
            value = getattr(self, field)
            setattr(m, field, value.copy() if type(value) is list else value)
        return m

    @property
    def edge_count(self) -> int:
        return (len(self._mate) - self._mate.count(0)) // 2

    def darts(self) -> list[int]:
        return [d for d, m in enumerate(self._mate) if m]

    def vertices(self) -> list[int]:
        return [v for v, c in enumerate(self._color) if c is not None]

    def mate(self, d: int) -> int:
        return self._mate[d]

    def next_cw(self, d: int) -> int:
        return self._next[d]

    def prev_cw(self, d: int) -> int:
        return self._prev[d]

    def vertex_of(self, d: int) -> int:
        return self._vertex[d]

    def color(self, v: int) -> int:
        return self._color[v]

    def vertex_darts(self, v: int, start: int | None = None) -> list[int]:
        """Darts of v in clockwise order, from ``start`` (or a stable rep)."""
        if not self._vrep[v]:
            return []
        out = [start or self._vrep[v]]
        x = self._next[out[0]]
        while x != out[0]:
            out.append(x)
            x = self._next[x]
        return out

    def degree(self, v: int) -> int:
        return len(self.vertex_darts(v))

    def root_vertex(self) -> int:
        if self.root_corner is None:
            # the edgeless map keeps its single vertex
            return self.vertices()[0]
        return self._vertex[self.root_corner]

    # -- edge tags ---------------------------------------------------------

    def edge_key(self, d: int) -> int:
        return min(d, self._mate[d])

    def set_tag(self, d: int, tag: str, label: int = 0):
        m = self._mate[d]
        self._tag[d] = self._tag[m] = tag
        self._label[d] = self._label[m] = label

    def tag_of(self, d: int) -> str | None:
        return self._tag[d]

    def edge_label(self, d: int) -> int:
        return self._label[d]

    # -- faces -------------------------------------------------------------

    def face_next(self, d: int) -> int:
        """Next corner clockwise along the boundary of d's face."""
        return self._next[self._mate[d]]

    def corner_walk_cw(self, d: int, k: int) -> int:
        if k < 0:
            raise ValueError("walk length must be non-negative")
        for _ in range(k):
            d = self.face_next(d)
        return d

    def face_orbits(self) -> list[list[int]]:
        nxt = self._next
        return perm_cycles([nxt[m] for m in self._mate], self.darts())

    def face_of(self, d: int) -> list[int]:
        orbit = [d]
        x = self.face_next(d)
        while x != d:
            orbit.append(x)
            x = self.face_next(x)
        return orbit

    def outer_face(self) -> list[int]:
        if self.root_corner is None:
            return []
        return self.face_of(self.root_corner)

    def _is_dart(self, d: int) -> bool:
        return 0 < d < len(self._mate) and self._mate[d] != 0

    def is_bridge(self, d: int) -> bool:
        """True iff both darts of d's edge lie in the same face orbit."""
        if not self._is_dart(d):
            raise KeyError(f"unknown dart {d}")
        return self._mate[d] in self.face_of(d)

    # -- surgery -----------------------------------------------------------

    def new_vertex(self, color: int) -> int:
        self._color.append(color)
        self._vrep.append(0)
        return len(self._color) - 1

    def _place_dart(self, place) -> int:
        """Create one dart at the position described by ``place``:
        ('corner', d)  into the corner before d (new dart precedes d cw),
        ('after', d)   immediately after d in cw order,
        ('vertex', v)  on the bare vertex v.
        """
        kind, ref = place
        d = len(self._next)
        if kind == 'vertex':
            if self._vrep[ref]:
                raise ValueError(f"vertex {ref} is not bare")
            self._vrep[ref] = before = after = d
            v = ref
        elif kind in ('corner', 'after'):
            before = ref if kind == 'after' else self._prev[ref]
            after = self._next[before]
            v = self._vertex[before]
        else:
            raise ValueError(f"unknown placement {kind!r}")
        self._next.append(after)
        self._prev.append(before)
        self._vertex.append(v)
        self._next[before] = d
        self._prev[after] = d
        return d

    def add_edge(self, place1, place2) -> tuple[int, int]:
        """Add an edge whose darts sit at the two described positions.
        Corner placements must share a face for planarity to be preserved;
        this is the caller's responsibility during surgery sequences."""
        d1 = self._place_dart(place1)
        d2 = self._place_dart(place2)
        self._mate += (d2, d1)
        self._tag += (None, None)
        self._label += (0, 0)
        return d1, d2

    def _remove_dart(self, d: int):
        v = self._vertex[d]
        before, after = self._prev[d], self._next[d]
        if after == d:
            self._vrep[v] = 0
        else:
            self._next[before] = after
            self._prev[after] = before
            if self._vrep[v] == d:
                self._vrep[v] = after
        if self.root_corner == d:
            self.root_corner = after if after != d else None

    def delete_edge(self, d: int):
        """Remove the edge of dart d; endpoints may become isolated."""
        m = self._mate[d]
        self._mate[d] = self._mate[m] = 0
        self._remove_dart(d)
        self._remove_dart(m)

    def contract_edge(self, d: int):
        """Contract d's edge, merging its endpoints and preserving the
        cyclic order of the surrounding darts. Returns the kept vertex
        (the one on d's side)."""
        p, q = d, self._mate[d]
        x, y = self._vertex[p], self._vertex[q]
        if x == y:
            raise ValueError("cannot contract a loop")
        for a in self.vertex_darts(y):
            self._vertex[a] = x
        # exchanging the successors of p and q joins the two rotations,
        # with y's other darts between p and q; then p and q go
        nxt, prv = self._next, self._prev
        a, b = nxt[q], nxt[p]
        nxt[p], nxt[q] = a, b
        prv[a], prv[b] = p, q
        if self.root_corner == q:
            self.root_corner = p   # passes on to the dart after q
        self._remove_dart(p)
        self._remove_dart(q)
        self._mate[p] = self._mate[q] = 0
        self._vrep[y] = 0
        self._color[y] = None
        return x

    def split_vertex(self, v: int, arc: list[int], color: int) -> int:
        """Detach the contiguous cw arc of darts from v onto a fresh vertex
        of the given color; the arc may be empty. Returns the new vertex."""
        nxt, prv, vertex = self._next, self._prev, self._vertex
        if (len(set(arc)) != len(arc)
                or not all(self._is_dart(d) and vertex[d] == v for d in arc)
                or any(nxt[a] != b for a, b in zip(arc, arc[1:]))):
            raise ValueError("darts do not form a contiguous cw arc")
        w = self.new_vertex(color)
        if arc:
            first, last = arc[0], arc[-1]
            before, after = prv[first], nxt[last]
            for d in arc:
                vertex[d] = w
            nxt[before], nxt[last] = after, first
            prv[after], prv[first] = before, last
            if vertex[self._vrep[v]] == w:
                # after == first when the arc is the whole rotation
                self._vrep[v] = after if after != first else 0
            self._vrep[w] = first
        return w

    def clear_tags(self):
        self._tag = [None] * len(self._tag)
        self._label = [0] * len(self._label)

    def recolor_bipartite(self):
        """Recolor all vertices by breadth-first 2-coloring from the root
        vertex (black). Fails on odd cycles."""
        root = self.root_vertex()
        colors = {root: BLACK}
        queue = [root]
        for v in queue:
            for d in self.vertex_darts(v):
                u = self._vertex[self._mate[d]]
                if u not in colors:
                    colors[u] = 1 - colors[v]
                    queue.append(u)
                elif colors[u] == colors[v]:
                    raise ValueError("map is not bipartite")
        if len(colors) != len(self.vertices()):
            raise ValueError("map is not connected")
        self._color = [colors.get(v) for v in range(len(self._color))]

    # -- validation & statistics --------------------------------------------

    def find_violation(self) -> str | None:
        """None if this is a valid rooted bipartite planar map."""
        nxt, prv, mate, vertex = (self._next, self._prev, self._mate,
                                  self._vertex)
        color, vrep = self._color, self._vrep
        size = len(mate)
        if ({len(nxt), len(prv), len(vertex), len(self._tag),
             len(self._label)} != {size} or len(vrep) != len(color)):
            return "dart tables out of sync"
        darts = self.darts()
        for d in darts:
            m, x = mate[d], nxt[d]
            if m == d or not 0 < m < size or mate[m] != d:
                return f"mate is not a fixed-point-free involution at {d}"
            if not 0 < x < size or not mate[x] or prv[x] != d:
                return f"prev does not invert next at dart {d}"
        for v, r in enumerate(vrep):
            if r and (color[v] is None or not 0 < r < size or not mate[r]
                      or vertex[r] != v):
                return f"vertex {v} representative out of sync"
        for d in darts:
            if vertex[nxt[d]] != vertex[d]:
                return f"rotation at dart {d} leaves its vertex"
        rotations = perm_cycles(nxt, [r for r in vrep if r])
        if sum(map(len, rotations)) != len(darts):
            return "rotation orbits do not partition the darts"
        for d in darts:
            c = color[vertex[d]]
            if c == color[vertex[mate[d]]]:
                return (f"edge at dart {d} joins two "
                        f"{'black' if c == BLACK else 'white'} vertices")
        # connectivity over vertices, plus the edgeless special case
        vertices = self.vertices()
        isolated = [v for v in vertices if not vrep[v]]
        if not darts:
            if len(vertices) != 1 or isolated != vertices:
                return "edgeless map must be a single vertex"
            if color[isolated[0]] != BLACK:
                return "edgeless map vertex must be black"
            if self.root_corner is not None:
                return "edgeless map has no root corner"
            return None
        if isolated:
            return f"isolated vertex {isolated[0]} in a map with edges"
        seen = [False] * len(color)
        seen[vertices[0]] = True
        reached = [vertices[0]]
        for v in reached:
            for d in self.vertex_darts(v):
                u = vertex[mate[d]]
                if not seen[u]:
                    seen[u] = True
                    reached.append(u)
        if len(reached) != len(vertices):
            return "map is not connected"
        edges = len(darts) // 2
        f_count = len(self.face_orbits())
        if len(vertices) - edges + f_count != 2:
            return (f"genus is not 0: V={len(vertices)} E={edges} "
                    f"F={f_count}")
        root = self.root_corner
        if root is None or not self._is_dart(root):
            return "missing root corner"
        if color[vertex[root]] != BLACK:
            return "root vertex is not black"
        return None

    def is_valid(self) -> bool:
        return self.find_violation() is None

    def stats(self) -> MapStats:
        black, white = self._color.count(BLACK), self._color.count(WHITE)
        if not self.edge_count:
            return MapStats(black, white, 1, 0)
        return MapStats(black, white, len(self.face_orbits()),
                        len(self.outer_face()) // 2)

    # -- encodings -----------------------------------------------------------

    def to_hypermap(self) -> HypermapCode:
        """Permutation-pair encoding under the canonical edge labeling."""
        n = self.edge_count
        if n == 0:
            return HypermapCode(0, (), (), 0)
        mate, nxt, vertex, color = (self._mate, self._next, self._vertex,
                                    self._color)
        # the raw pair numbers the edges in sorted dart order, on both darts
        raw = [0] * len(mate)
        e = 0
        for d, m in enumerate(mate):
            if d < m:
                e += 1
                raw[d] = raw[m] = e
        sigma = [0] * (n + 1)
        alpha = [0] * (n + 1)
        for d in self.darts():
            rot = sigma if color[vertex[d]] == BLACK else alpha
            rot[raw[d]] = raw[nxt[d]]
        order = bfs_edge_order(sigma, alpha, raw[self.root_corner])
        # edge order[i - 1] gets label i
        label = [0] * (n + 1)
        for i, e in enumerate(order, 1):
            label[e] = i
        return HypermapCode(n, tuple(label[sigma[e]] for e in order),
                            tuple(label[alpha[e]] for e in order), 1)

    def canonical_code(self) -> str:
        """Root-preserving isomorphism invariant."""
        return str(self.to_hypermap())

    def to_dot(self) -> str:
        """Graphviz rendering: filled black vertices, open white ones,
        the root corner marked on its vertex."""
        lines = ["graph planar_map {", "  node [shape=circle];"]
        rv = self.root_vertex()
        for v in self.vertices():
            fill = ("black, fontcolor=white" if self._color[v] == BLACK
                    else "white")
            mark = ", peripheries=2" if v == rv else ""
            lines.append(f'  v{v} [label="{v}", style=filled, '
                         f'fillcolor={fill}{mark}];')
        for d in self.darts():
            if d < self._mate[d]:
                attr = ""
                tag = self._tag[d]
                if tag:
                    text = f"{tag}{self._label[d]}" if tag == 'T' else tag
                    attr = f' [label="{text}"]'
                lines.append(f"  v{self._vertex[d]} -- "
                             f"v{self._vertex[self._mate[d]]}{attr};")
        lines.append("}")
        return '\n'.join(lines)


def edgeless_map() -> PlanarMap:
    return PlanarMap()


def from_hypermap(code: HypermapCode) -> PlanarMap:
    """Half-edge structure of a permutation-pair encoding; black dart of
    edge e is 2e-1, white dart 2e, and the root corner is the black corner
    preceding the root edge."""
    m = PlanarMap()  # its vertex 0 is black, as is the first sigma cycle
    if code.n == 0:
        return m
    size = 2 * code.n + 1
    nxt = [0] * size
    nxt[1::2] = [2 * s - 1 for s in code.sigma]
    nxt[2::2] = [2 * a for a in code.alpha]
    prv = [0] * size
    for d in range(1, size):
        prv[nxt[d]] = d
    mate = [0] * size
    mate[1::2] = range(2, size, 2)
    mate[2::2] = range(1, size, 2)
    vertex = [0] * size
    m._vrep, m._color = [], []
    for perm, parity, color in ((code.sigma, 1, BLACK),
                                (code.alpha, 0, WHITE)):
        for cyc in perm_cycles((0,) + perm, range(1, code.n + 1)):
            for e in cyc:
                vertex[2 * e - parity] = len(m._color)
            m._vrep.append(2 * cyc[0] - parity)
            m._color.append(color)
    m._next, m._prev, m._mate, m._vertex = nxt, prv, mate, vertex
    m._tag, m._label = [None] * size, [0] * size
    m.root_corner = 2 * code.root - 1
    return m
