r"""
Rooted bipartite planar maps as half-edge structures.

Each edge carries two darts paired by the ``mate`` involution; ``next_cw``
gives the next dart in clockwise order around the dart's vertex. Corners
are represented by the dart that follows them in clockwise order, and the
root corner sits on a black vertex of the outer face. Faces are orbits of
``next_cw . mate``; walking that permutation advances clockwise along the
boundary of the face containing the starting corner.

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
from collections import deque
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
    perm = [0] * n
    covered = 0
    for m in _CYCLE_RE.finditer(text):
        cyc = [int(t) for t in m.group(1).split()]
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            if not 1 <= a <= n or perm[a - 1]:
                raise ValueError(f"bad cycle notation {text!r}")
            perm[a - 1] = b
        covered += len(cyc)
    if covered != n or re.sub(_CYCLE_RE, '', text).strip():
        raise ValueError(f"cycles {text!r} do not cover 1..{n} exactly")
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

    # every field of the state, set up by __init__ and duplicated by copy
    __slots__ = ('_next', '_mate', '_vertex', '_vrep', '_color', '_tags',
                 'root_corner', '_next_dart', '_next_vertex')

    def __init__(self):
        self._next: dict[int, int] = {}
        self._mate: dict[int, int] = {}
        self._vertex: dict[int, int] = {}
        self._vrep: dict[int, int] = {}   # vertex -> one of its darts
        self._color: dict[int, int] = {0: BLACK}
        self._tags: dict[int, tuple[str, int]] = {}  # min dart -> (tag, label)
        self.root_corner: int | None = None
        self._next_dart = 1
        self._next_vertex = 1

    # -- basic queries -----------------------------------------------------

    def copy(self) -> "PlanarMap":
        m = PlanarMap()
        for field in PlanarMap.__slots__:
            value = getattr(self, field)
            setattr(m, field, dict(value) if type(value) is dict else value)
        return m

    @property
    def edge_count(self) -> int:
        return len(self._mate) // 2

    def darts(self) -> list[int]:
        return sorted(self._mate)

    def vertices(self) -> list[int]:
        return sorted(self._color)

    def mate(self, d: int) -> int:
        return self._mate[d]

    def next_cw(self, d: int) -> int:
        return self._next[d]

    def prev_cw(self, d: int) -> int:
        x = d
        while self._next[x] != d:
            x = self._next[x]
        return x

    def vertex_of(self, d: int) -> int:
        return self._vertex[d]

    def color(self, v: int) -> int:
        return self._color[v]

    def vertex_darts(self, v: int, start: int | None = None) -> list[int]:
        """Darts of v in clockwise order, from ``start`` (or a stable rep)."""
        if v not in self._vrep:
            return []
        d0 = start if start is not None else self._vrep[v]
        out = [d0]
        x = self._next[d0]
        while x != d0:
            out.append(x)
            x = self._next[x]
        return out

    def degree(self, v: int) -> int:
        return len(self.vertex_darts(v))

    def root_vertex(self) -> int:
        if self.root_corner is None:
            # the edgeless map keeps its single vertex
            return next(iter(self._color))
        return self._vertex[self.root_corner]

    # -- edge tags ---------------------------------------------------------

    def edge_key(self, d: int) -> int:
        return min(d, self._mate[d])

    def set_tag(self, d: int, tag: str, label: int = 0):
        self._tags[self.edge_key(d)] = (tag, label)

    def tag_of(self, d: int) -> str | None:
        entry = self._tags.get(self.edge_key(d))
        return entry[0] if entry else None

    def edge_label(self, d: int) -> int:
        entry = self._tags.get(self.edge_key(d))
        return entry[1] if entry else 0

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
        face_next = {d: self._next[m] for d, m in self._mate.items()}
        return perm_cycles(face_next, self.darts())

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

    def is_bridge(self, d: int) -> bool:
        """True iff both darts of d's edge lie in the same face orbit."""
        if d not in self._mate:
            raise KeyError(f"unknown dart {d}")
        return self._mate[d] in self.face_of(d)

    # -- surgery -----------------------------------------------------------

    def _fresh_dart(self) -> int:
        d = self._next_dart
        self._next_dart += 1
        return d

    def new_vertex(self, color: int) -> int:
        v = self._next_vertex
        self._next_vertex += 1
        self._color[v] = color
        return v

    def _place_dart(self, place) -> int:
        """Create one dart at the position described by ``place``:
        ('corner', d)  into the corner before d (new dart precedes d cw),
        ('after', d)   immediately after d in cw order,
        ('vertex', v)  on the bare vertex v.
        """
        kind, ref = place
        d = self._fresh_dart()
        if kind == 'vertex':
            if ref in self._vrep:
                raise ValueError(f"vertex {ref} is not bare")
            self._next[d] = d
            self._vertex[d] = ref
            self._vrep[ref] = d
        elif kind in ('corner', 'after'):
            anchor = ref if kind == 'after' else self.prev_cw(ref)
            self._next[d] = self._next[anchor]
            self._next[anchor] = d
            self._vertex[d] = self._vertex[anchor]
        else:
            raise ValueError(f"unknown placement {kind!r}")
        return d

    def add_edge(self, place1, place2) -> tuple[int, int]:
        """Add an edge whose darts sit at the two described positions.
        Corner placements must share a face for planarity to be preserved;
        this is the caller's responsibility during surgery sequences."""
        d1 = self._place_dart(place1)
        d2 = self._place_dart(place2)
        self._mate[d1] = d2
        self._mate[d2] = d1
        return d1, d2

    def add_edge_between_corners(self, c1: int, c2: int) -> tuple[int, int]:
        if c2 not in self.face_of(c1):
            raise ValueError("corners are not on a common face")
        return self.add_edge(('corner', c1), ('corner', c2))

    def _remove_dart(self, d: int):
        v = self._vertex[d]
        nxt = self._next[d]
        if nxt == d:
            del self._vrep[v]
        else:
            self._next[self.prev_cw(d)] = nxt
            if self._vrep[v] == d:
                self._vrep[v] = nxt
        if self.root_corner == d:
            self.root_corner = nxt if nxt != d else None
        del self._next[d]
        del self._vertex[d]

    def delete_edge(self, d: int):
        """Remove the edge of dart d; endpoints may become isolated."""
        m = self._mate[d]
        self._tags.pop(self.edge_key(d), None)
        del self._mate[d]
        del self._mate[m]
        self._remove_dart(d)
        self._remove_dart(m)

    def remove_isolated_vertex(self, v: int):
        if v in self._vrep:
            raise ValueError(f"vertex {v} still has darts")
        del self._color[v]

    def contract_edge(self, d: int):
        """Contract d's edge, merging its endpoints and preserving the
        cyclic order of the surrounding darts. Returns the kept vertex
        (the one on d's side)."""
        p, q = d, self._mate[d]
        x, y = self._vertex[p], self._vertex[q]
        if x == y:
            raise ValueError("cannot contract a loop")
        arc = self.vertex_darts(y, start=q)[1:]  # y's darts after q, cw
        # splice the arc where p sat in x's rotation
        before = self.prev_cw(p)
        after = self._next[p]
        if arc:
            if before == p:  # p was alone at x
                before, after = arc[-1], arc[0]
            self._next[before] = arc[0]
            self._next[arc[-1]] = after
            for a in arc:
                self._vertex[a] = x
            if self._vrep[x] == p:
                self._vrep[x] = arc[0]
            if self.root_corner == p:
                self.root_corner = arc[0]
        else:
            if after == p:
                del self._vrep[x]
            else:
                self._next[before] = after
                if self._vrep[x] == p:
                    self._vrep[x] = after
            if self.root_corner == p:
                self.root_corner = after if after != p else None
        if self.root_corner == q:
            self.root_corner = arc[0] if arc else (after if after != p
                                                   else None)
        self._tags.pop(self.edge_key(p), None)
        del self._mate[p]
        del self._mate[q]
        del self._next[p]
        del self._next[q]
        del self._vertex[p]
        del self._vertex[q]
        del self._vrep[y]
        del self._color[y]
        return x

    def split_vertex(self, v: int, arc: list[int], color: int) -> int:
        """Detach the contiguous cw arc of darts from v onto a fresh vertex
        of the given color; the arc may be empty. Returns the new vertex."""
        darts = self.vertex_darts(v)
        if arc:
            start = darts.index(arc[0])
            rotated = darts[start:] + darts[:start]
            if rotated[:len(arc)] != list(arc):
                raise ValueError("darts do not form a contiguous cw arc")
        in_arc = set(arc)
        rest = [d for d in darts if d not in in_arc]
        w = self.new_vertex(color)
        for grp, vtx in ((list(arc), w), (rest, v)):
            for i, d in enumerate(grp):
                self._next[d] = grp[(i + 1) % len(grp)]
                self._vertex[d] = vtx
            if grp:
                self._vrep[vtx] = grp[0]
            elif vtx in self._vrep:
                del self._vrep[vtx]
        return w

    def clear_tags(self):
        self._tags.clear()

    def recolor_bipartite(self):
        """Recolor all vertices by breadth-first 2-coloring from the root
        vertex (black). Fails on odd cycles."""
        root = self.root_vertex()
        colors = {root: BLACK}
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for d in self.vertex_darts(v):
                u = self._vertex[self._mate[d]]
                if u not in colors:
                    colors[u] = 1 - colors[v]
                    queue.append(u)
                elif colors[u] == colors[v]:
                    raise ValueError("map is not bipartite")
        if set(colors) != set(self._color):
            raise ValueError("map is not connected")
        self._color = colors

    # -- validation & statistics --------------------------------------------

    def find_violation(self) -> str | None:
        """None if this is a valid rooted bipartite planar map."""
        darts = set(self._mate)
        if set(self._next) != darts or set(self._vertex) != darts:
            return "dart tables out of sync"
        for d, m in self._mate.items():
            if m == d or self._mate[m] != d:
                return f"mate is not a fixed-point-free involution at {d}"
        for v in self._color:
            if (v in self._vrep) != (self.degree(v) > 0):
                return f"vertex {v} representative out of sync"
        for d in darts:
            if self._vertex[self._next[d]] != self._vertex[d]:
                return f"rotation at dart {d} leaves its vertex"
        covered = {d for v in self._vrep for d in self.vertex_darts(v)}
        if covered != darts:
            return "rotation orbits do not partition the darts"
        for d in darts:
            if self._color[self._vertex[d]] == self._color[
                    self._vertex[self._mate[d]]]:
                return (f"edge at dart {d} joins two "
                        f"{'black' if self._color[self._vertex[d]] == BLACK else 'white'} vertices")
        # connectivity over darts, plus the edgeless special case
        isolated = [v for v in self._color if v not in self._vrep]
        if not darts:
            if len(self._color) != 1 or isolated != self.vertices():
                return "edgeless map must be a single vertex"
            if self._color[isolated[0]] != BLACK:
                return "edgeless map vertex must be black"
            if self.root_corner is not None:
                return "edgeless map has no root corner"
            return None
        if isolated:
            return f"isolated vertex {isolated[0]} in a map with edges"
        seen = set()
        todo = [next(iter(darts))]
        while todo:
            d = todo.pop()
            if d in seen:
                continue
            seen.add(d)
            todo.append(self._mate[d])
            todo.append(self._next[d])
        if seen != darts:
            return "map is not connected"
        v_count = len(self._color)
        f_count = len(self.face_orbits())
        if v_count - self.edge_count + f_count != 2:
            return (f"genus is not 0: V={v_count} E={self.edge_count} "
                    f"F={f_count}")
        if self.root_corner is None:
            return "missing root corner"
        if self._color[self._vertex[self.root_corner]] != BLACK:
            return "root vertex is not black"
        return None

    def is_valid(self) -> bool:
        return self.find_violation() is None

    def stats(self) -> MapStats:
        black = sum(1 for c in self._color.values() if c == BLACK)
        white = len(self._color) - black
        if not self._mate:
            return MapStats(black, white, 1, 0)
        return MapStats(black, white, len(self.face_orbits()),
                        len(self.outer_face()) // 2)

    # -- encodings -----------------------------------------------------------

    def to_hypermap(self) -> HypermapCode:
        """Permutation-pair encoding under the canonical edge labeling."""
        n = self.edge_count
        if n == 0:
            return HypermapCode(0, (), (), 0)
        # the raw pair numbers the edges in sorted dart order
        keys = sorted(d for d, m in self._mate.items() if d < m)
        raw = {d: e for e, d in enumerate(keys, 1)}
        sigma = [0] * (n + 1)
        alpha = [0] * (n + 1)
        for d, nxt in self._next.items():
            rot = sigma if self._color[self._vertex[d]] == BLACK else alpha
            rot[raw[self.edge_key(d)]] = raw[self.edge_key(nxt)]
        order = bfs_edge_order(sigma, alpha,
                               raw[self.edge_key(self.root_corner)])
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
                entry = self._tags.get(d)
                if entry:
                    tag, lab = entry
                    text = f"{tag}{lab}" if tag == 'T' else tag
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
    for e in range(1, code.n + 1):
        m._mate[2 * e - 1] = 2 * e
        m._mate[2 * e] = 2 * e - 1
        m._next[2 * e - 1] = 2 * code.sigma[e - 1] - 1
        m._next[2 * e] = 2 * code.alpha[e - 1]
    v = 0
    for perm, parity, color in ((code.sigma, 1, BLACK),
                                (code.alpha, 0, WHITE)):
        for cyc in perm_cycles((0,) + perm, range(1, code.n + 1)):
            m._color[v] = color
            m._vrep[v] = 2 * cyc[0] - parity
            for e in cyc:
                m._vertex[2 * e - parity] = v
            v += 1
    m._next_vertex = v
    m.root_corner = 2 * code.root - 1
    m._next_dart = 2 * code.n + 1
    return m
