r"""
Rooted bipartite planar maps: the HypermapCode value type, and the
PlanarMap half-edge structure that the bijections work on.

Each edge carries two darts paired by the ``mate`` involution; ``next_cw``
gives the next dart in clockwise order around the dart's vertex. Corners
are represented by the dart that follows them in clockwise order, and the
root corner sits on a black vertex of the outer face. Faces are orbits of
``next_cw . mate``; walking that permutation advances clockwise along the
boundary of the face containing the starting corner.

A map is stored flat, as lists indexed by dart (index 0 unused): the
rotation ``_next`` and its inverse ``_prev``, ``_mate``, ``_vertex``, and
a ``_tag``/``_label`` pair written on both darts of an edge; per vertex,
only ``_color`` (None once deleted): a vertex is the rotation cycle of
its darts, walked from any one of them. Ids are never reused: a deleted
dart keeps its slot with mate 0. So placing or removing a dart is an
O(1) splice, and a tag is one read. Only this module touches the lists.

Surgery takes darts, and a new dart always goes into the corner before a
given one: ``add_edge(a, b)`` fills the corners before a and b, in that
order. ``split_vertex(a, b)`` takes an arc of a rotation by its first
and last darts; it and ``contract_edge`` are inverses, and both cut or
join rotations by exchanging the successors of two darts.

The permutation-pair encoding lists, per edge id in 1..n, the next edge
clockwise around its black end (sigma) and around its white end (alpha);
faces correspond to orbits of e -> sigma(alpha(e)). Its text form is
``n=<n> sigma=<cycles> alpha=<cycles> root=<edge>``, with disjoint cycles
including fixed points, and the edgeless map written ``n=0``.

Every orbit listed, over edge ids or over darts, comes from the one walker
:func:`perm_cycles`. A code's check lists none: :func:`bfs_edge_order`,
the one breadth-first search over a pair, counts the sigma and alpha
cycles it reads, and the check walks the face cycles only to count them.
The search's order renumbers a code canonically and grows the map oracle
in ``enumeration``; ``PlanarMap`` scans walk one rotation or one face.

A HypermapCode is how a map crosses the API: like the other families'
value types it is immutable and checks itself when built, so every one
in hand is a valid map, canonically labelled. A PlanarMap is built from
one by :func:`from_hypermap`, coded back by ``to_hypermap``, and changed
by the surgery primitives, so it must be owned by a single thread.
"""

from __future__ import annotations

import re
from itertools import chain, compress
from typing import Iterable, Mapping, NamedTuple, Sequence

from .dyck import _Value

BLACK = 0
WHITE = 1


def perm_cycles(perm: Mapping[int, int] | Sequence[int],
                points: Iterable[int]) -> list[list[int]]:
    """Disjoint cycles of the permutation x -> perm[x] that meet
    ``points``, in the order of their first point, each starting there.
    A permutation of {1..n} is passed as a sequence with index 0 unused."""
    seen = bytearray(max(perm) + 1)   # a mapping's keys, a sequence's values
    cycles = []
    for start in points:
        x, cyc = start, []
        while not seen[x]:
            seen[x] = 1
            cyc.append(x)
            x = perm[x]
        if cyc:
            cycles.append(cyc)
    return cycles


def cycles_str(perm: Mapping[int, int] | Sequence[int],
               points: Iterable[int]) -> str:
    """Cycle notation of :func:`perm_cycles`, e.g. ``(1 2)(3)``."""
    cycles = [' '.join(map(str, c)) for c in perm_cycles(perm, points)]
    return '(' + ')('.join(cycles) + ')' if cycles else ''


def bfs_edge_order(sigma: Sequence[int], alpha: Sequence[int],
                   root: int) -> tuple[list[int], int]:
    """Edges of a pair in the breadth-first discovery order that defines
    the canonical labelling, and the number of rotations read; sigma and
    alpha are indexed by edge, index 0 unused, and hold edges only.

    The search starts at the black end of ``root`` and reads each vertex's
    rotation once, from the dart it was first reached by; an edge is
    discovered at its first read end. For a pair of permutations the
    order is shorter than n exactly when the pair is not transitive, and
    the rotations read are sigma's and alpha's cycles through the order.
    """
    rot = (sigma, alpha)
    # read[side][e]: the black (0) or white (1) end of edge e has been read
    read = ([False] * len(sigma), [False] * len(sigma))
    order: list[int] = []
    rotations = 0
    queue = [(root, 0)]   # grows while it is read, first in first out
    for e, side in queue:
        here, far, nxt = read[side], read[1 - side], rot[side]
        rotations += not here[e]
        x = e
        while not here[x]:
            here[x] = True
            if not far[x]:   # far end unread: x is discovered here
                order.append(x)
                queue.append((x, 1 - side))
            x = nxt[x]
    return order, rotations


def _cycle_count(perm: Sequence[int]) -> int:
    """Number of cycles of perm (index 0 unused); ValueError unless perm
    permutes 1..n."""
    n = len(perm) - 1
    seen = bytearray(n + 1)
    count = 0
    for start in range(1, n + 1):
        x = start
        count += not seen[x]
        while not seen[x]:     # a new cycle: walk it
            seen[x] = 1
            x = perm[x]
            if not 0 < x <= n or seen[x] and x != start:
                raise ValueError(f"not a permutation of 1..{n}")
    return count


class HypermapCode(_Value):
    """Rooted bipartite planar map as a permutation pair. Building one
    that is not a transitive genus-0 pair with its root in range raises
    ValueError; a valid one is renumbered canonically, by its BFS order."""

    __slots__ = _fields = ('n', 'sigma', 'alpha', 'root')

    def __init__(self, n: int, sigma: tuple[int, ...],
                 alpha: tuple[int, ...], root: int):
        if n < 0 or len(sigma) != n or len(alpha) != n:
            raise ValueError("permutations must act on {1..n}")
        if n == 0 and root != 0:
            raise ValueError("edgeless code has root=0")
        if n:
            sig, alp = (0,) + sigma, (0,) + alpha
            points = sigma + alpha
            order, c = (bfs_edge_order(sig, alp, root)
                        if 1 <= root <= n and 0 < min(points)
                        and max(points) <= n else ([], 0))
            if len(order) < n:
                # walks of every rotation word the error, in the order of
                # the rules: not a permutation, root out of range, not
                # transitive
                _cycle_count(sig), _cycle_count(alp)
                if not 1 <= root <= n:
                    raise ValueError("root edge out of range")
                raise ValueError("permutation pair is not transitive")
            # e -> sigma(alpha(e)) permutes the edges only if both do, so
            # the face walk also rejects a non-permutation the search read
            # through
            c += _cycle_count([sig[a] for a in alp])
            if c != n + 2:
                raise ValueError(f"not genus 0: cycle count {c} != {n + 2}")
            if order != sorted(order):   # renumber edge order[i] as i + 1
                label = dict(zip(order, range(1, n + 1)))
                sigma, alpha, root = (tuple(label[sig[e]] for e in order),
                                      tuple(label[alp[e]] for e in order), 1)
        object.__setattr__(self, 'n', n)
        object.__setattr__(self, 'sigma', sigma)
        object.__setattr__(self, 'alpha', alpha)
        object.__setattr__(self, 'root', root)

    def face_cycles(self) -> list[list[int]]:
        """Orbits of e -> sigma(alpha(e)), one per face."""
        sigma = (0,) + self.sigma
        return perm_cycles([sigma[a] for a in (0,) + self.alpha],
                           range(1, self.n + 1))

    def stats(self) -> MapStats:
        """One black vertex per sigma cycle, one white vertex per alpha
        cycle, one face per face cycle; the outer face is the face cycle
        through the root edge, whose length is its half-degree. The
        edgeless map is one black vertex in one face."""
        if self.n == 0:
            return MapStats(1, 0, 1, 0)
        ids = range(1, self.n + 1)
        faces = self.face_cycles()
        return MapStats(len(perm_cycles((0,) + self.sigma, ids)),
                        len(perm_cycles((0,) + self.alpha, ids)),
                        len(faces),
                        len(next(c for c in faces if self.root in c)))

    def __str__(self) -> str:
        if self.n == 0:
            return "n=0"
        ids = range(1, self.n + 1)
        return (f"n={self.n} sigma={cycles_str((0,) + self.sigma, ids)} "
                f"alpha={cycles_str((0,) + self.alpha, ids)} "
                f"root={self.root}")


_CYCLE_RE = re.compile(r'\(([^()]*)\)')
_FIELD_RE = re.compile(r'\b(n|sigma|alpha|root)=')
_ODD_POINT = re.compile(r'[^0-9()\s]|(?<![0-9])0[0-9]')


def _number(what: str, text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        if text.isascii() and text.isdigit():
            raise   # more digits than int() converts; its message says so
        value = None
    # "+", "_", a leading zero, a non-ASCII digit or no number at all
    if value is None or str(value) != text:
        raise ValueError(f"{what} {text[:20]!r} is not one of 0, 1, 2, ...")
    return value


def _parse_cycles(n: int, text: str) -> tuple[int, ...]:
    # in bulk unless the text holds a character no point 1, 2, ... prints,
    # or a leading zero: such text is rejected, its error worded by _number
    number = (int if not _ODD_POINT.search(text)
              else lambda point: _number('cycle point', point))
    cycles = [list(map(number, m.split())) for m in _CYCLE_RE.findall(text)]
    shown = text if len(text) <= 40 else text[:37] + '...'
    if not all(cycles):
        raise ValueError(f"empty cycle '()' in cycles {shown!r}")
    # count the points before allocating: n comes from the input and may
    # be far too large for a list
    if sum(map(len, cycles)) != n or _CYCLE_RE.sub('', text).strip():
        raise ValueError(f"cycles {shown!r} do not cover "
                         f"1..{str(n)[:20]} exactly")
    succ = dict(zip(chain.from_iterable(cycles),
                    chain.from_iterable(c[1:] + c[:1] for c in cycles)))
    if len(succ) < n or min(succ) < 1 or max(succ) > n:
        seen = set()   # a point repeated or out of range: name the first
        for a in chain.from_iterable(cycles):
            if not 1 <= a <= n or a in seen:
                raise ValueError(f"bad cycle notation at point {str(a)[:20]}")
            seen.add(a)
    return tuple(map(succ.__getitem__, range(1, n + 1)))


def parse_hypermap(text: str) -> HypermapCode:
    """Parse the hypermap text form; whitespace and newlines both accepted
    between the fields, each field at most once."""
    parts = _FIELD_RE.split(text)
    if len(parts) < 3 or parts[0].strip():
        raise ValueError("malformed map text")
    fields: dict[str, str] = {}
    for name, value in zip(parts[1::2], parts[2::2]):
        if name in fields:
            raise ValueError(f"duplicate field {name!r}")
        fields[name] = value.strip()

    def field(name: str) -> str:
        if name not in fields:
            raise ValueError(f"missing field {name!r}")
        return fields[name]

    n = _number('n', field('n'))
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        if len(fields) > 1:
            raise ValueError("the edgeless map is written 'n=0' alone")
        return HypermapCode(0, (), (), 0)
    return HypermapCode(n,
                        _parse_cycles(n, field('sigma')),
                        _parse_cycles(n, field('alpha')),
                        _number('root', field('root')))


class MapStats(NamedTuple):
    """Vertex-color counts, face count and outer-face half-degree."""

    black: int
    white: int
    face: int
    outdeg: int


def _not_live(d: int) -> ValueError:
    return ValueError(f"dart {d} is not live")


class PlanarMap:
    """Mutable half-edge structure for rooted bipartite planar maps.

    The constructor builds the edgeless map (one black vertex); a larger
    one comes from :func:`from_hypermap` or :func:`from_dart_lists`, and
    the surgery primitives change it. Tags and integer labels can be
    attached per edge for the bijection working state; surgery keeps them
    consistent.
    """

    # every field of the state, set up by __init__; all but root_corner
    # are lists indexed by dart or by vertex. A walk or surgery from a dart
    # first tests inline that it is live (a call would slow the
    # bijections): from a dead dart a walk follows a stale _next forever
    __slots__ = ('_next', '_prev', '_mate', '_vertex', '_tag', '_label',
                 '_color', 'root_corner')

    def __init__(self):
        # the lists of the module docstring, for one black vertex
        self._next, self._prev, self._mate, self._vertex = [0], [0], [0], [0]
        self._tag, self._label = [None], [0]
        self._color: list[int | None] = [BLACK]
        self.root_corner: int | None = None

    # -- basic queries -----------------------------------------------------

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

    def rotation(self, d: int) -> list[int]:
        """Darts of d's vertex in clockwise order, from d."""
        nxt, mate = self._next, self._mate
        if not (0 < d < len(mate) and mate[d]):
            raise _not_live(d)
        out, x = [d], nxt[d]
        while x != d:
            out.append(x)
            x = nxt[x]
        return out

    def next_tagged(self, d: int, tag: str) -> int | None:
        """First dart after d clockwise around its vertex tagged ``tag``,
        or None if none is before d."""
        nxt, tags, mate = self._next, self._tag, self._mate
        if not (0 < d < len(mate) and mate[d]):
            raise _not_live(d)
        x = nxt[d]
        while x != d and tags[x] != tag:
            x = nxt[x]
        return x if x != d else None

    def tag_run(self, d: int, rest: str) -> int | None:
        """Last dart of the run from d clockwise of darts tagged like d;
        None unless all the others around d's vertex are tagged ``rest``."""
        nxt, tags, mate = self._next, self._tag, self._mate
        if not (0 < d < len(mate) and mate[d]):
            raise _not_live(d)
        x = nxt[d]
        while x != d and tags[x] == tags[d]:
            x = nxt[x]
        last = self._prev[x]
        while x != d and tags[x] == rest:
            x = nxt[x]
        return last if x == d else None

    def root_vertex(self) -> int:
        if self.root_corner is None:
            # the edgeless map keeps its single vertex
            return self.vertices()[0]
        return self._vertex[self.root_corner]

    # -- edge tags ---------------------------------------------------------

    def set_tag(self, d: int, tag: str, label: int = 0):
        m = self._mate[d] if 0 < d < len(self._mate) else 0
        if not m:
            raise _not_live(d)
        self._tag[d] = self._tag[m] = tag
        self._label[d] = self._label[m] = label

    def tag_of(self, d: int) -> str | None:
        return self._tag[d]

    def tags(self) -> set[str | None]:
        """The tags on the live darts."""
        return set(compress(self._tag, self._mate))

    def edge_label(self, d: int) -> int:
        return self._label[d]

    # -- faces -------------------------------------------------------------

    def face_next(self, d: int, k: int) -> int:
        """The corner k steps clockwise along the boundary of d's face."""
        nxt, mate = self._next, self._mate
        if not (0 < d < len(mate) and mate[d]):
            raise _not_live(d)
        for _ in range(k):
            d = nxt[mate[d]]
        return d

    def faces(self) -> tuple[list[int], list[int]]:
        """Faces numbered in the order of their least dart: the face of
        each dart (-1 for a deleted one) and the degree of each face."""
        nxt, mate = self._next, self._mate
        face = [-1] * len(mate)
        degree: list[int] = []
        for d, m in enumerate(mate):
            if m and face[d] < 0:
                f, x, k = len(degree), d, 0
                while face[x] < 0:
                    face[x] = f
                    x = nxt[mate[x]]
                    k += 1
                degree.append(k)
        return face, degree

    def face_degree(self, d: int) -> int:
        """Number of corners of d's face."""
        nxt, mate = self._next, self._mate
        if not (0 < d < len(mate) and mate[d]):
            raise _not_live(d)
        x, k = nxt[mate[d]], 1
        while x != d:
            x, k = nxt[mate[x]], k + 1
        return k

    # -- surgery -----------------------------------------------------------

    def add_edge(self, a: int, b: int) -> tuple[int, int]:
        """Add an edge whose two darts go into the corners before live
        darts ``a`` and ``b``, in that order, so ``add_edge(a, a)`` puts
        the first new dart before the second. The corners must share a
        face for the map to stay planar; surgery leaves that to its caller."""
        nxt, prv, vertex = self._next, self._prev, self._vertex
        d, mate = len(nxt), self._mate
        if not (0 < a < d and mate[a] and 0 < b < d and mate[b]):
            raise _not_live(b if 0 < a < d and mate[a] else a)
        for x, after in ((d, a), (d + 1, b)):
            before = prv[after]
            nxt.append(after)
            prv.append(before)
            vertex.append(vertex[after])
            nxt[before] = prv[after] = x
        self._mate += (d + 1, d)
        self._tag += (None, None)
        self._label += (0, 0)
        return d, d + 1

    def _remove_dart(self, d: int):
        before, after = self._prev[d], self._next[d]
        self._next[before] = after
        self._prev[after] = before
        if self.root_corner == d:
            self.root_corner = after if after != d else None

    def delete_edge(self, d: int):
        """Remove the edge of live dart d; endpoints may become isolated."""
        m = self._mate[d] if 0 < d < len(self._mate) else 0
        if not m:
            raise _not_live(d)
        self._mate[d] = self._mate[m] = 0
        self._remove_dart(d)
        self._remove_dart(m)

    def _swap_next(self, p: int, q: int):
        """Exchange the successors of darts p and q: this joins their
        rotations if they differ, and cuts their shared rotation into one
        through p and one through q if not."""
        nxt, prv = self._next, self._prev
        a, b = nxt[q], nxt[p]
        nxt[p], nxt[q] = a, b
        prv[a], prv[b] = p, q

    def contract_edge(self, d: int):
        """Contract d's edge, merging its endpoints and preserving the
        cyclic order of the surrounding darts. Returns the kept vertex
        (the one on d's side)."""
        p, q = d, self._mate[d] if 0 < d < len(self._mate) else 0
        if not q:
            raise _not_live(d)
        x, y = self._vertex[p], self._vertex[q]
        if x == y:
            raise ValueError("cannot contract a loop")
        for a in self.rotation(q):
            self._vertex[a] = x
        # one rotation, with y's other darts between p and q; then p and
        # q go
        self._swap_next(p, q)
        if self.root_corner == q:
            self.root_corner = p   # passes on to the dart after q
        self._remove_dart(p)
        self._remove_dart(q)
        self._mate[p] = self._mate[q] = 0
        self._color[y] = None
        return x

    def split_vertex(self, a: int, b: int) -> tuple[int, int]:
        """Inverse of :meth:`contract_edge`: move the darts from a to b
        clockwise around their vertex v (a alone if b is a, all of v's if
        b precedes a) onto a fresh vertex of v's colour, joined to v by a
        new edge. Returns the edge's darts: the one at v takes the arc's
        place, and the one at the new vertex goes before a."""
        mate, vertex = self._mate, self._vertex
        if not (0 < a < len(mate) and mate[a] and 0 < b < len(mate)
                and mate[b]):
            raise _not_live(b if 0 < a < len(mate) and mate[a] else a)
        v = vertex[a]
        if vertex[b] != v:
            raise ValueError(f"darts {a} and {b} are on different vertices")
        t, m = self.add_edge(a, a)
        # cut m and the arc off from v, then rename them in one walk
        self._swap_next(t, b)
        w = len(self._color)
        self._color.append(self._color[v])
        x, nxt = m, self._next
        while vertex[x] != w:
            vertex[x] = w
            x = nxt[x]
        return t, m

    # -- validation ----------------------------------------------------------

    def find_violation(self) -> str | None:
        """None if this is a valid rooted bipartite planar map. For maps
        built by hand: a map from :func:`from_hypermap` is valid, since
        its code is. Once the storage, colours and root are sound, the
        map is valid exactly when its code is, so connectivity and
        genus are left to :class:`HypermapCode`."""
        nxt, prv, mate, vertex = (self._next, self._prev, self._mate,
                                  self._vertex)
        color = self._color
        size = len(mate)
        if {len(nxt), len(prv), len(vertex), len(self._tag),
                len(self._label)} != {size}:
            return "dart tables out of sync"
        darts = self.darts()
        for d in darts:
            m, x, v = mate[d], nxt[d], vertex[d]
            if m == d or not 0 < m < size or mate[m] != d:
                return f"mate is not a fixed-point-free involution at {d}"
            if not 0 < x < size or not mate[x] or prv[x] != d:
                return f"prev does not invert next at dart {d}"
            if not 0 <= v < len(color) or color[v] is None:
                return f"dart {d} is on no live vertex"
        for d in darts:
            if vertex[nxt[d]] != vertex[d]:
                return f"rotation at dart {d} leaves its vertex"
        isolated = set(self.vertices())   # until a rotation is found on it
        for cycle in perm_cycles(nxt, darts):
            v = vertex[cycle[0]]
            if v not in isolated:
                return f"vertex {v} has two rotation cycles"
            isolated.remove(v)
        for d in darts:
            c = color[vertex[d]]
            if c == color[vertex[mate[d]]]:
                return (f"edge at dart {d} joins two "
                        f"{'black' if c == BLACK else 'white'} vertices")
        if not darts:
            if len(isolated) != 1:
                return "edgeless map must be a single vertex"
            if color[isolated.pop()] != BLACK:
                return "edgeless map vertex must be black"
            if self.root_corner is not None:
                return "edgeless map has no root corner"
            return None
        if isolated:
            return f"isolated vertex {min(isolated)} in a map with edges"
        try:
            self.to_hypermap()
        except ValueError as exc:
            return str(exc)
        return None

    # -- encodings -----------------------------------------------------------

    def to_hypermap(self) -> HypermapCode:
        """Permutation-pair encoding, which the code numbers canonically."""
        n = self.edge_count
        if n == 0:
            return HypermapCode(0, (), (), 0)
        mate, nxt, vertex, color = (self._mate, self._next, self._vertex,
                                    self._color)
        root = self.root_corner
        if root is None or not 0 < root < len(mate) or not mate[root]:
            raise ValueError("missing root corner")
        if color[vertex[root]] != BLACK:
            raise ValueError("root vertex is not black")
        # the raw pair numbers the edges in sorted dart order, on both darts
        raw = [0] * len(mate)
        e = 0
        for d, m in enumerate(mate):
            if d < m:
                e += 1
                raw[d] = raw[m] = e
        sigma, alpha = [0] * (n + 1), [0] * (n + 1)
        for d in self.darts():
            rot = sigma if color[vertex[d]] == BLACK else alpha
            rot[raw[d]] = raw[nxt[d]]
        return HypermapCode(n, tuple(sigma[1:]), tuple(alpha[1:]), raw[root])

    def canonical_code(self) -> str:
        """Root-preserving isomorphism invariant."""
        return str(self.to_hypermap())


def from_hypermap(code: HypermapCode, tag: str | None = None) -> PlanarMap:
    """Working map of a permutation-pair encoding, every edge tagged
    ``tag``; black dart of edge e is 2e-1, white dart 2e, and the root
    corner is the black corner preceding the root edge. One walk over the
    darts numbers the vertices, black ones first, by their least dart."""
    if code.n == 0:
        return PlanarMap()
    size = 2 * code.n + 1
    nxt = [0] * size
    nxt[1::2] = [2 * s - 1 for s in code.sigma]
    nxt[2::2] = [2 * a for a in code.alpha]
    vertex = [0] + [-1] * (size - 1)
    color: list[int] = []
    for d in [*range(1, size, 2), *range(2, size, 2)]:
        if vertex[d] < 0:       # the least dart of a vertex not yet seen
            v, x = len(color), d
            while vertex[x] < 0:
                vertex[x] = v
                x = nxt[x]
            color.append(BLACK if d % 2 else WHITE)
    return from_dart_lists(nxt, vertex, color, 2 * code.root - 1, tag)


def from_dart_lists(nxt: list[int], vertex: list[int], color: list[int],
                    root: int, tag: str | None = None,
                    label: list[int] | None = None) -> PlanarMap:
    """The working map whose edge e has darts 2e-1 and 2e, every edge
    tagged ``tag``, from the lists that :class:`PlanarMap` keeps, less
    the inverse rotation and the mates: per dart the rotation and the
    vertex, per vertex the colour. They must describe a map."""
    size = len(nxt)
    prv = [0] * size
    for d, x in enumerate(nxt):
        prv[x] = d
    mate = [0] * size
    mate[1::2] = range(2, size, 2)
    mate[2::2] = range(1, size, 2)
    m = PlanarMap()
    (m._next, m._prev, m._mate, m._vertex, m._color,
     m.root_corner) = nxt, prv, mate, vertex, color, root
    m._tag, m._label = [None] + [tag] * (size - 1), label or [0] * size
    return m
