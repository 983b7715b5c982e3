r"""
The four transformations between bipartite maps, degree trees and new
intervals, plus their composites.

Both map/tree directions run on a single tagged working map: edges are
tagged 'M' (still part of the map) or 'T' (part of the tree under
construction), and tree edges carry their integer label. Moving an edge
between the two structures is a tag flip plus surgery, never a copy.

map_to_tree explores the map from the root corner, converting one map
edge per advance step: a bridge to a degree-1 vertex becomes a labelled-0
leaf edge in place (A1); a bridge to a larger vertex is replaced by a
tree edge to the vertex behind it (A2); a non-bridge triggers a vertex
split, with the half holding the unexplored map edges becoming the new
leftmost child and the half-degree of the face that the edge closes
becoming the edge label (A3). tree_to_map runs the exact inverse cases in
postorder.

map_to_tree never walks a face. The tree grows inside one face of the
'M' part, the explored face: at first the outer face, and then also
each face that an A3 step merges into it by deleting the non-bridge
edge between them. Tree edges hang off each 'M' component at one vertex
inside the explored face, so they never separate two faces, and the
pending corner always lies on the explored face. Every other face is
therefore still a face of the input, with its input degree. So the
input's faces are numbered once per dart, with one flag per face
marking it explored: an edge is a bridge when the face across it is
explored, and A3 reads its label as half the input degree of the face
across it, then flags that face. Apart from scans of the current
vertex's rotation, every step takes constant time, so the direction runs
in near-linear time on random inputs. PlanarMap.is_bridge keeps the
face-walk definition as the independent reference.

A DegreeTree or NewInterval is valid once built; a PlanarMap is
mutable, so map_to_tree checks its input. Each direction also checks
its own invariants as it goes and raises RuntimeError if one fails; a
failure means a bug, not bad input.

The interval side goes through certificates: nodes are processed in
reverse preorder, and a node with leftmost edge label r sends its
certificate forward past r not-yet-consumed nodes; the lower path is the
concatenation of u d^(multiplicity) over the preorder, the upper path
wraps the plane-tree Dyck word in one extra up/down pair.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

from .dyck import DyckPath, NewInterval, factor_rising_contacts
from .maps import BLACK, PlanarMap, edgeless_map
from .trees import (DegreeTree, PlaneTree, dyck_to_plane_tree,
                    plane_tree_to_dyck)


def map_to_tree(m: PlanarMap, trace: Callable[..., None] | None = None
                ) -> DegreeTree:
    """Transform a rooted bipartite planar map into a degree tree.

    ``trace``, if given, is called after each step as
    ``trace(kind, w, current, root, children)`` with the live working map
    and the live vertex -> children (left to right) mapping; copy them to
    keep a state."""
    bad = m.find_violation()
    if bad is not None:
        raise ValueError(f"invalid input map: {bad}")
    if m.edge_count == 0:
        return DegreeTree(PlaneTree(((),)), ())
    w = m.copy()
    for d in w.darts():
        w.set_tag(d, 'M')

    # faces of the input, flagged once merged into the explored face
    # (see the module docstring)
    face: dict[int, int] = {}       # dart -> its face in the input
    degree: list[int] = []          # face -> its degree in the input
    for orbit in w.face_orbits():
        for x in orbit:
            face[x] = len(degree)
        degree.append(len(orbit))
    explored = [False] * len(degree)
    explored[face[w.root_corner]] = True

    root = w.root_vertex()
    kids: dict[int, deque[int]] = {root: deque()}   # left to right
    labels: dict[int, int] = {}
    cur = root
    pend = w.root_corner
    stack: list[int] = []   # parent-side tree darts along the descent path

    def first_map_dart(after: int) -> int | None:
        x = w.next_cw(after)
        while x != after:
            if w.tag_of(x) == 'M':
                return x
            x = w.next_cw(x)
        return None

    def new_child(v: int, label: int):
        if v in kids:
            raise RuntimeError(f"map_to_tree reached vertex {v} twice")
        kids[v] = deque()
        kids[cur].appendleft(v)
        labels[v] = label

    while True:
        d = pend
        md = w.mate(d)
        if not explored[face[d]]:
            raise RuntimeError(f"pending dart {d} is not on the explored face")
        if explored[face[md]]:
            # a bridge: its two sides lie in the explored face
            if w.next_cw(md) == md:
                # A1: leaf edge, converted in place
                w.set_tag(d, 'T', 0)
                new_child(w.vertex_of(md), 0)
                scan_from = d
                kind = 'A1'
            else:
                # A2: bridge into a bigger component; hop over it
                e1 = w.next_cw(md)
                behind = w.vertex_of(w.mate(e1))
                a, b = w.add_edge(('corner', d), ('after', w.mate(e1)))
                w.set_tag(a, 'T', 0)
                w.delete_edge(d)
                new_child(behind, 0)
                stack.append(a)
                cur = behind
                scan_from = b
                kind = 'A2'
        else:
            # A3: split off the unexplored edges as the new leftmost child;
            # deleting d merges the face it closes into the explored face
            inner = face[md]
            if degree[inner] % 2:
                raise RuntimeError(f"face of dart {md} has odd degree "
                                   f"{degree[inner]}")
            half_deg = degree[inner] // 2
            explored[inner] = True
            rotated = w.vertex_darts(cur, start=d)
            arc = []
            for x in rotated:
                if w.tag_of(x) != 'M':
                    break
                arc.append(x)
            if any(w.tag_of(x) != 'T' for x in rotated[len(arc):]):
                raise RuntimeError("map darts are not contiguous at the "
                                   f"current vertex {cur}")
            child_v = w.split_vertex(cur, arc, w.color(cur))
            place_tree = (('corner', rotated[len(arc)])
                          if len(arc) < len(rotated) else ('vertex', cur))
            t_dart, m_dart = w.add_edge(place_tree, ('corner', d))
            w.set_tag(t_dart, 'T', half_deg)
            w.delete_edge(d)
            new_child(child_v, half_deg)
            stack.append(t_dart)
            cur = child_v
            scan_from = m_dart
            kind = 'A3'
        if trace is not None:
            trace(kind, w, cur, root, kids)

        # prepare: next pending edge, backtracking along the tree if needed
        pend = first_map_dart(scan_from)
        while pend is None and stack:
            t = stack.pop()
            cur = w.vertex_of(t)
            pend = first_map_dart(t)
            if pend is None and trace is not None:
                trace('backtrack', w, cur, root, kids)
        if trace is not None:
            trace('prepare', w, cur, root, kids)
        if pend is None:
            break

    if any(w.tag_of(d) != 'T' for d in w.darts()):
        raise RuntimeError("map_to_tree left map edges unconverted")

    # flatten the vertex-keyed tree into preorder indexing
    children: list[list[int]] = []
    edge_labels: list[int] = []
    todo = [(root, -1)]     # (vertex, preorder index of its parent)
    while todo:
        v, p = todo.pop()
        idx = len(children)
        children.append([])
        if p >= 0:
            children[p].append(idx)
            edge_labels.append(labels[v])
        todo.extend((c, idx) for c in reversed(kids[v]))
    try:
        return DegreeTree(PlaneTree(tuple(map(tuple, children))),
                          tuple(edge_labels))
    except ValueError as exc:
        raise RuntimeError(f"map_to_tree built an invalid tree: {exc}")


def tree_to_map(dt: DegreeTree, trace: Callable[..., None] | None = None
                ) -> PlanarMap:
    """Transform a degree tree into a rooted bipartite planar map.

    ``trace`` is called as in :func:`map_to_tree`, with current None, root
    0 and children None: the tree shrinks into the map as it goes."""
    if dt.size == 0:
        return edgeless_map()

    # embed the tree in preorder: clockwise rotation at each node is
    # [parent, rightmost child, ..., leftmost child], so a child's dart
    # goes right after the node's parent dart; the root has none, and its
    # later children follow the dart of its first child instead
    w = PlanarMap()
    tree = dt.tree
    parents = tree.parents()
    vert: dict[int, int] = {0: 0}
    up_dart: dict[int, int] = {}    # node -> dart at node toward its parent
    for child in range(1, tree.node_count):
        node = parents[child]
        cv = w.new_vertex(BLACK)
        place = (('after', up_dart[node]) if node in up_dart
                 else ('vertex', vert[node]))
        p_dart, c_dart = w.add_edge(place, ('vertex', cv))
        w.set_tag(p_dart, 'T', dt.label_of(child))
        vert[child] = cv
        up_dart[child] = c_dart
        if node == 0:
            up_dart.setdefault(0, p_dart)
            w.root_corner = p_dart
    if trace is not None:
        trace('embed', w, None, 0, None)

    for node in tree.postorder():
        if node == 0:
            continue
        q = up_dart[node]
        p = w.mate(q)
        r = w.edge_label(q)
        if not tree.children[node]:
            # A1': leaf edge moves to the map in place
            if r != 0:
                raise RuntimeError(f"leaf {node} has edge label {r}")
            w.set_tag(q, 'M')
            kind = "A1'"
        elif r == 0:
            # A2': close a triangle over the neighbouring component edge
            e_prime = w.prev_cw(q)
            if e_prime == q:
                raise RuntimeError(f"node {node} has no component edge")
            a, _ = w.add_edge(('after', p), ('corner', w.mate(e_prime)))
            w.set_tag(a, 'M')
            w.delete_edge(q)
            kind = "A2'"
        else:
            # A3': cut a face of half-degree r out of the outer face,
            # then contract the tree edge
            d0 = w.next_cw(q)
            if d0 == q:
                raise RuntimeError(f"node {node} has no component edge")
            target = w.corner_walk_cw(d0, 2 * r - 1)
            a, _ = w.add_edge(('corner', d0), ('corner', target))
            w.set_tag(a, 'M')
            if len(w.face_of(d0)) != 2 * r:
                raise RuntimeError("new face does not close at the stated "
                                   f"half-degree {r}")
            w.contract_edge(p)
            kind = "A3'"
        if trace is not None:
            trace(kind, w, None, 0, None)

    if any(w.tag_of(d) != 'M' for d in w.darts()):
        raise RuntimeError("tree_to_map left tree edges unconverted")
    w.clear_tags()
    w.recolor_bipartite()
    bad = w.find_violation()
    if bad is not None:
        raise RuntimeError(f"tree_to_map built an invalid map: {bad}")
    return w


@dataclass(frozen=True)
class CertificateAssignment:
    """Certificate per node (by preorder index) and per-node multiplicity
    c(w) = number of nodes certified by w."""

    certificate: tuple[int, ...]
    multiplicity: tuple[int, ...]


def certificates(dt: DegreeTree) -> CertificateAssignment:
    """Reverse-preorder certificate assignment.

    Nodes start black; a node whose leftmost edge label is r re-colors the
    next r still-black nodes red and takes as certificate the node just
    before the (r+1)-st black one. Leaves and label-0 nodes certify
    themselves.
    """
    tree = dt.tree
    n1 = tree.node_count
    black = [True] * n1
    cert = [0] * n1
    for v in range(n1 - 1, -1, -1):
        kids = tree.children[v]
        r = dt.label_of(kids[0]) if kids else 0
        if r == 0:
            cert[v] = v
            continue
        seen = 0
        stop = v
        j = v + 1
        while True:
            if j >= n1:
                raise RuntimeError("certificate search ran off the tree")
            if black[j]:
                if seen == r:
                    break
                seen += 1
                black[j] = False
            stop = j
            j += 1
        cert[v] = stop
    mult = [0] * n1
    for wv in cert:
        mult[wv] += 1
    return CertificateAssignment(tuple(cert), tuple(mult))


def tree_to_interval(dt: DegreeTree) -> NewInterval:
    """Degree tree of size n to new interval of size n + 1."""
    mult = certificates(dt).multiplicity
    lower = ''.join('u' + 'd' * mult[v] for v in range(dt.tree.node_count))
    upper = 'u' + plane_tree_to_dyck(dt.tree).steps + 'd'
    return NewInterval(DyckPath(lower), DyckPath(upper))


def interval_to_tree(interval: NewInterval) -> DegreeTree:
    """New interval of size n + 1 to degree tree of size n.

    The tree is read off the upper path with its outer up/down pair
    stripped; the label of each leftmost edge is the number of rising
    contacts of the lower-path factor at the parent's preorder index,
    i.e. the number of up steps directly nested in that node's up step.
    """
    tree = dyck_to_plane_tree(DyckPath(interval.upper.steps[1:-1]))
    contacts = factor_rising_contacts(interval.lower)
    labels = [0] * tree.size
    for node in range(tree.node_count):
        kids = tree.children[node]
        if kids:
            labels[kids[0] - 1] = contacts[node]
    return DegreeTree(tree, tuple(labels))


def map_to_interval(m: PlanarMap) -> NewInterval:
    return tree_to_interval(map_to_tree(m))


def interval_to_map(interval: NewInterval) -> PlanarMap:
    return tree_to_map(interval_to_tree(interval))
