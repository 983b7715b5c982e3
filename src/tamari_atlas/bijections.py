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
postorder, on vertices coloured as they are made: leaves white, the rest
black. A3 is one ``split_vertex``, whose new edge is the tree edge, and
A3' merges a node into its parent (both black) with ``contract_edge``,
its inverse.

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
vertex's rotation, one ``PlanarMap`` call each (``next_tagged`` for the
next pending edge, ``tag_run`` for the end of A3's map arc, then
``split_vertex`` up to it, adding the tree edge), every step takes
constant time, so the direction runs in near-linear time on random inputs.
verify's bridge-agreement checks each decision through ``trace``, by a
cut test on the live working map.

Maps cross the API as HypermapCodes: map_to_tree builds its working
PlanarMap from the code, and tree_to_map codes its working map back. A
HypermapCode, DegreeTree or NewInterval is valid once built, and a code
canonical, so no direction checks its input. Each direction checks its
own invariants as it goes, the output's validity included, and raises
RuntimeError if one fails; a failure means a bug, not bad input.

The interval side goes through certificates: nodes are processed in
reverse preorder, and a node with leftmost edge label r sends its
certificate forward past r not-yet-consumed nodes; the lower path is the
concatenation of u d^(multiplicity) over the preorder, the upper path
wraps the plane-tree Dyck word in one extra up/down pair. A node consumes
the still-black nodes after it nearest-first and then becomes the
nearest one itself, so they form a stack: pop r, read the certificate
off the new top, push the node. Every node is pushed and popped at most
once, so both interval directions are linear on every tree shape.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .dyck import DyckPath, NewInterval, factor_rising_contacts
from .maps import (BLACK, WHITE, HypermapCode, from_dart_lists,
                   from_hypermap)
from .trees import DegreeTree, PlaneTree, _plane_tree, tree_word


class TreeView:
    """Read-only live view of map_to_tree's tree, a sequence by vertex id:
    ``view[v]`` is the tuple of v's children, left to right."""

    def __init__(self, first, sib):
        self._first, self._sib = first, sib

    def __getitem__(self, v):
        out, c = [], self._first[v]
        while c >= 0:
            out.append(c)
            c = self._sib[c]
        return tuple(out)


def map_to_tree(code: HypermapCode,
                trace: Callable[..., None] | None = None) -> DegreeTree:
    """Transform a rooted bipartite planar map into a degree tree.

    ``trace``, if given, is called after each step as
    ``trace(kind, w, current, root, children)`` with the live working
    PlanarMap and a :class:`TreeView` of the growing tree; copy them to
    keep a state."""
    if code.n == 0:
        return DegreeTree(PlaneTree(((),)), ())
    w = from_hypermap(code, 'M')
    # faces of the input, flagged once merged into the explored face
    # (see the module docstring); a bipartite map's faces have even degree
    face, degree = w.faces()
    explored = [False] * len(degree)
    explored[face[w.root_corner]] = True

    root = w.root_vertex()
    # the tree by vertex id, which splits keep below 2n + 2: leftmost
    # child, next sibling to the right and edge label, -1 for none or not
    # reached
    first, sib, label = ([-1] * (2 * code.n + 2) for _ in range(3))
    label[root] = 0
    children = TreeView(first, sib)
    cur, d = root, w.root_corner    # d: the pending dart
    stack: list[int] = []   # parent-side tree darts along the descent path

    while True:
        md = w.mate(d)
        if not explored[face[d]]:
            raise RuntimeError(f"pending dart {d} is not on the explored face")
        if explored[face[md]]:
            # a bridge: its two sides lie in the explored face
            lab = 0
            if w.next_cw(md) == md:
                # A1: leaf edge, converted in place
                t = scan_from = d
                kind = 'A1'
            else:
                # A2: bridge into a bigger component; hop over it
                t, scan_from = w.add_edge(d, w.next_cw(w.mate(w.next_cw(md))))
                kind = 'A2'
        else:
            # A3: split off the unexplored edges as the new leftmost child;
            # deleting d merges the face it closes into the explored face
            inner = face[md]
            explored[inner] = True
            lab = degree[inner] // 2
            last = w.tag_run(d, 'T')   # end of d's map darts, or None
            if last is None:
                raise RuntimeError("map darts are not contiguous at the "
                                   f"current vertex {cur}")
            t, scan_from = w.split_vertex(d, last)
            kind = 'A3'
        # t, the new tree edge's dart at cur, takes label lab, and its far
        # end becomes cur's leftmost child; A2 and A3 delete d and descend
        w.set_tag(t, 'T', lab)
        child = w.vertex_of(w.mate(t))
        if label[child] >= 0:
            raise RuntimeError(f"map_to_tree reached vertex {child} twice")
        label[child] = lab
        sib[child], first[cur] = first[cur], child
        if kind != 'A1':
            w.delete_edge(d)
            stack.append(t)
            cur = child
        if trace is not None:
            trace(kind, w, cur, root, children)

        # prepare: next pending edge, backtracking along the tree if needed
        d = w.next_tagged(scan_from, 'M')
        while d is None and stack:
            t = stack.pop()
            cur = w.vertex_of(t)
            d = w.next_tagged(t, 'M')
            if d is None and trace is not None:
                trace('backtrack', w, cur, root, children)
        if trace is not None:
            trace('prepare', w, cur, root, children)
        if d is None:
            break

    # flatten into preorder, making no container per node but the output
    # tuples: in reverse preorder, node i's children are i + 1 and then
    # the end of each earlier child's subtree
    order, todo = [], [root]
    while todo:
        v = todo.pop()
        if v >= 0:
            order.append(v)
            todo.append(sib[v])
            todo.append(first[v])
    if len(order) != code.n + 1:    # one node per step
        raise RuntimeError("map_to_tree left map edges unconverted")
    end, kids, out = [0] * len(order), [], [()] * len(order)
    for i in range(code.n, -1, -1):
        j, c = i + 1, first[order[i]]
        kids.clear()
        while c >= 0:
            kids.append(j)
            j, c = end[j], sib[c]
        end[i] = j
        out[i] = tuple(kids)
    try:
        return DegreeTree(PlaneTree(tuple(out)),
                          tuple(map(label.__getitem__, order[1:])))
    except ValueError as exc:
        raise RuntimeError(f"map_to_tree built an invalid tree: {exc}")


def tree_to_map(dt: DegreeTree, trace: Callable[..., None] | None = None
                ) -> HypermapCode:
    """Transform a degree tree into a rooted bipartite planar map.

    ``trace`` is called as in :func:`map_to_tree`, with current None, root
    0 and children None: the tree shrinks into the map as it goes."""
    if dt.size == 0:
        return HypermapCode(0, (), (), 0)

    # embed the tree, vertex id = node: node c's edge has darts 2c-1 at
    # its parent and 2c at c, and the clockwise rotation at each node is
    # [parent, rightmost child, ..., leftmost child], the root's first
    # child's dart standing in for the parent dart at the root
    tree = dt.tree
    size = 2 * tree.node_count - 1
    nxt = [0] * size
    vertex = [0] * size
    vertex[2::2] = range(1, tree.node_count)
    for v, kids in enumerate(tree.children):
        up = 2 * v if v else 2 * kids[0] - 1
        d = up
        for c in (kids if v else kids[1:]):
            vertex[2 * c - 1] = v
            nxt[2 * c - 1], d = d, 2 * c - 1
        nxt[up] = d
    label = [0] * size
    label[1::2] = label[2::2] = dt.edge_labels
    w = from_dart_lists(nxt, vertex,
                        [BLACK if kids else WHITE for kids in tree.children],
                        2 * tree.children[0][-1] - 1, 'T', label)
    if trace is not None:
        trace('embed', w, None, 0, None)

    for node in tree.postorder():
        if node == 0:
            continue
        q = 2 * node
        p = q - 1
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
            a, _ = w.add_edge(w.next_cw(p), w.mate(e_prime))
            w.set_tag(a, 'M')
            w.delete_edge(q)
            kind = "A2'"
        else:
            # A3': cut a face of half-degree r out of the outer face,
            # then contract the tree edge
            d0 = w.next_cw(q)
            if d0 == q:
                raise RuntimeError(f"node {node} has no component edge")
            target = w.face_next(d0, 2 * r - 1)
            a, _ = w.add_edge(d0, target)
            w.set_tag(a, 'M')
            if w.face_degree(d0) != 2 * r:
                raise RuntimeError("new face does not close at the stated "
                                   f"half-degree {r}")
            w.contract_edge(p)
            kind = "A3'"
        if trace is not None:
            trace(kind, w, None, 0, None)

    if w.tags() != {'M'}:
        raise RuntimeError("tree_to_map left tree edges unconverted")
    try:
        # the code checks its permutations (which a miscoloured edge
        # breaks), transitivity and genus, and numbers itself canonically
        return w.to_hypermap()
    except ValueError as exc:
        raise RuntimeError(f"tree_to_map built an invalid map: {exc}")


class CertificateAssignment(NamedTuple):
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
    black: list[int] = []   # still-black nodes after v, nearest on top
    cert = [0] * n1
    for v in range(n1 - 1, -1, -1):
        kids = tree.children[v]
        r = dt.label_of(kids[0]) if kids else 0
        if r == 0:
            cert[v] = v
        elif len(black) <= r:
            raise RuntimeError("certificate search ran off the tree")
        else:
            del black[-r:]
            cert[v] = black[-1] - 1
        black.append(v)
    mult = [0] * n1
    for wv in cert:
        mult[wv] += 1
    return CertificateAssignment(tuple(cert), tuple(mult))


def tree_to_interval(dt: DegreeTree) -> NewInterval:
    """Degree tree of size n to new interval of size n + 1."""
    mult = certificates(dt).multiplicity
    lower = ''.join('u' + 'd' * mult[v] for v in range(dt.tree.node_count))
    upper = 'u' + tree_word(dt.tree, 'u' * dt.size, 'd') + 'd'
    return NewInterval(DyckPath(lower), DyckPath(upper))


def interval_to_tree(interval: NewInterval) -> DegreeTree:
    """New interval of size n + 1 to degree tree of size n.

    The tree is read off the upper path with its outer up/down pair
    stripped; the label of each leftmost edge is the number of rising
    contacts of the lower-path factor at the parent's preorder index,
    i.e. the number of up steps directly nested in that node's up step.
    """
    # a new interval's upper path is u, a Dyck word, d: no second check
    tree = _plane_tree(interval.upper.steps[1:-1].split('u')[:-1], 'd')
    contacts = factor_rising_contacts(interval.lower)
    labels = [0] * tree.size
    for node, kids in enumerate(tree.children):
        if kids:
            labels[kids[0] - 1] = contacts[node]
    return DegreeTree(tree, tuple(labels))


def map_to_interval(code: HypermapCode) -> NewInterval:
    return tree_to_interval(map_to_tree(code))


def interval_to_map(interval: NewInterval) -> HypermapCode:
    return tree_to_map(interval_to_tree(interval))
