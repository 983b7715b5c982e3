r"""
Plane trees and degree trees.

A plane tree is stored by preorder index: node 0 is the root and
``children[i]`` lists the children of node i in left-to-right order.
A degree tree adds one non-negative label per non-root node, attached to
the edge joining it to its parent; canonical storage is this edge
labeling, the node labeling is always derived from it. A degree tree is
valid when every non-leftmost edge carries 0 and every leftmost edge
carries at most the derived label of the child below it; like the other
value types, a DegreeTree enforces this when it is built, so every
DegreeTree in hand is valid.

Text form: the tree's Dyck word in parentheses, with ``LABEL:(`` for
each up step (LABEL on the edge it walks down) and ``)`` for each down
step. ``(1:(0:()))`` is a chain of three nodes with edge labels 1 and 0
from the root down.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .dyck import DyckPath, _Value


class PlaneTree(_Value):
    """Rooted plane tree; children[i] are node i's children in preorder."""

    __slots__ = _fields = ('children',)

    def __init__(self, children: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, 'children', children)
        _subtree_ends(children)

    @property
    def node_count(self) -> int:
        return len(self.children)

    @property
    def size(self) -> int:
        """Number of edges."""
        return self.node_count - 1

    def parents(self) -> tuple[int | None, ...]:
        par: list[int | None] = [None] * self.node_count
        for v, kids in enumerate(self.children):
            for c in kids:
                par[c] = v
        return tuple(par)

    def postorder(self) -> list[int]:
        # the reverse of "node, then its subtrees right to left"
        out: list[int] = []
        stack = [0]
        while stack:
            v = stack.pop()
            out.append(v)
            stack.extend(self.children[v])
        out.reverse()
        return out

    def subtree_sizes(self) -> tuple[int, ...]:
        """Number of proper descendants of each node."""
        return tuple(end - v - 1
                     for v, end in enumerate(_subtree_ends(self.children)))


def _subtree_ends(children) -> list[int]:
    """ends[v]: one past the last preorder index in v's subtree. Raises
    ValueError unless the children lists realize the preorder numbering:
    in reverse preorder, node v's children must be v+1, then the end of
    each earlier child's subtree, and the root's must be the last node."""
    n = len(children)
    ends = [0] * n
    for v in reversed(range(n)):
        nxt = v + 1
        for c in children[v]:
            if c != nxt or c >= n:
                raise ValueError("children lists do not follow preorder")
            nxt = ends[c]
        ends[v] = nxt
    if ends[:1] != [n]:
        raise ValueError("children lists do not follow preorder")
    return ends


def tree_from_nested(nested) -> PlaneTree:
    """Build a PlaneTree from nested lists/tuples of children."""
    children: list[list[int]] = []
    stack = [(nested, -1)]   # (node, preorder index of its parent)
    while stack:
        node, parent = stack.pop()
        idx = len(children)
        children.append([])
        if parent >= 0:
            children[parent].append(idx)
        stack.extend((c, idx) for c in reversed(node))
    return PlaneTree(tuple(tuple(k) for k in children))


def dyck_to_plane_tree(path: DyckPath) -> PlaneTree:
    """Plane tree whose preorder depth evolution is the height profile."""
    return _plane_tree(path.steps.split('u')[:-1], 'd')


def _plane_tree(steps: list[str], down: str) -> PlaneTree:
    """The plane tree whose node v >= 1 enters, in preorder, after the
    down steps in steps[v-1]; ValueError if they close the root early."""
    children: list[list[int]] = [[]]
    path = [0]      # the open nodes, the root first
    for step in steps:
        k = step.count(down)
        if k:
            if k >= len(path):
                raise ValueError("unbalanced parentheses in degree tree text")
            del path[-k:]
        v = len(children)
        children[path[-1]].append(v)
        path.append(v)
        children.append([])
    return PlaneTree(tuple(map(tuple, children)))


def tree_word(tree: PlaneTree, ups, down: str) -> str:
    """The tree's Dyck word with node v's up step spelled ups[v-1]: in
    preorder, each node enters after the down steps back to its parent."""
    depth = [0] * tree.node_count
    for v, kids in enumerate(tree.children):
        for c in kids:
            depth[c] = depth[v] + 1
    return (''.join([down * (a - b + 1) + up
                     for a, b, up in zip(depth, depth[1:], ups)])
            + down * depth[-1])


def plane_tree_to_dyck(tree: PlaneTree) -> DyckPath:
    """Inverse of dyck_to_plane_tree."""
    return DyckPath(tree_word(tree, 'u' * tree.size, 'd'))


class DegreeTree(_Value):
    """Valid degree tree: a plane tree with an edge labeling, where
    edge_labels[v-1] labels the edge from node v (preorder index, v >= 1)
    to its parent. Building an invalid one raises ValueError."""

    __slots__ = _fields = ('tree', 'edge_labels')

    def __init__(self, tree: PlaneTree, edge_labels: tuple[int, ...]):
        object.__setattr__(self, 'tree', tree)
        object.__setattr__(self, 'edge_labels', edge_labels)
        if len(edge_labels) != tree.size:
            raise ValueError("need one label per edge")
        if min(edge_labels, default=0) < 0:
            raise ValueError("edge labels must be non-negative")
        bad = find_violation(self)
        if bad is not None:
            raise ValueError(f"invalid degree tree: {bad}")

    @property
    def size(self) -> int:
        return self.tree.size

    def label_of(self, v: int) -> int:
        """Label of the edge from node v to its parent."""
        return self.edge_labels[v - 1]

    def __str__(self) -> str:
        ups = [f"{x}:(" for x in self.edge_labels]
        return "(" + tree_word(self.tree, ups, ")") + ")"


_SPACED_LABEL = re.compile(r"[0-9]\s+[0-9]")
_STEP = re.compile(r"(?:0|[1-9][0-9]*):\(|\)")   # a label prints as read
_LABEL = re.compile(r"[0-9]+")


def parse_degree_tree(text: str) -> DegreeTree:
    """Parse the text form (whitespace is ignored, except inside a label)
    into a valid degree tree; raises ValueError on bad syntax or an
    invalid labeling."""
    if _SPACED_LABEL.search(text):
        raise ValueError("whitespace inside a label in degree tree text")
    s = ''.join(text.split())
    if s[:1] != "(" or s[-1:] != ")" or _STEP.sub("", s[1:-1]):
        raise ValueError("degree tree text must be '(', then 'LABEL:(' "
                         "and ')' steps, then ')', LABEL one of 0, 1, 2, ...")
    # count first, so unbalanced text is rejected before any work per
    # node; the text before each '(' after the first is ')' * k, 'LABEL:'
    if s.count("(") != s.count(")"):
        raise ValueError("unbalanced parentheses in degree tree text")
    return DegreeTree(_plane_tree(s[1:-1].split("(")[:-1], ")"),
                      tuple(map(int, _LABEL.findall(s))))


def node_labels(dt: DegreeTree) -> tuple[int, ...]:
    """Derived node labeling: 0 on leaves, and on an internal node with k
    children, k minus the leftmost edge label plus the children's labels.

    The computation is total, so the validity check can run it.
    """
    return tuple(_label_pass(dt)[0])


def find_violation(dt: DegreeTree) -> str | None:
    """None if dt's labeling is valid, else a message naming the first
    offending edge, taking the upper nodes in preorder and each one's
    edges left to right; the message names the edge by the preorder
    index of its lower node. The DegreeTree constructor calls it;
    nothing else needs to."""
    return _label_pass(dt)[1]


def _label_pass(dt: DegreeTree) -> tuple[list[int], str | None]:
    """node_labels and find_violation in one reverse-preorder pass: each
    node's label, then a check of its edges. A fault found at a node
    replaces those found after it, so the one kept comes first."""
    children = dt.tree.children
    label = (0,) + dt.edge_labels       # label[c]: the edge above node c
    ell = [0] * len(children)
    bad = None
    for v in range(len(children) - 1, -1, -1):
        kids = children[v]
        if kids:
            first = kids[0]
            total = len(kids) - label[first]
            for c in reversed(kids):
                total += ell[c]
                if label[c] and c != first:
                    bad = (f"edge to node {c}: non-leftmost edge has "
                           f"label {str(label[c])[:20]}, expected 0")
            ell[v] = total
            if label[first] > ell[first]:
                bad = (f"edge to node {first}: label "
                       f"{str(label[first])[:20]} exceeds child label "
                       f"{str(ell[first])[:20]}")
    return ell, bad


def degree_tree_to_dot(dt: DegreeTree) -> str:
    """Graphviz rendering: nodes by preorder index, edges labeled."""
    lines = ["graph degree_tree {", "  node [shape=circle];"]
    ell = node_labels(dt)
    for v in range(dt.tree.node_count):
        lines.append(f'  n{v} [label="{v} ({ell[v]})"];')
    par = dt.tree.parents()
    for v in range(1, dt.tree.node_count):
        lines.append(f'  n{par[v]} -- n{v} [label="{dt.label_of(v)}"];')
    lines.append("}")
    return '\n'.join(lines)


class TreeStats(NamedTuple):
    """Counts of leaf/zero/positive nodes and the root label."""

    lnode: int
    znode: int
    pnode: int
    rlabel: int


def tree_stats(dt: DegreeTree) -> TreeStats:
    # the leftmost edge label of each internal node
    firsts = [dt.label_of(kids[0]) for kids in dt.tree.children if kids]
    zero = firsts.count(0)
    return TreeStats(dt.tree.node_count - len(firsts), zero,
                     len(firsts) - zero, node_labels(dt)[0])
