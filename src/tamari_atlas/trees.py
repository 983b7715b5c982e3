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

Text form: ``(1:(0:()))`` is a chain of three nodes with edge labels 1
and 0 from the root down.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dyck import DyckPath


@dataclass(frozen=True)
class PlaneTree:
    """Rooted plane tree; children[i] are node i's children in preorder."""

    children: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        # children lists must realize the preorder numbering
        for kids in self.children:
            for c in kids:
                if not 0 < c < len(self.children):
                    raise ValueError("child index out of range")
        stack = [0]
        order = []
        while stack:
            v = stack.pop()
            order.append(v)
            stack.extend(reversed(self.children[v]))
        if order != list(range(len(self.children))):
            raise ValueError("children lists do not follow preorder")

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

    def preorder(self) -> list[int]:
        return list(range(self.node_count))

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
        sizes = [0] * self.node_count
        for v in reversed(range(self.node_count)):
            sizes[v] = sum(sizes[c] + 1 for c in self.children[v])
        return tuple(sizes)

    def depths(self) -> tuple[int, ...]:
        par = self.parents()
        dep = [0] * self.node_count
        for v in range(1, self.node_count):
            dep[v] = dep[par[v]] + 1
        return tuple(dep)


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
    children: list[list[int]] = [[]]
    stack = [0]
    for ch in path.steps:
        if ch == 'u':
            idx = len(children)
            children.append([])
            children[stack[-1]].append(idx)
            stack.append(idx)
        else:
            stack.pop()
    return PlaneTree(tuple(tuple(k) for k in children))


def plane_tree_to_dyck(tree: PlaneTree) -> DyckPath:
    """Inverse of dyck_to_plane_tree: in preorder, each node enters by an
    up step after the down steps that climb back to its parent."""
    out: list[str] = []
    height = 0
    depth = tree.depths()
    for v in range(1, tree.node_count):
        out.append('d' * (height - depth[v] + 1) + 'u')
        height = depth[v]
    out.append('d' * height)
    return DyckPath(''.join(out))


@dataclass(frozen=True)
class DegreeTree:
    """Valid degree tree: a plane tree with an edge labeling, where
    edge_labels[v-1] labels the edge from node v (preorder index, v >= 1)
    to its parent. Building an invalid one raises ValueError."""

    tree: PlaneTree
    edge_labels: tuple[int, ...]

    def __post_init__(self):
        if len(self.edge_labels) != self.tree.size:
            raise ValueError("need one label per edge")
        if any(x < 0 for x in self.edge_labels):
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
        # in preorder, each node opens after the closers back to its parent
        parts = ["("]
        height = 0
        depth = self.tree.depths()
        for v in range(1, self.tree.node_count):
            parts.append(")" * (height - depth[v] + 1)
                         + f"{self.label_of(v)}:(")
            height = depth[v]
        parts.append(")" * (height + 1))
        return "".join(parts)


def parse_degree_tree(text: str) -> DegreeTree:
    """Parse the ``(label:subtree ...)`` text form into a valid degree
    tree; raises ValueError on bad syntax or an invalid labeling."""
    s = ''.join(text.split())
    pos = 0
    children: list[list[int]] = []
    labels: list[int] = []           # labels[v-1]: edge above node v

    def fail(msg: str):
        raise ValueError(f"degree tree parse error at {pos}: {msg}")

    def open_node() -> int:
        nonlocal pos
        if pos >= len(s) or s[pos] != '(':
            fail("expected '('")
        pos += 1
        children.append([])
        return len(children) - 1

    path = [open_node()]             # nodes whose ')' is still to come
    while path:
        if pos >= len(s):
            fail("unbalanced parentheses")
        if s[pos] == ')':
            pos += 1
            path.pop()
            continue
        start = pos
        while pos < len(s) and s[pos].isdigit():
            pos += 1
        if pos == start or pos >= len(s) or s[pos] != ':':
            fail("expected 'label:'")
        labels.append(int(s[start:pos]))
        pos += 1
        child = open_node()
        children[path[-1]].append(child)
        path.append(child)
    if pos != len(s):
        fail("trailing input")
    tree = PlaneTree(tuple(tuple(k) for k in children))
    return DegreeTree(tree, tuple(labels))


def node_labels(dt: DegreeTree) -> tuple[int, ...]:
    """Derived node labeling: 0 on leaves, and on an internal node with k
    children, k minus the leftmost edge label plus the children's labels.

    The computation is total, so the validity check can run it.
    """
    tree = dt.tree
    ell = [0] * tree.node_count
    for v in reversed(range(tree.node_count)):
        kids = tree.children[v]
        if kids:
            ell[v] = (len(kids) - dt.label_of(kids[0])
                      + sum(ell[c] for c in kids))
    return tuple(ell)


def find_violation(dt: DegreeTree) -> str | None:
    """None if dt's labeling is valid, else a message naming the first
    offending edge (by the preorder index of its lower node). The
    DegreeTree constructor calls it; nothing else needs to."""
    tree = dt.tree
    ell = node_labels(dt)
    for v in range(tree.node_count):
        kids = tree.children[v]
        for pos, c in enumerate(kids):
            lab = dt.label_of(c)
            if pos > 0 and lab != 0:
                return (f"edge to node {c}: non-leftmost edge has "
                        f"label {lab}, expected 0")
            if pos == 0 and lab > ell[c]:
                return (f"edge to node {c}: label {lab} exceeds child "
                        f"label {ell[c]}")
    return None


def edge_labels_from_node_labels(tree: PlaneTree,
                                 ell: tuple[int, ...]) -> DegreeTree:
    """Recover the canonical edge labeling from a node labeling."""
    if len(ell) != tree.node_count:
        raise ValueError("need one node label per node")
    labels = [0] * tree.size
    for v in range(tree.node_count):
        kids = tree.children[v]
        if not kids:
            if ell[v] != 0:
                raise ValueError(f"leaf {v} has nonzero label {ell[v]}")
            continue
        a = len(kids) + sum(ell[c] for c in kids) - ell[v]
        if not 0 <= a <= ell[kids[0]]:
            raise ValueError(f"node {v}: no admissible leftmost label "
                             f"(would need {a})")
        labels[kids[0] - 1] = a
    return DegreeTree(tree, tuple(labels))


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


@dataclass(frozen=True)
class TreeStats:
    """Counts of leaf/zero/positive nodes and the root label."""

    lnode: int
    znode: int
    pnode: int
    rlabel: int


def tree_stats(dt: DegreeTree) -> TreeStats:
    tree = dt.tree
    lnode = znode = pnode = 0
    for v in range(tree.node_count):
        kids = tree.children[v]
        if not kids:
            lnode += 1
        elif dt.label_of(kids[0]) == 0:
            znode += 1
        else:
            pnode += 1
    return TreeStats(lnode, znode, pnode, node_labels(dt)[0])
