import itertools
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import tamari_atlas
from tamari_atlas.bijections import tree_to_map
from tamari_atlas.enumeration import enum_degree_trees, enum_dyck
from tamari_atlas.maps import MapStats
from tamari_atlas.trees import (DegreeTree, PlaneTree, TreeStats,
                                dyck_to_plane_tree, node_labels,
                                parse_degree_tree, tree_from_nested,
                                tree_stats)
from tamari_atlas.verify import check_node_label_lemma


def scan_parse_degree_tree(text: str) -> DegreeTree:
    """Reference parser: one character at a time with an explicit stack
    of open nodes. It is the scan the regular-expression parser
    replaced, kept to test that parser against."""
    words = text.split()
    if any(a[-1] in '0123456789' and b[0] in '0123456789'
           for a, b in zip(words, words[1:])):
        raise ValueError("whitespace between two digits")
    s = ''.join(words)
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
        while pos < len(s) and s[pos] in '0123456789':
            pos += 1
        if pos == start or pos >= len(s) or s[pos] != ':':
            fail("expected 'label:'")
        if s[start] == '0' and pos - start > 1:
            fail("label with a leading zero")
        labels.append(int(s[start:pos]))
        pos += 1
        child = open_node()
        children[path[-1]].append(child)
        path.append(child)
    if pos != len(s):
        fail("trailing input")
    tree = PlaneTree(tuple(tuple(k) for k in children))
    return DegreeTree(tree, tuple(labels))


def test_plane_tree_validation():
    PlaneTree(((),))
    PlaneTree(((1, 2), (), ()))
    with pytest.raises(ValueError):
        PlaneTree(((2, 1), (), ()))  # children not in preorder
    with pytest.raises(ValueError):
        PlaneTree(((1,), (5,)))
    with pytest.raises(ValueError):
        PlaneTree(())  # no root


def test_plane_tree_check_ends_on_cyclic_children():
    # a child list that points back into the tree once made the check
    # loop forever while its memory grew, so run it where a timeout and
    # a 1 GiB address-space limit can stop it
    script = ("import resource\n"
              "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
              "from tamari_atlas.trees import PlaneTree\n"
              "for children in [((1,), (1,)), ((1,), (2,), (1,))]:\n"
              "    try:\n"
              "        PlaneTree(children)\n"
              "    except ValueError:\n"
              "        print('rejected')\n")
    src = str(Path(tamari_atlas.__file__).parent.parent)
    done = subprocess.run([sys.executable, '-c', script], timeout=10,
                          capture_output=True, text=True,
                          env={**os.environ, 'PYTHONPATH': src})
    assert done.stdout == "rejected\nrejected\n", done.stderr


def test_plane_tree_check_accepts_exactly_the_dyck_trees():
    # every children tuple on at most 4 nodes whose lists are sequences
    # of distinct indices (16**4 of them on 4 nodes)
    for n in range(5):
        lists = [kids for k in range(n)
                 for kids in itertools.permutations(range(1, n), k)]
        accepted = set()
        for children in itertools.product(lists, repeat=n):
            try:
                PlaneTree(children)
            except ValueError:
                continue
            accepted.add(children)
        expected = ({dyck_to_plane_tree(p).children
                     for p in enum_dyck(n - 1)} if n else set())
        assert accepted == expected


def test_traversals():
    # nodes are numbered in preorder
    single = PlaneTree(((),))
    assert range(single.node_count) == range(1)
    assert single.postorder() == [0]
    chain = tree_from_nested([[[]]])
    assert list(range(chain.node_count)) == list(reversed(chain.postorder()))
    cherry = tree_from_nested([[], []])
    assert cherry.children[0] == tuple(range(1, cherry.node_count))
    assert cherry.postorder() == [1, 2, 0]
    assert cherry.subtree_sizes() == (2, 0, 0)


def test_tree_from_nested_deep_chain():
    nested: list = []
    for _ in range(5000):
        nested = [nested]
    chain = tree_from_nested(nested)
    assert chain.size == 5000
    assert chain.children[:2] == ((1,), (2,)) and chain.children[-1] == ()


def test_node_labels_examples():
    assert node_labels(parse_degree_tree("()")) == (0,)
    assert node_labels(parse_degree_tree("(0:())")) == (1, 0)
    assert node_labels(parse_degree_tree("(1:(0:()))")) == (1, 1, 0)


def test_validate_examples():
    # a DegreeTree checks its labeling when built, so parsing validates
    parse_degree_tree("(0:())")
    parse_degree_tree("(1:(0:()))")
    with pytest.raises(ValueError, match="exceeds"):
        parse_degree_tree("(1:())")
    with pytest.raises(ValueError, match="non-leftmost"):
        parse_degree_tree("(0:()1:())")
    # the edges to nodes 2 and 3 are both bad; the check takes the upper
    # nodes in preorder, so it names the root's second edge first
    tree = PlaneTree(((1, 3), (2,), (), ()))
    with pytest.raises(ValueError, match="edge to node 3: non-leftmost"):
        DegreeTree(tree, (0, 1, 1))


def test_parser_and_text_form():
    for text in ["()", "(0:())", "(1:(0:()))", "(0:()0:())"]:
        assert str(parse_degree_tree(text)) == text
    assert str(parse_degree_tree(" ( 1 : ( 0 : ( ) ) ) ")) == "(1:(0:()))"
    for bad in BAD_TEXTS:
        with pytest.raises(ValueError):
            parse_degree_tree(bad)


BAD_TEXTS = ["", "(", "()x", "(:())", "(1())", "(0:())(0:())", "(0:()))",
             "())(", "(00:())", "(01:(0:()))", "(+1:(0:()))",
             "(\u0662:(\u0660:()\u0660:()))", "(1 0:(0:()))",
             # as many ')' as '(', but the root closes early
             "()0:()", "())0:(0:()"]


def test_parser_memory_is_a_few_copies_of_the_text():
    # the grammar check keeps no per-character backtracking state, so
    # rejecting a long grammatical but unbalanced text costs a few
    # copies of it, not tens of bytes per character
    text = "(" + "0:(" * 10**5 + ")"
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="unbalanced"):
            parse_degree_tree(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * len(text)


def parse_or_error(parse, text):
    try:
        return parse(text)
    except ValueError:
        return ValueError


def test_parser_matches_scan():
    texts = [str(dt) for n in range(8) for dt in enum_degree_trees(n)]
    for text in texts:
        assert str(parse_degree_tree(text)) == text
    rng = random.Random(10)
    mutants = []
    for _ in range(20000):
        text = rng.choice(texts)
        i = rng.randrange(len(text))
        ch = rng.choice("()0123456789: ")
        mutants.append(rng.choice([text[:i] + ch + text[i:],        # insert
                                   text[:i] + text[i + 1:],         # delete
                                   text[:i] + ch + text[i + 1:]]))  # replace
    outcomes = set()
    for text in texts + BAD_TEXTS + mutants:
        got = parse_or_error(parse_degree_tree, text)
        assert got == parse_or_error(scan_parse_degree_tree, text), text
        outcomes.add(got is ValueError)
    assert outcomes == {False, True}


def two_pass_violation(tree: PlaneTree, labels) -> str | None:
    """Reference check: node labels first, then the edges of the upper
    nodes in preorder, each one's left to right. It is the two-pass
    find_violation that the one-pass check replaced."""
    ell = [0] * tree.node_count
    for v in reversed(range(tree.node_count)):
        kids = tree.children[v]
        if kids:
            ell[v] = (len(kids) - labels[kids[0] - 1]
                      + sum(ell[c] for c in kids))
    for v in range(tree.node_count):
        for pos, c in enumerate(tree.children[v]):
            lab = labels[c - 1]
            if pos > 0 and lab != 0:
                return (f"edge to node {c}: non-leftmost edge has "
                        f"label {str(lab)[:20]}, expected 0")
            if pos == 0 and lab > ell[c]:
                return (f"edge to node {c}: label {str(lab)[:20]} exceeds "
                        f"child label {str(ell[c])[:20]}")
    return None


def label_mutations(tree: PlaneTree, labels: list[int]) -> list[tuple]:
    """Per edge, the labels that break it: a non-leftmost edge made 1 or
    huge, a leftmost one raised one or far past the node label below."""
    ell = node_labels(DegreeTree(tree, tuple(labels)))
    out = []
    for v in range(tree.node_count):
        kids = tree.children[v]
        out += [(c, x) for c in kids[1:] for x in (1, 10 ** 25)]
        if kids:
            out += [(kids[0], ell[kids[0]] + 1), (kids[0], 10 ** 25)]
    return out


def test_degree_tree_messages_match_two_pass_check():
    # every plane tree up to size 6, labelled all 0 and with every
    # leftmost label at its bound, with one or two labels broken
    kinds = set()
    for n in range(7):
        for path in enum_dyck(n):
            tree = dyck_to_plane_tree(path)
            zero = [0] * n
            top = list(zero)    # set bottom-up, each at its bound
            for v in reversed(range(tree.node_count)):
                if tree.children[v]:
                    c = tree.children[v][0]
                    top[c - 1] = node_labels(DegreeTree(tree, tuple(top)))[c]
            for base in (zero, top):
                muts = label_mutations(tree, base)
                for pair in [(a,) for a in muts] + [
                        (a, b) for a, b in itertools.combinations(muts, 2)
                        if a[0] != b[0]]:
                    labels = list(base)
                    for c, x in pair:
                        labels[c - 1] = x
                    want = two_pass_violation(tree, labels)
                    with pytest.raises(ValueError) as exc:
                        DegreeTree(tree, tuple(labels))
                    assert str(exc.value) == f"invalid degree tree: {want}"
                    kinds.add('non-leftmost' in want)
    assert kinds == {True, False}


def test_degree_tree_field_validation():
    tree = PlaneTree(((1,), ()))
    with pytest.raises(ValueError):
        DegreeTree(tree, ())
    with pytest.raises(ValueError):
        DegreeTree(tree, (-1,))
    with pytest.raises(ValueError, match="exceeds"):
        DegreeTree(tree, (1,))


def test_tree_stats_examples():
    def stats(text):
        s = tree_stats(parse_degree_tree(text))
        return (s.lnode, s.znode, s.pnode, s.rlabel)

    assert stats("()") == (1, 0, 0, 0)
    assert stats("(0:(0:()))") == (1, 2, 0, 2)
    assert stats("(1:(0:()))") == (1, 1, 1, 1)


def test_stats_sum_and_label_lemma_up_to_size_7():
    for n in range(0, 8):
        for dt in enum_degree_trees(n):
            s = tree_stats(dt)
            assert s.lnode + s.znode + s.pnode == n + 1
            # the colour rule tree_to_map builds by: leaves are its white
            # vertices, zero nodes its black ones
            if n > 0:
                assert tree_to_map(dt).stats() == MapStats(
                    black=s.znode, white=s.lnode, face=s.pnode + 1,
                    outdeg=s.rlabel)
    # the one exception: the one-node tree is a leaf, but the edgeless map
    # is a single black vertex
    assert tree_stats(parse_degree_tree("()")) == TreeStats(1, 0, 0, 0)
    assert tree_to_map(parse_degree_tree("()")).stats() == MapStats(
        black=1, white=0, face=1, outdeg=0)
    assert check_node_label_lemma(7).ok
