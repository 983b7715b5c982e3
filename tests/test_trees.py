import pytest

from tamari_atlas.enumeration import enum_degree_trees
from tamari_atlas.trees import (DegreeTree, PlaneTree,
                                edge_labels_from_node_labels, node_labels,
                                parse_degree_tree, tree_from_nested,
                                tree_stats)


def test_plane_tree_validation():
    PlaneTree(((),))
    PlaneTree(((1, 2), (), ()))
    with pytest.raises(ValueError):
        PlaneTree(((2, 1), (), ()))  # children not in preorder
    with pytest.raises(ValueError):
        PlaneTree(((1,), (5,)))


def test_traversals():
    single = PlaneTree(((),))
    assert single.preorder() == [0]
    assert single.postorder() == [0]
    chain = tree_from_nested([[[]]])
    assert chain.preorder() == list(reversed(chain.postorder()))
    cherry = tree_from_nested([[], []])
    assert cherry.preorder() == [0, 1, 2]
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


def test_parser_and_text_form():
    for text in ["()", "(0:())", "(1:(0:()))", "(0:()0:())"]:
        assert str(parse_degree_tree(text)) == text
    assert str(parse_degree_tree(" ( 1 : ( 0 : ( ) ) ) ")) == "(1:(0:()))"
    for bad in ["", "(", "()x", "(:())", "(1())"]:
        with pytest.raises(ValueError):
            parse_degree_tree(bad)


def test_degree_tree_field_validation():
    tree = PlaneTree(((1,), ()))
    with pytest.raises(ValueError):
        DegreeTree(tree, ())
    with pytest.raises(ValueError):
        DegreeTree(tree, (-1,))
    with pytest.raises(ValueError, match="exceeds"):
        DegreeTree(tree, (1,))


def test_edge_labels_from_node_labels_examples():
    single = PlaneTree(((),))
    assert str(edge_labels_from_node_labels(single, (0,))) == "()"
    chain2 = tree_from_nested([[]])
    assert str(edge_labels_from_node_labels(chain2, (1, 0))) == "(0:())"
    chain3 = tree_from_nested([[[]]])
    assert str(edge_labels_from_node_labels(chain3, (1, 1, 0))) == "(1:(0:()))"
    with pytest.raises(ValueError):
        edge_labels_from_node_labels(single, (1,))


def test_node_edge_label_roundtrip_up_to_size_6():
    for n in range(0, 7):
        for dt in enum_degree_trees(n):
            assert edge_labels_from_node_labels(dt.tree, node_labels(dt)) == dt


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
            ell = node_labels(dt)
            sizes = dt.tree.subtree_sizes()
            acc = [0] * dt.tree.node_count
            for v in reversed(range(dt.tree.node_count)):
                acc[v] = sum(acc[c] + dt.label_of(c)
                             for c in dt.tree.children[v])
            for v in range(dt.tree.node_count):
                assert ell[v] == sizes[v] - acc[v]
                assert ell[v] >= 0
                assert (ell[v] == 0) == (sizes[v] == 0)
