import random
from collections import Counter

import pytest

from tamari_atlas.bijections import (certificates, interval_to_map,
                                     interval_to_tree, map_to_interval,
                                     map_to_tree, tree_to_interval,
                                     tree_to_map)
from tamari_atlas.dyck import DyckPath, NewInterval, interval_stats, \
    rising_contacts
from tamari_atlas.enumeration import (enum_degree_trees, enum_maps_oracle,
                                      enum_new_intervals)
from tamari_atlas.maps import PlanarMap, from_hypermap, parse_hypermap
from tamari_atlas.trees import (DegreeTree, PlaneTree, find_violation,
                                 parse_degree_tree)
from tamari_atlas.verify import (check_one_face_specialization,
                                 check_roundtrip_map_tree,
                                 check_roundtrip_tree_interval,
                                 check_theorem_stats, check_trace_reversal,
                                 check_trace_shape)


def build(text):
    return from_hypermap(parse_hypermap(text))


SINGLE = "n=1 sigma=(1) alpha=(1) root=1"
DOUBLE = "n=2 sigma=(1 2) alpha=(1 2) root=1"
PATH = "n=2 sigma=(1)(2) alpha=(1 2) root=1"


def test_map_to_tree_examples():
    assert str(map_to_tree(build("n=0"))) == "()"
    assert str(map_to_tree(build(SINGLE))) == "(0:())"
    assert str(map_to_tree(build(DOUBLE))) == "(1:(0:()))"
    assert str(map_to_tree(build(PATH))) == "(0:(0:()))"


def test_tree_to_map_examples():
    assert tree_to_map(parse_degree_tree("()")).canonical_code() == "n=0"
    assert tree_to_map(parse_degree_tree("(0:())")).canonical_code() == SINGLE
    assert tree_to_map(parse_degree_tree("(0:(0:()))")).canonical_code() == \
        PATH
    assert tree_to_map(parse_degree_tree("(1:(0:()))")).canonical_code() == \
        DOUBLE


def test_invalid_inputs_rejected():
    with pytest.raises(ValueError):
        tree_to_map(parse_degree_tree("(1:())"))


def test_certificates_examples():
    c = certificates(parse_degree_tree("()"))
    assert c.certificate == (0,) and c.multiplicity == (1,)
    c = certificates(parse_degree_tree("(0:())"))
    assert c.certificate == (0, 1) and c.multiplicity == (1, 1)
    c = certificates(parse_degree_tree("(1:(0:()))"))
    assert c.certificate == (1, 1, 2)
    assert c.multiplicity == (0, 2, 1)


def test_tree_to_interval_examples():
    assert str(tree_to_interval(parse_degree_tree("()"))) == "ud;ud"
    assert str(tree_to_interval(parse_degree_tree("(0:())"))) == "udud;uudd"
    assert str(tree_to_interval(parse_degree_tree("(1:(0:()))"))) == \
        "uuddud;uuuddd"


def test_interval_to_tree_examples():
    assert str(interval_to_tree(NewInterval.parse("ud;ud"))) == "()"
    assert str(interval_to_tree(NewInterval.parse("udud;uudd"))) == "(0:())"
    assert str(interval_to_tree(NewInterval.parse("uuddud;uuuddd"))) == \
        "(1:(0:()))"


def test_composites_worked_examples():
    assert str(map_to_interval(build("n=0"))) == "ud;ud"
    assert str(map_to_interval(build(SINGLE))) == "udud;uudd"
    assert str(map_to_interval(build(DOUBLE))) == "uuddud;uuuddd"
    assert interval_to_map(
        NewInterval.parse("uuddud;uuuddd")).canonical_code() == DOUBLE
    # statistics of the double-edge triple
    ms = build(DOUBLE).stats()
    assert (ms.white, ms.black, ms.face, ms.outdeg) == (1, 1, 2, 1)
    s = interval_stats(NewInterval.parse("uuddud;uuuddd"))
    assert (s.c00, s.c01, s.c11, s.rcont) == (1, 1, 1, 2)


def test_roundtrips_map_tree_up_to_5():
    assert check_roundtrip_map_tree(5).ok


def test_roundtrips_tree_interval():
    assert check_roundtrip_tree_interval(5).ok


def test_theorem_statistics_up_to_5():
    assert check_theorem_stats(5).ok


def test_size_zero_statistics_exception():
    # the identities fail at the edgeless map exactly as documented:
    # white/black break, face/outdeg still agree
    m = build("n=0")
    ms = m.stats()
    s = interval_stats(map_to_interval(m))
    assert (ms.white, ms.black, ms.face, ms.outdeg) == (0, 1, 1, 0)
    assert (s.c00, s.c01, s.c11, s.rcont) == (1, 0, 0, 1)
    assert ms.white != s.c00
    assert ms.black != s.c01
    assert ms.face == 1 + s.c11
    assert ms.outdeg == s.rcont - 1


def test_trace_does_not_change_result():
    for n in range(0, 4):
        for m in enum_maps_oracle(n):
            kinds: list[str] = []
            assert map_to_tree(m, trace=lambda k, *_: kinds.append(k)) == \
                map_to_tree(m)
            assert (len(kinds) > 0) == (n > 0)


def test_trace_makes_no_per_step_copies(monkeypatch):
    copies = []
    plain_copy = PlanarMap.copy

    def counted_copy(self):
        copies.append(self)
        return plain_copy(self)

    monkeypatch.setattr(PlanarMap, 'copy', counted_copy)
    # the edgeless map returns before its working copy, so start at 1
    for n in range(1, 5):
        for m in enum_maps_oracle(n):
            seen = []
            copies.clear()
            map_to_tree(m, trace=lambda kind, w, *_: seen.append(w))
            assert copies == [m]
            assert seen and all(w is seen[0] for w in seen)
    for n in range(0, 5):
        for dt in enum_degree_trees(n):
            copies.clear()
            children = []
            tree_to_map(dt, trace=lambda *step: children.append(step[4]))
            assert copies == []
            assert all(kids is None for kids in children)


def test_trace_shape_after_every_prepare():
    assert check_trace_shape(4).ok


def test_trace_kinds_reverse():
    assert check_trace_reversal(4).ok


def test_one_face_specialization_up_to_6():
    assert check_one_face_specialization(6).ok


def test_interval_to_tree_labels_match_factors_up_to_8():
    # reference: scan the lower path for the down step matching up step
    # node + 1, then count the rising contacts of the factor between them
    for n in range(1, 9):
        for interval in enum_new_intervals(n):
            dt = interval_to_tree(interval)
            lower = interval.lower.steps
            ups = [k for k, ch in enumerate(lower) if ch == 'u']
            for node, kids in enumerate(dt.tree.children):
                if not kids:
                    continue
                start = ups[node] + 1
                end, height = start, 0
                while height >= 0:
                    height += 1 if lower[end] == 'u' else -1
                    end += 1
                factor = DyckPath(lower[start:end - 1])
                assert dt.label_of(kids[0]) == rising_contacts(factor)


def random_degree_tree(rng: random.Random, n: int) -> DegreeTree:
    """A random degree tree with n edges: the plane tree of a uniform
    Dyck word (cycle lemma: rotate a shuffled word of n up and n + 1 down
    steps to start after its first lowest point, then drop the last
    step), and on each leftmost edge a uniform admissible label."""
    steps = [1] * n + [-1] * (n + 1)
    rng.shuffle(steps)
    height, low, cut = 0, 0, 0
    for i, step in enumerate(steps):
        height += step
        if height < low:
            low, cut = height, i + 1
    steps = (steps[cut:] + steps[:cut])[:-1]
    children: list[list[int]] = [[]]
    path = [0]
    for step in steps:
        if step > 0:
            children.append([])
            children[path[-1]].append(len(children) - 1)
            path.append(len(children) - 1)
        else:
            path.pop()
    # bottom-up: a node's derived label needs its children's labels only
    ell = [0] * (n + 1)
    labels = [0] * n
    for v in reversed(range(n + 1)):
        kids = children[v]
        if kids:
            a = rng.randint(0, ell[kids[0]])
            labels[kids[0] - 1] = a
            ell[v] = len(kids) - a + sum(ell[c] for c in kids)
    return DegreeTree(PlaneTree(tuple(map(tuple, children))), tuple(labels))


def test_random_trees_roundtrip_all_directions_at_5000():
    rng = random.Random(2020)
    for _ in range(2):
        dt = random_degree_tree(rng, 5000)
        assert find_violation(dt) is None
        m = tree_to_map(dt)
        assert map_to_tree(m) == dt
        assert map_to_tree(from_hypermap(parse_hypermap(
            m.canonical_code()))) == dt
        interval = tree_to_interval(dt)
        assert interval.size == 5001
        assert interval_to_tree(interval) == dt


def _edge_kinds(dt: DegreeTree) -> tuple[int, int, int]:
    """Leaf edges, zero-labelled internal edges and positive edges."""
    leaf = zero = positive = 0
    for v in range(1, dt.tree.node_count):
        if dt.label_of(v) > 0:
            positive += 1
        elif dt.tree.children[v]:
            zero += 1
        else:
            leaf += 1
    return leaf, zero, positive


def _assert_trace_counts(dt: DegreeTree):
    back: Counter[str] = Counter()
    fwd: Counter[str] = Counter()
    m = tree_to_map(dt, trace=lambda kind, *_: back.update((kind,)))
    assert m.canonical_code() == tree_to_map(dt).canonical_code()
    out = map_to_tree(m, trace=lambda kind, *_: fwd.update((kind,)))
    assert out == map_to_tree(m) == dt
    assert (fwd['A1'], fwd['A2'], fwd['A3']) == _edge_kinds(out)
    assert (back["A1'"], back["A2'"], back["A3'"]) == _edge_kinds(dt)
    assert back['embed'] == (dt.size > 0)


def test_trace_counts_cases_up_to_6():
    for n in range(0, 7):
        for dt in enum_degree_trees(n):
            _assert_trace_counts(dt)


def test_trace_counts_cases_at_3000():
    rng = random.Random(6)
    for _ in range(3):
        _assert_trace_counts(random_degree_tree(rng, 3000))
