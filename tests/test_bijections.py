import hashlib
import random
import tracemalloc
from collections import Counter

import pytest
import workloads
from test_cli import chain, run

from tamari_atlas.bijections import (CertificateAssignment, certificates,
                                     interval_to_map, interval_to_tree,
                                     map_to_interval, map_to_tree,
                                     tree_to_interval, tree_to_map)
from tamari_atlas.dyck import DyckPath, NewInterval, interval_stats, \
    rising_contacts
from tamari_atlas.enumeration import (enum_degree_trees, enum_maps_oracle,
                                      enum_new_intervals)
from tamari_atlas.cli import tagged_map_code, tagged_map_dot
from tamari_atlas.maps import (BLACK, WHITE, PlanarMap, from_dart_lists,
                              parse_hypermap)
from tamari_atlas.trees import DegreeTree, find_violation, parse_degree_tree
from tamari_atlas.verify import (check_one_face_specialization,
                                 check_roundtrip_map_tree,
                                 check_roundtrip_tree_interval,
                                 check_theorem_stats, check_trace_reversal,
                                 check_trace_shape)


def build(text):
    return parse_hypermap(text)


SINGLE = "n=1 sigma=(1) alpha=(1) root=1"
DOUBLE = "n=2 sigma=(1 2) alpha=(1 2) root=1"
PATH = "n=2 sigma=(1)(2) alpha=(1 2) root=1"


def test_map_to_tree_examples():
    assert str(map_to_tree(build("n=0"))) == "()"
    assert str(map_to_tree(build(SINGLE))) == "(0:())"
    assert str(map_to_tree(build(DOUBLE))) == "(1:(0:()))"
    assert str(map_to_tree(build(PATH))) == "(0:(0:()))"


def test_tree_to_map_examples():
    assert str(tree_to_map(parse_degree_tree("()"))) == "n=0"
    assert str(tree_to_map(parse_degree_tree("(0:())"))) == SINGLE
    assert str(tree_to_map(parse_degree_tree("(0:(0:()))"))) == PATH
    assert str(tree_to_map(parse_degree_tree("(1:(0:()))"))) == DOUBLE


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


def scan_certificates(dt: DegreeTree) -> CertificateAssignment:
    """Reference assignment: for each node in reverse preorder, scan
    forward over the nodes after it, stepping over the red ones, to find
    the (r+1)-st black node; quadratic on long chains of positive
    labels."""
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


def test_certificates_match_scan():
    for n in range(0, 8):
        for dt in enum_degree_trees(n):
            assert certificates(dt) == scan_certificates(dt), dt
    rng = random.Random(1)
    for _ in range(3):
        dt = random_degree_tree(rng, 10 ** 4)
        assert certificates(dt) == scan_certificates(dt)
    dt = parse_degree_tree(chain(2000, True))
    assert certificates(dt) == scan_certificates(dt)


# scan_certificates steps over every red node and takes minutes on the
# maximal chain at this depth; map->tree on that chain is still
# quadratic, so the map direction is left out
@pytest.mark.parametrize('maximal', [True, False])
def test_deep_chain_interval_roundtrips(maximal):
    dt = parse_degree_tree(chain(10 ** 5, maximal))
    assert interval_to_tree(tree_to_interval(dt)) == dt


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
    assert str(interval_to_map(NewInterval.parse("uuddud;uuuddd"))) == DOUBLE
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
    # every PlanarMap, whether built or copied (copy.deepcopy makes its
    # copy through __new__), is counted: each direction makes its one
    # working map, and the observer sees only that one
    made = []

    def counted_new(cls):
        made.append(object.__new__(cls))
        return made[-1]

    monkeypatch.setattr(PlanarMap, '__new__', counted_new)
    # the edgeless map takes no step, so start at 1
    for n in range(1, 5):
        for code in enum_maps_oracle(n):
            seen = []
            made.clear()
            map_to_tree(code, trace=lambda kind, w, cur, root, kids:
                        seen.append((w, kids)))
            assert len(made) == 1
            # one working map and one children view, the same at every step
            assert seen and all(w is seen[0][0] and kids is seen[0][1]
                                for w, kids in seen)
            assert seen[0][0] is made[0]
    for n in range(0, 5):
        for dt in enum_degree_trees(n):
            steps = []
            made.clear()
            tree_to_map(dt, trace=lambda kind, w, *rest: steps.append(
                (w, rest[-1])))
            assert len(made) == min(n, 1)
            assert all(w is made[0] and kids is None for w, kids in steps)


def reference_embedding(dt: DegreeTree) -> PlanarMap:
    """The tree as tree_to_map embeds it, from rotation lists built by
    insertion: vertex id = node, child c's edge has darts 2c-1 at its
    parent and 2c at c, and each child's dart goes right after its
    parent's dart toward the grandparent (at the root, after the first
    child's dart); the root corner is the dart of the root's last child."""
    tree = dt.tree
    rotation: list[list[int]] = [[] for _ in range(tree.node_count)]
    label = [0]
    root = 0
    for child, node in enumerate(tree.parents()[1:], 1):
        # a node comes before its children, so its rotation already
        # starts at its dart toward its parent (the root's: its first
        # child's dart, which the empty list takes)
        rotation[node].insert(1, 2 * child - 1)
        rotation[child].append(2 * child)
        label += [dt.label_of(child)] * 2
        if node == 0:
            root = 2 * child - 1
    nxt = [0] * len(label)
    vertex = [0] * len(label)
    for v, darts in enumerate(rotation):
        for d, after in zip(darts, darts[1:] + darts[:1]):
            nxt[d], vertex[d] = after, v
    return from_dart_lists(nxt, vertex,
                           [BLACK if kids else WHITE
                            for kids in tree.children], root, 'T', label)


def test_embedding_matches_reference_up_to_6():
    for n in range(1, 7):
        for dt in enum_degree_trees(n):
            frames = []
            tree_to_map(dt, trace=lambda kind, w, *_: frames.append(
                (kind, tagged_map_code(w), tagged_map_dot(w),
                 [w.vertex_of(d) for d in w.darts()],
                 [w.prev_cw(d) for d in w.darts()])))
            ref = reference_embedding(dt)
            assert frames[0] == (
                'embed', tagged_map_code(ref), tagged_map_dot(ref),
                [ref.vertex_of(d) for d in ref.darts()],
                [ref.prev_cw(d) for d in ref.darts()])


def test_tree_to_map_adds_edges_only_in_its_steps(monkeypatch):
    added = []
    add_edge = PlanarMap.add_edge

    def counted(self, *corners):
        added.append(corners)
        return add_edge(self, *corners)

    monkeypatch.setattr(PlanarMap, 'add_edge', counted)
    for n in range(0, 6):
        for dt in enum_degree_trees(n):
            added.clear()
            adds = []   # edges added by the end of each step
            tree_to_map(dt, trace=lambda kind, *_: adds.append(
                (kind, len(added))))
            assert adds[:1] == ([('embed', 0)] if n else [])
            kinds = Counter(kind for kind, _ in adds)
            assert len(added) == kinds["A2'"] + kinds["A3'"]


def test_trace_children_is_a_read_only_view_of_the_result():
    # at the last step, the view read left to right from the root is the
    # result tree's shape; the view rejects writes
    rng = random.Random(3)
    codes = [code for n in range(1, 5) for code in enum_maps_oracle(n)]
    codes += [tree_to_map(random_degree_tree(rng, 200)) for _ in range(5)]
    for code in codes:
        last = []

        def on_step(kind, w, cur, root, children):
            last[:] = [root, children]

        dt = map_to_tree(code, trace=on_step)
        root, children = last
        with pytest.raises(TypeError):
            children[root] = ()
        preorder, todo = [], [root]
        while todo:
            preorder.append(todo.pop())
            todo.extend(reversed(children[preorder[-1]]))
        index = {v: i for i, v in enumerate(preorder)}
        assert tuple(tuple(index[c] for c in children[v])
                     for v in preorder) == dt.tree.children


def test_map_tree_memory_is_a_few_hundred_bytes_per_edge():
    # the working map and flat per-vertex lists, no container per vertex:
    # each direction's tracemalloc peak stays under 800 bytes per edge
    n = 2 * 10**4
    dt = random_degree_tree(random.Random(1), n)
    code = tree_to_map(dt)
    for direction, arg in ((map_to_tree, code), (tree_to_map, dt)):
        tracemalloc.start()
        try:
            direction(arg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 800 * n, (direction.__name__, peak / n)


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
    """A random degree tree with n edges, from the benchmark's generator,
    which builds its text without the package."""
    return parse_degree_tree(workloads.random_degree_tree(rng, n))


def test_random_trees_roundtrip_all_directions_at_5000():
    rng = random.Random(2020)
    for _ in range(2):
        dt = random_degree_tree(rng, 5000)
        assert find_violation(dt) is None
        m = tree_to_map(dt)
        assert map_to_tree(m) == dt
        assert map_to_tree(parse_hypermap(str(m))) == dt
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
    assert m == tree_to_map(dt)
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


def test_map_path_outputs_are_pinned():
    # the map path's outputs byte for byte: convert in both directions
    # over every size-6 tree and oracle map and over 20 seeded trees with
    # 1000 edges, and trace from either side over every size-4 object
    rng = random.Random(23)
    big = [str(random_degree_tree(rng, 1000)) for _ in range(20)]
    _, big_maps = run(['convert', '--from', 'tree', '--to', 'map'],
                      ''.join(line + '\n' for line in big))
    trees = [enum_degree_trees(6), big, enum_degree_trees(4)]
    maps = [enum_maps_oracle(6), big_maps.splitlines(), enum_maps_oracle(4)]
    for argv, objs, digest in [
        ('convert --from tree --to map', trees[0],
         '274433d16e997e1746f41ce5690811d9ce9d4933f96911c89ad6093ff218dddd'),
        ('convert --from map --to tree', maps[0],
         '412194a7b87593bcb1d1bc027c9ca09728c6b2035f36ea8111315ce8e451e707'),
        ('convert --from tree --to map', trees[1],
         'd4cf40986754c191d79a820f32b7774ac22de04d718d243b462de0647dcdcee0'),
        ('convert --from map --to tree', maps[1],
         'fe236b7ca962df3181a961941aa1b74881da2cba8de0ddd70310dced741d9c03'),
        ('trace --from tree', trees[2],
         'bfd079c0a41ff8221b00b698b11ecee8550cc1cdb01900d9c8210b31ab44caad'),
        ('trace --from map', maps[2],
         '1c77ee39a4a07fbad697a250999ba92b4aba94a192d45f636f8b0982377befa9'),
    ]:
        code, out = run(argv.split(), ''.join(f'{o}\n' for o in objs))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv
    # the random trees come back unchanged
    assert run(['convert', '--from', 'map', '--to', 'tree'],
               big_maps)[1].splitlines() == big


def test_trace_frames_are_pinned(tmp_path):
    # render and the --trace-dir frames print vertex ids: trace from
    # either side over every object of sizes 0 to 5, hashing each frame
    # with its file name, and the printed steps
    for src, enum, frame_digest, out_digest in [
        ('map', enum_maps_oracle,
         '9129b980e89a772e465a3f71ebe3616922928c7e2bd845ad41ab192d67913265',
         'dbae5c8d021e8df08908275fd04ad4dcfa6fbae5f2f6eb0f82f9aacaab32d43f'),
        ('tree', enum_degree_trees,
         'db04b3bec962eaff339be49f367515478b9ce70281a7ccf8fcb9b438bb9c1212',
         '9c48d472231f149fcabb4c40d89a93c47b561326d2eb6f430f129d76085a8011'),
    ]:
        frames = tmp_path / src
        code, out = run(['trace', '--from', src, '--trace-dir', str(frames)],
                        ''.join(f'{o}\n' for n in range(6) for o in enum(n)))
        assert code == 0
        digest = hashlib.sha256()
        for name in sorted(path.name for path in frames.iterdir()):
            digest.update(f'{name}\n{(frames / name).read_text()}'.encode())
        assert digest.hexdigest() == frame_digest, src
        assert hashlib.sha256(out.encode()).hexdigest() == out_digest, src
