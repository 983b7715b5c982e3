import random

import pytest
from test_bijections import random_degree_tree

from tamari_atlas.bijections import tree_to_map
from tamari_atlas.enumeration import enum_maps_oracle
from tamari_atlas.maps import (BLACK, WHITE, HypermapCode, PlanarMap,
                               edgeless_map, from_hypermap, parse_hypermap)
from tamari_atlas.verify import check_map_sanity


def build(text: str) -> PlanarMap:
    return from_hypermap(parse_hypermap(text))


SINGLE = "n=1 sigma=(1) alpha=(1) root=1"
DOUBLE = "n=2 sigma=(1 2) alpha=(1 2) root=1"
PATH = "n=2 sigma=(1)(2) alpha=(1 2) root=1"


def test_hypermap_code_validation():
    HypermapCode(1, (1,), (1,), 1)
    with pytest.raises(ValueError):
        HypermapCode(2, (1, 2), (1, 2), 1)  # two components
    with pytest.raises(ValueError):
        HypermapCode(1, (1,), (2,), 1)  # not a permutation
    with pytest.raises(ValueError):
        HypermapCode(3, (2, 3, 1), (2, 3, 1), 1)  # genus 1
    with pytest.raises(ValueError):
        HypermapCode(1, (1,), (1,), 2)  # root out of range


def test_text_form_byte_exact():
    for text in [SINGLE, DOUBLE, PATH, "n=0"]:
        assert str(parse_hypermap(text)) == text
    multiline = "n=2\nsigma=(1 2)\nalpha=(1 2)\nroot=1"
    assert str(parse_hypermap(multiline)) == DOUBLE
    for bad in ["", "n=1", "n=1 sigma=(1) alpha=(2) root=1", "x=3"]:
        with pytest.raises((ValueError, KeyError)):
            parse_hypermap(bad)


def test_edgeless_map():
    m = edgeless_map()
    assert m.is_valid()
    assert m.edge_count == 0
    assert m.stats() == type(m.stats())(1, 0, 1, 0)
    assert m.canonical_code() == "n=0"


def test_validation_examples():
    assert build(SINGLE).is_valid()
    # same-colored endpoints
    m = PlanarMap()
    v = m.new_vertex(BLACK)
    a, _ = m.add_edge(('vertex', m.root_vertex()), ('vertex', v))
    m.root_corner = a
    assert "black vertices" in m.find_violation()


def test_face_orbits_examples():
    single = build(SINGLE)
    assert sorted(len(o) for o in single.face_orbits()) == [2]
    double = build(DOUBLE)
    assert sorted(len(o) for o in double.face_orbits()) == [2, 2]
    path = build(PATH)
    assert sorted(len(o) for o in path.face_orbits()) == [4]
    assert double.root_corner in double.outer_face()


def test_stats_examples():
    assert build(SINGLE).stats() == build(SINGLE).stats().__class__(1, 1, 1, 1)
    s = build(DOUBLE).stats()
    assert (s.black, s.white, s.face, s.outdeg) == (1, 1, 2, 1)
    s = build(PATH).stats()
    assert (s.black, s.white, s.face, s.outdeg) == (2, 1, 1, 2)


def test_outdeg_matches_code_face_cycle():
    # half-degree of the outer face = length of the root edge's face cycle
    for n in range(1, 5):
        for m in enum_maps_oracle(n):
            code = m.to_hypermap()
            root_cycle = next(c for c in code.face_cycles()
                              if code.root in c)
            assert m.stats().outdeg == len(root_cycle)


def test_is_bridge_examples():
    single = build(SINGLE)
    assert single.is_bridge(single.root_corner)
    double = build(DOUBLE)
    assert not double.is_bridge(double.root_corner)
    path = build(PATH)
    assert all(path.is_bridge(d) for d in path.darts())


def test_surgery_delete_sole_edge():
    m = build(SINGLE)
    d = m.root_corner
    white = m.vertex_of(m.mate(d))
    m.delete_edge(d)
    assert m.edge_count == 0
    m.remove_isolated_vertex(white)
    assert m.vertices() == [m.root_vertex()]


def test_surgery_add_edge_across_face():
    m = build(SINGLE)
    d = m.root_corner
    assert len(m.face_orbits()) == 1
    m.add_edge_between_corners(d, m.mate(d))
    assert m.edge_count == 2
    assert len(m.face_orbits()) == 2
    assert m.is_valid()


def test_surgery_contract():
    # contracting requires differently-placed endpoints, not a loop
    m = build(PATH)
    d = m.root_corner
    with pytest.raises(ValueError):
        m.split_vertex(m.vertex_of(d), [d, d], BLACK)
    kept = m.contract_edge(d)
    assert m.degree(kept) == 1
    assert m.edge_count == 1


def test_split_vertex_and_rejoin():
    m = build(PATH)
    mid = m.vertex_of(m.mate(m.root_corner))
    darts = m.vertex_darts(mid)
    assert len(darts) == 2
    w = m.split_vertex(mid, [darts[0]], WHITE)
    assert m.degree(w) == 1 and m.degree(mid) == 1
    with pytest.raises(ValueError):
        m.split_vertex(mid, [999], WHITE)


def assert_prev_inverts_next(m):
    for d in m.darts():
        assert m.prev_cw(m.next_cw(d)) == d
        assert m.next_cw(m.prev_cw(d)) == d


def test_find_violation_rejects_a_corrupted_prev():
    for n in range(1, 4):
        for m in enum_maps_oracle(n):
            for d in m.darts():
                bad = m.copy()
                bad._prev[d] = bad.mate(d)
                assert "prev does not invert next" in bad.find_violation()


def test_prev_cw_inverts_next_cw_after_surgery():
    for m in enum_maps_oracle(3):
        for d in m.darts():
            w = m.copy()
            w.add_edge(('corner', d), ('vertex', w.new_vertex(WHITE)))
            assert_prev_inverts_next(w)
            a, _ = w.add_edge(('after', d), ('vertex', w.new_vertex(BLACK)))
            assert_prev_inverts_next(w)
            v = w.vertex_of(d)
            w.split_vertex(v, w.vertex_darts(v, start=d)[:2], BLACK)
            assert_prev_inverts_next(w)
            w.contract_edge(d)
            assert_prev_inverts_next(w)
            w.delete_edge(a)
            assert_prev_inverts_next(w)


def test_hypermap_roundtrip_on_canonical_codes():
    for n in range(0, 5):
        for m in enum_maps_oracle(n):
            code = m.to_hypermap()
            again = from_hypermap(code)
            assert again.to_hypermap() == code
            assert again.canonical_code() == m.canonical_code()


def test_three_two_edge_maps_distinct():
    codes = {m.canonical_code() for m in enum_maps_oracle(2)}
    assert len(codes) == 3


def test_canonical_code_invariant_under_relabeling():
    rng = random.Random(7)
    maps = [m for n in range(1, 6) for m in enum_maps_oracle(n)]
    maps.append(tree_to_map(random_degree_tree(rng, 2000)))
    for m in maps:
        code = m.to_hypermap()
        n = code.n
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        relabel = {e: perm[e - 1] for e in range(1, n + 1)}
        sigma = [0] * n
        alpha = [0] * n
        for e in range(1, n + 1):
            sigma[relabel[e] - 1] = relabel[code.sigma[e - 1]]
            alpha[relabel[e] - 1] = relabel[code.alpha[e - 1]]
        shuffled = HypermapCode(n, tuple(sigma), tuple(alpha),
                                relabel[code.root])
        assert from_hypermap(shuffled).canonical_code() == \
            m.canonical_code()


def test_euler_and_even_faces_up_to_5():
    assert check_map_sanity(5).ok


def test_to_dot_smoke():
    dot = build(DOUBLE).to_dot()
    assert dot.startswith("graph")
    assert dot.count("--") == 2
    assert "peripheries=2" in dot  # root marker
