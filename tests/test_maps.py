import copy
import io
import itertools
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from test_bijections import random_degree_tree

from tamari_atlas import cli, maps
from tamari_atlas.bijections import tree_to_map
from tamari_atlas.enumeration import enum_maps_oracle
from tamari_atlas.maps import (BLACK, WHITE, HypermapCode, MapStats,
                               PlanarMap, from_dart_lists, from_hypermap,
                               parse_hypermap)
from tamari_atlas.verify import check_map_sanity, separates


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
    with pytest.raises(ValueError, match="not a permutation"):
        HypermapCode(2, (1, 2), (1, 1), 1)  # 1 twice, in range
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


def scan_number(what: str, text: str) -> int:
    """Reference point reader: each point through int() and back. It is
    the per-point reader that the bulk conversion replaced."""
    try:
        value = int(text)
    except ValueError:
        if text.isascii() and text.isdigit():
            raise
        value = None
    if str(value) != text:
        raise ValueError(f"{what} {text[:20]!r} is not one of 0, 1, 2, ...")
    return value


def scan_parse_cycles(n: int, text: str) -> tuple[int, ...]:
    """Reference cycle reader, converting each point by scan_number."""
    cycles = [[scan_number('cycle point', t) for t in m.group(1).split()]
              for m in re.finditer(r'\(([^()]*)\)', text)]
    shown = text if len(text) <= 40 else text[:37] + '...'
    if [] in cycles:
        raise ValueError(f"empty cycle '()' in cycles {shown!r}")
    if sum(map(len, cycles)) != n or re.sub(r'\(([^()]*)\)', '',
                                            text).strip():
        raise ValueError(f"cycles {shown!r} do not cover "
                         f"1..{str(n)[:20]} exactly")
    perm = [0] * n
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            if not 1 <= a <= n or perm[a - 1]:
                raise ValueError("bad cycle notation at point "
                                 f"{str(a)[:20]}")
            perm[a - 1] = b
    return tuple(perm)


def parse_or_message(text: str) -> str:
    try:
        return str(parse_hypermap(text))
    except ValueError as exc:
        return f"error: {exc}"


def test_map_parser_matches_scan(monkeypatch):
    texts = [str(code) for n in range(6) for code in enum_maps_oracle(n)]
    rng = random.Random(12)
    mutants = []
    for _ in range(20000):
        text = rng.choice(texts)
        i = rng.randrange(len(text) + 1)
        ch = rng.choice("0123456789()=+_ ")
        mutants.append(rng.choice([text[:i] + ch + text[i:],        # insert
                                   text[:i] + text[i + 1:],         # delete
                                   text[:i] + ch + text[i + 1:]]))  # replace
    got = [parse_or_message(text) for text in texts + mutants]
    with monkeypatch.context() as patch:
        patch.setattr(maps, '_number', scan_number)
        patch.setattr(maps, '_parse_cycles', scan_parse_cycles)
        want = [parse_or_message(text) for text in texts + mutants]
    assert got == want
    assert got[:len(texts)] == texts
    # both outcomes, and every kind of message the cycle reader words
    messages = {re.sub(r"'.*'|[0-9]+", '_', m) for m in got}
    assert {"error: cycle point _ is not one of _, _, _, ...",
            "error: cycles _ do not cover _.._ exactly",
            "error: empty cycle _",
            "error: bad cycle notation at point _"} <= messages
    assert any(not m.startswith("error") for m in got[len(texts):])


@pytest.mark.parametrize('fields,message', [
    # not a permutation, and the root out of range
    ((2, (1, 1), (1, 2), 3), "not a permutation of 1..2"),
    ((2, (1, 2), (2, 2), 0), "not a permutation of 1..2"),
    # not a permutation outside the component that the search reaches
    ((3, (1, 3, 3), (1, 3, 2), 1), "not a permutation of 1..3"),
    # a walk from edge 1 re-enters its own rotation at edge 2; edge 4 is
    # apart, so the pair is not transitive either
    ((4, (2, 3, 2, 4), (1, 2, 3, 4), 1), "not a permutation of 1..4"),
    # a point out of range, and a pair that is not transitive
    ((3, (1, 2, 4), (1, 2, 3), 1), "not a permutation of 1..3"),
    ((3, (1, 2, 0), (1, 2, 3), 1), "not a permutation of 1..3"),
    # genus 1 with the root out of range
    ((3, (2, 3, 1), (2, 3, 1), 4), "root edge out of range"),
    # not transitive, and not genus 0 either
    ((3, (1, 2, 3), (1, 2, 3), 1), "permutation pair is not transitive"),
    ((0, (), (), 1), "edgeless code has root=0"),
    ((2, (1,), (1, 3), 1), "permutations must act on {1..n}"),
])
def test_code_check_names_the_first_broken_rule(fields, message):
    with pytest.raises(ValueError) as info:
        HypermapCode(*fields)
    assert str(info.value) == message


@pytest.mark.parametrize('text,message', [
    # a point repeated across two cycles, leaving 3 out
    ("n=3 sigma=(1 2)(2) alpha=(1 2 3) root=1", "point 2"),
    ("n=3 sigma=(2 3)(2) alpha=(1 2 3) root=9", "point 2"),
    # the first bad point is named, repeated or out of range
    ("n=3 sigma=(2)(2 5) alpha=(1 2 3) root=1", "point 2"),
    ("n=3 sigma=(2)(5 2) alpha=(1 2 3) root=1", "point 5"),
    # point 0 and point n + 1, each with a point left out
    ("n=2 sigma=(0 1) alpha=(1 2) root=1", "point 0"),
    ("n=2 sigma=(1 2) alpha=(2 0) root=1", "point 0"),
    ("n=2 sigma=(1 3) alpha=(1 2) root=1", "point 3"),
    ("n=2 sigma=(2 1) alpha=(3 1) root=3", "point 3"),
])
def test_map_parser_names_the_first_bad_point(text, message):
    with pytest.raises(ValueError) as info:
        parse_hypermap(text)
    assert str(info.value) == f"bad cycle notation at point {message[6:]}"


def walked_code_check(n, sigma, alpha, root):
    """Reference check: the message of the first rule a code breaks, each
    rule checked by walking every cycle, in the order of the rules."""
    if n < 0 or len(sigma) != n or len(alpha) != n:
        return "permutations must act on {1..n}"
    counts = []
    for perm in ((0,) + sigma, (0,) + alpha):
        if sorted(perm[1:]) != list(range(1, n + 1)):
            return f"not a permutation of 1..{n}"
        counts.append(len(maps.perm_cycles(perm, range(1, n + 1))))
    if n == 0:
        return None if root == 0 else "edgeless code has root=0"
    if not 1 <= root <= n:
        return "root edge out of range"
    reached, todo = {root}, [root]
    while todo:
        e = todo.pop()
        for x in (sigma[e - 1], alpha[e - 1]):
            if x not in reached:
                reached.add(x)
                todo.append(x)
    if len(reached) < n:
        return "permutation pair is not transitive"
    faces = maps.perm_cycles([0] + [sigma[a - 1] for a in alpha],
                             range(1, n + 1))
    c = sum(counts) + len(faces)
    return None if c == n + 2 else f"not genus 0: cycle count {c} != {n + 2}"


def test_code_check_matches_the_walked_reference():
    # every code on up to 2 edges with points and root in -1..n+1, and
    # a sample on 3 and 4 edges
    rng = random.Random(9)
    fields = [(n, s, a, r) for n in range(3)
              for s in itertools.product(range(-1, n + 2), repeat=n)
              for a in itertools.product(range(-1, n + 2), repeat=n)
              for r in range(-1, n + 2)]
    for n in (3, 4):
        for _ in range(3000):
            s, a = ([rng.randint(-1, n + 1) for _ in range(n)] if rng.random()
                    < 0.3 else rng.sample(range(1, n + 1), n) for _ in 'sa')
            fields.append((n, tuple(s), tuple(a), rng.randint(-1, n + 1)))
    messages = set()
    for n, s, a, r in fields:
        try:
            HypermapCode(n, s, a, r)
            got = None
        except ValueError as exc:
            got = str(exc)
        assert got == walked_code_check(n, s, a, r), (n, s, a, r)
        messages.add(re.sub(r'[0-9]+', '_', str(got)))
    # every rule past the lengths, which all fields here have right, and
    # None for a valid code
    assert len(messages) == 6


def test_planar_map_scans_match_brute_force_up_to_5():
    # rotation, next_tagged, tag_run, face_next, face_degree and tags
    # against walks of next_cw and mate, on every dart of every oracle
    # map up to size 5 with seeded tags
    rng = random.Random(5)
    runs = {True: 0, False: 0}   # tag_run found a run / not contiguous
    for n in range(6):
        for code in enum_maps_oracle(n):
            m = from_hypermap(code)
            for d in m.darts():
                if d < m.mate(d):
                    m.set_tag(d, rng.choice('MT'), rng.randrange(3))
            assert m.tags() == {m.tag_of(d) for d in m.darts()}
            for d in m.darts():
                rot = [d]
                while m.next_cw(rot[-1]) != d:
                    rot.append(m.next_cw(rot[-1]))
                assert m.rotation(d) == rot
                for tag in 'MT':
                    assert m.next_tagged(d, tag) == next(
                        (x for x in rot[1:] if m.tag_of(x) == tag), None)
                    run = list(itertools.takewhile(
                        lambda x: m.tag_of(x) == m.tag_of(d), rot))
                    ok = all(m.tag_of(x) == tag for x in rot[len(run):])
                    assert m.tag_run(d, tag) == (run[-1] if ok else None)
                    runs[ok] += 1
                face = [d]
                while m.next_cw(m.mate(face[-1])) != d:
                    face.append(m.next_cw(m.mate(face[-1])))
                assert m.face_degree(d) == len(face)
                assert [m.face_next(d, k) for k in range(3 * len(face))] \
                    == face * 3
    assert runs[True] and runs[False]


def test_map_parser_rejects_a_word_as_a_number():
    for text in ["n=None", "n=1 sigma=(None) alpha=(1) root=1",
                 "n=1 sigma=(1) alpha=(1) root=None"]:
        with pytest.raises(ValueError, match="'None' is not one of"):
            parse_hypermap(text)


def test_map_parser_rejects_an_empty_cycle(monkeypatch, capsys):
    # an empty cycle holds no points, so the points alone still cover 1..n
    for text in ["n=1 sigma=(1)() alpha=(1) root=1",
                 "n=2 sigma=(1 2) alpha=(1)( )(2) root=1"]:
        with pytest.raises(ValueError, match=r"empty cycle '\(\)'"):
            parse_hypermap(text)
    monkeypatch.setattr('sys.stdin',
                        io.StringIO("n=1 sigma=(1)() alpha=(1) root=1\n"))
    out = io.StringIO()
    assert cli.run(['convert', '--from', 'map', '--to', 'tree'], out) == 1
    assert out.getvalue() == ''
    assert "empty cycle '()'" in capsys.readouterr().err


def dart_stats(code: HypermapCode) -> MapStats:
    """Reference statistics, read off the darts of the working map."""
    m = from_hypermap(code)
    colors = [m.color(v) for v in m.vertices()]
    outer = m.face_degree(m.root_corner) if m.edge_count else 0
    return MapStats(colors.count(BLACK), colors.count(WHITE),
                    len(m.faces()[1]) or 1, outer // 2)


def shuffled(code: HypermapCode, rng: random.Random) -> tuple:
    """The fields (n, sigma, alpha, root) of the same map with its edge
    ids shuffled."""
    n = code.n
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    new = dict(zip(range(n + 1), [0] + perm))   # the edgeless root 0 stays
    sigma = [0] * n
    alpha = [0] * n
    for e in range(1, n + 1):
        sigma[new[e] - 1] = new[code.sigma[e - 1]]
        alpha[new[e] - 1] = new[code.alpha[e - 1]]
    return n, tuple(sigma), tuple(alpha), new[code.root]


def relabel(code: HypermapCode, rng: random.Random) -> HypermapCode:
    """The code built from the same map with its edge ids shuffled."""
    return HypermapCode(*shuffled(code, rng))


def test_edgeless_map():
    m = PlanarMap()
    assert m.find_violation() is None
    assert m.edge_count == 0
    assert m.canonical_code() == "n=0"
    code = parse_hypermap("n=0")
    assert code.stats() == dart_stats(code) == MapStats(1, 0, 1, 0)


def test_validation_examples():
    assert build(SINGLE).find_violation() is None
    # same-colored endpoints
    m = from_dart_lists([0, 1, 2], [0, 0, 1], [BLACK, BLACK], 1)
    assert "black vertices" in m.find_violation()
    # a live dart on a deleted vertex, and on a vertex never made
    m = from_dart_lists([0, 1, 2], [0, 0, 1], [BLACK, None], 1)
    assert m.find_violation() == "dart 2 is on no live vertex"
    m = from_dart_lists([0, 1, 2], [0, 0, 2], [BLACK, WHITE], 1)
    assert m.find_violation() == "dart 2 is on no live vertex"
    # black vertex 0 holds two loops of its own, darts 1 and 3
    m = from_dart_lists([0, 1, 4, 3, 2], [0, 0, 1, 0, 1], [BLACK, WHITE], 1)
    assert m.find_violation() == "vertex 0 has two rotation cycles"
    m = from_dart_lists([0, 1, 2], [0, 0, 1], [BLACK, WHITE, WHITE], 1)
    assert m.find_violation() == "isolated vertex 2 in a map with edges"
    # two components, each one edge
    m = from_dart_lists([0, 1, 2, 3, 4], [0, 0, 1, 2, 3],
                        [BLACK, WHITE, BLACK, WHITE], 1)
    assert m.find_violation() == "permutation pair is not transitive"
    # three parallel edges in the same cw order around both ends: one
    # face, so V - E + F = 0, genus 1
    m = from_dart_lists([0, 3, 4, 5, 6, 1, 2], [0, 0, 1, 0, 1, 0, 1],
                        [BLACK, WHITE], 1)
    assert len(m.faces()[1]) == 1
    assert m.find_violation() == "not genus 0: cycle count 3 != 5"


def test_white_root_corner_is_not_coded():
    m = build("n=2 sigma=(1 2) alpha=(1)(2) root=1")
    m.root_corner = m.mate(m.root_corner)   # a corner of a white vertex
    for code in (m.to_hypermap, m.canonical_code):
        with pytest.raises(ValueError, match="^root vertex is not black$"):
            code()
    assert m.find_violation() == "root vertex is not black"


def test_map_without_root_corner_is_not_coded():
    m = from_dart_lists([0, 1, 2], [0, 0, 1], [BLACK, WHITE], None)
    assert m.root_corner is None
    for root in (None, 0, 3, -1):   # none, unused, out of range
        m.root_corner = root
        for code in (m.to_hypermap, m.canonical_code):
            with pytest.raises(ValueError, match="^missing root corner$"):
                code()
        assert m.find_violation() == "missing root corner"
    m.root_corner = 1
    assert m.canonical_code() == "n=1 sigma=(1) alpha=(1) root=1"


def test_face_orbits_examples():
    single = build(SINGLE)
    assert sorted(single.faces()[1]) == [2]
    double = build(DOUBLE)
    assert sorted(double.faces()[1]) == [2, 2]
    path = build(PATH)
    assert sorted(path.faces()[1]) == [4]
    # the root corner's face is one of the two 2-gons
    assert double.face_degree(double.root_corner) == 2
    # each dart's face number is shared by exactly the darts of its face
    for code in enum_maps_oracle(4):
        m = from_hypermap(code)
        face, degree = m.faces()
        for d in m.darts():
            orbit = [m.face_next(d, k) for k in range(m.face_degree(d))]
            assert m.face_next(d, len(orbit)) == d
            assert {face[x] for x in orbit} == {face[d]}
            assert degree[face[d]] == len(set(orbit))
        assert sum(degree) == len(m.darts())


def test_stats_examples():
    for text, expected in [(SINGLE, (1, 1, 1, 1)), (DOUBLE, (1, 1, 2, 1)),
                           (PATH, (2, 1, 1, 2))]:
        code = parse_hypermap(text)
        assert code.stats() == dart_stats(code) == MapStats(*expected)


def test_outdeg_matches_code_face_cycle():
    # half-degree of the outer face = length of the root edge's face
    # cycle, on oracle codes and on codes built from shuffled edge ids
    rng = random.Random(4)
    for n in range(1, 5):
        for code in enum_maps_oracle(n):
            for c in (code, relabel(code, rng)):
                root_cycle = next(f for f in c.face_cycles() if c.root in f)
                m = from_hypermap(c)
                assert m.face_degree(m.root_corner) == 2 * len(root_cycle)
                assert c.stats() == dart_stats(c)


def test_is_bridge_examples():
    # through the cut test of the bridge-agreement check
    single = build(SINGLE)
    assert separates(single, single.root_corner)
    double = build(DOUBLE)
    assert not separates(double, double.root_corner)
    path = build(PATH)
    assert all(separates(path, d) for d in path.darts())


def test_surgery_delete_sole_edge():
    m = build(SINGLE)
    d = m.root_corner
    white = m.vertex_of(m.mate(d))
    m.delete_edge(d)
    assert m.edge_count == 0
    # both ends stay, with no dart left
    assert m.darts() == [] and m.vertices() == [m.root_vertex(), white]


def test_surgery_add_edge_across_face():
    m = build(SINGLE)
    d = m.root_corner
    assert len(m.faces()[1]) == 1
    m.add_edge(d, m.mate(d))
    assert m.edge_count == 2
    assert len(m.faces()[1]) == 2
    assert m.find_violation() is None


def test_surgery_contract():
    # contracting requires differently-placed endpoints, not a loop;
    # splitting requires both ends of the arc at one vertex
    m = build(PATH)
    d = m.root_corner
    with pytest.raises(ValueError):
        m.split_vertex(d, m.mate(d))
    kept = m.contract_edge(d)
    assert m.vertex_of(m.root_corner) == kept
    assert m.rotation(m.root_corner) == [m.root_corner]
    assert m.edge_count == 1


def rotation_from(m, d):
    """The darts around d's vertex, clockwise from d."""
    out = [d]
    while m.next_cw(out[-1]) != d:
        out.append(m.next_cw(out[-1]))
    return out


def rotations(m):
    """Each vertex's rotation, clockwise from its least dart."""
    first = {}
    for d in m.darts():
        first.setdefault(m.vertex_of(d), d)
    return [m.rotation(d) for d in first.values()]


def test_split_vertex_and_rejoin():
    m = build(PATH)
    mid = m.vertex_of(m.mate(m.root_corner))
    darts = m.rotation(m.mate(m.root_corner))
    assert len(darts) == 2
    t, new = m.split_vertex(darts[0], darts[0])
    w = m.vertex_of(new)
    assert m.color(w) == m.color(mid)
    # each half keeps one dart of the path, plus its end of the new edge
    assert rotation_from(m, new) == [new, darts[0]]
    assert rotation_from(m, t) == [t, darts[1]]
    assert m.vertex_of(darts[0]) == w
    with pytest.raises(ValueError):
        m.split_vertex(999, 999)
    assert m.contract_edge(t) == mid
    assert rotation_from(m, darts[0]) == darts
    assert {m.vertex_of(d) for d in darts} == {mid}
    assert m.canonical_code() == PATH


def test_add_edge_fills_the_corners_before_its_darts_in_order():
    m = build(DOUBLE)
    d = m.root_corner
    x, y = m.add_edge(d, m.mate(d))
    assert (m.vertex_of(x), m.next_cw(x)) == (m.vertex_of(d), d)
    assert (m.vertex_of(y), m.next_cw(y)) == (m.vertex_of(m.mate(d)),
                                              m.mate(d))
    # the same corner twice: the first new dart comes before the second
    a, b = m.add_edge(d, d)
    assert (a, b) == (y + 1, y + 2)
    assert rotation_from(m, x)[:4] == [x, a, b, d]
    assert m.mate(a) == b
    assert_prev_inverts_next(m)


def test_split_vertex_is_the_inverse_of_contract_edge():
    # every arc, given by its two end darts, at every vertex of every map
    # with at most 4 edges: the new edge's dart at v takes the arc's
    # place, its dart at the new vertex comes before arc[0], and
    # contracting it restores every dart that was there before
    for n in range(1, 5):
        for code in enum_maps_oracle(n):
            m = from_hypermap(code)
            darts = m.darts()
            before = [(m.next_cw(d), m.prev_cw(d), m.vertex_of(d))
                      for d in darts]
            for rot in rotations(m):
                v, k = m.vertex_of(rot[0]), len(rot)
                for i, length in itertools.product(range(k), range(1, k + 1)):
                    arc = [rot[(i + j) % k] for j in range(length)]
                    rest = [rot[(i + j) % k] for j in range(length, k)]
                    w = copy.deepcopy(m)
                    t, new = w.split_vertex(arc[0], arc[-1])
                    assert (t, new) == (len(darts) + 1, len(darts) + 2)
                    assert w.mate(t) == new and w.vertex_of(t) == v
                    assert w.color(w.vertex_of(new)) == w.color(v)
                    assert w.vertex_of(new) not in m.vertices()
                    assert rotation_from(w, t) == [t, *rest]
                    assert rotation_from(w, new) == [new, *arc]
                    assert {w.vertex_of(d) for d in arc} == \
                        {w.vertex_of(new)}
                    assert_prev_inverts_next(w)
                    assert w.contract_edge(t) == v
                    assert [(w.next_cw(d), w.prev_cw(d), w.vertex_of(d))
                            for d in darts] == before
                    assert w.darts() == darts
                    assert w.to_hypermap() == code


def dead_dart_map():
    """The map of DOUBLE with the root vertex's second edge deleted, and
    that edge's two darts."""
    m = build(DOUBLE)
    e = m.next_cw(m.root_corner)
    f = m.mate(e)
    m.delete_edge(e)
    return m, e, f


def out_of_range(m):
    """Ids that are no dart: list indexing would read them from the end
    of the dart lists (1 - len as live dart 1), or past it."""
    n = len(m._next)
    return -1, -n, 1 - n, n


def test_split_vertex_rejects_what_is_not_an_arc():
    # an end that is no live dart, or ends on two vertices, is rejected
    # before any write: a dead dart's stale next_cw would lead the cut
    # off its vertex
    m, e, f = dead_dart_map()
    before = rotations(m), m.vertices(), m.edge_count
    live = m.mate(m.root_corner)
    for dead in (e, f, *out_of_range(m)):
        for a, b in ((dead, live), (live, dead)):
            with pytest.raises(ValueError,
                               match=f"^dart {dead} is not live$"):
                m.split_vertex(a, b)
    with pytest.raises(ValueError, match=f"^darts {m.root_corner} and "
                       f"{live} are on different vertices$"):
        m.split_vertex(m.root_corner, live)
    assert (rotations(m), m.vertices(), m.edge_count) == before
    assert m.find_violation() is None


def test_set_tag_rejects_a_deleted_dart():
    # a dead dart's mate is 0, so a tag would land in the unused slot 0
    # and on no edge; a negative id would tag a dart from the end
    m, e, f = dead_dart_map()
    before = list(m._tag), list(m._label)
    for d in (e, f, *out_of_range(m)):
        with pytest.raises(ValueError, match=f"^dart {d} is not live$"):
            m.set_tag(d, 'T', 5)
    assert (m._tag, m._label) == before
    assert m.find_violation() is None


def test_add_edge_rejects_a_deleted_dart():
    # a new dart spliced next to a dead one would put the dead dart back
    # into the root vertex's rotation, where prev no longer inverts next
    m, e, f = dead_dart_map()
    before = rotations(m)
    live = m.mate(m.root_corner)
    for dead in (e, f, *out_of_range(m)):
        for a, b in ((dead, live), (live, dead)):
            with pytest.raises(ValueError,
                               match=f"^dart {dead} is not live$"):
                m.add_edge(a, b)
    assert rotations(m) == before and m.edge_count == 1
    assert m.find_violation() is None


def test_delete_edge_rejects_a_deleted_dart():
    # a second deletion would splice the dead darts out of the rotations
    # again
    m, e, f = dead_dart_map()
    before = rotations(m)
    for d in (e, f, *out_of_range(m)):
        with pytest.raises(ValueError, match=f"^dart {d} is not live$"):
            m.delete_edge(d)
    assert rotations(m) == before and m.edge_count == 1
    assert m.find_violation() is None


def test_contract_edge_rejects_a_deleted_dart():
    # a dead dart's mate is 0, which the loop test would misread
    m, e, f = dead_dart_map()
    before = rotations(m)
    for d in (e, f, *out_of_range(m)):
        with pytest.raises(ValueError, match=f"^dart {d} is not live$"):
            m.contract_edge(d)
    assert rotations(m) == before and m.edge_count == 1
    assert m.find_violation() is None


def test_scans_reject_a_deleted_dart():
    # a dead dart's stale next_cw can lead a walk round forever, and a
    # negative id reads the lists from the end, so the probes run in a
    # child process that a timeout stops
    scans = {'rotation': (), 'next_tagged': ('T',), 'tag_run': ('T',),
             'face_next': (3,), 'face_degree': ()}
    script = ("import sys\n"
              "from tamari_atlas.maps import from_hypermap, parse_hypermap\n"
              f"m = from_hypermap(parse_hypermap({DOUBLE!r}))\n"
              "m.delete_edge(m.next_cw(m.root_corner))\n"
              "for d in map(int, sys.argv[1:]):\n"
              f"    for scan, args in {scans!r}.items():\n"
              "        try:\n"
              "            print(scan, getattr(m, scan)(d, *args))\n"
              "        except ValueError as exc:\n"
              "            print(scan, exc)\n")
    m, e, f = dead_dart_map()   # the map that the script builds
    ids = (e, f, *out_of_range(m))
    src = str(Path(maps.__file__).parent.parent)
    done = subprocess.run([sys.executable, '-c', script, *map(str, ids)],
                          timeout=30, capture_output=True, text=True,
                          env={**os.environ, 'PYTHONPATH': src})
    assert done.stdout.splitlines() == [f"{scan} dart {d} is not live"
                                        for d in ids for scan in scans], \
        done.stderr


def assert_prev_inverts_next(m):
    for d in m.darts():
        assert m.prev_cw(m.next_cw(d)) == d
        assert m.next_cw(m.prev_cw(d)) == d


def test_find_violation_rejects_a_corrupted_prev():
    for n in range(1, 4):
        for code in enum_maps_oracle(n):
            m = from_hypermap(code)
            for d in m.darts():
                bad = copy.deepcopy(m)
                bad._prev[d] = bad.mate(d)
                assert "prev does not invert next" in bad.find_violation()


def test_prev_cw_inverts_next_cw_after_surgery():
    for code in enum_maps_oracle(3):
        m = from_hypermap(code)
        for d in m.darts():
            w = copy.deepcopy(m)
            w.add_edge(d, w.mate(d))
            assert_prev_inverts_next(w)
            a, _ = w.add_edge(w.next_cw(d), d)
            assert_prev_inverts_next(w)
            t, _ = w.split_vertex(d, w.next_cw(d))
            assert_prev_inverts_next(w)
            w.contract_edge(d)
            assert_prev_inverts_next(w)
            w.delete_edge(a)
            assert_prev_inverts_next(w)
            w.contract_edge(t)
            assert_prev_inverts_next(w)


def test_hypermap_roundtrip_on_canonical_codes():
    for n in range(0, 5):
        for code in enum_maps_oracle(n):
            again = from_hypermap(code)
            assert again.to_hypermap() == code
            assert again.canonical_code() == str(code)


def test_three_two_edge_maps_distinct():
    codes = {str(code) for code in enum_maps_oracle(2)}
    assert len(codes) == 3


def test_canonical_code_invariant_under_relabeling():
    rng = random.Random(7)
    codes = [code for n in range(1, 6) for code in enum_maps_oracle(n)]
    codes.append(tree_to_map(random_degree_tree(rng, 2000)))
    for code in codes:
        again = relabel(code, rng)
        assert again == code
        assert from_hypermap(again).canonical_code() == str(code)


def test_code_is_canonical_once_built_up_to_5():
    rng = random.Random(11)
    codes = [code for n in range(0, 6) for code in enum_maps_oracle(n)]
    moved = 0
    for code in codes:
        fields = shuffled(code, rng)
        moved += fields[1:] != (code.sigma, code.alpha, code.root)
        again = HypermapCode(*fields)
        assert again == code
        assert again.root == (1 if code.n else 0)
        assert from_hypermap(again).to_hypermap() == again
    assert moved > len(codes) * 3 // 4   # most shuffles move some edge id


def test_euler_and_even_faces_up_to_5():
    assert check_map_sanity(5).ok


def test_to_dot_smoke():
    dot = cli.tagged_map_dot(build(DOUBLE))
    assert dot.startswith("graph")
    assert dot.count("--") == 2
    assert "peripheries=2" in dot  # root marker
