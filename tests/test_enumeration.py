import hashlib
import math
from itertools import permutations

import pytest

from tamari_atlas.dyck import NewInterval, bracket_vector
from tamari_atlas.enumeration import (_grow, _insertions, count_formula,
                                      enum_degree_trees, enum_dyck,
                                      enum_maps_oracle, enum_new_intervals,
                                      gf_table, gf_table_lines, gf_tally)
from tamari_atlas.maps import HypermapCode, bfs_edge_order, from_hypermap
from test_maps import cycle_count


def scan_map_codes(n):
    """Reference oracle: canonical codes of every rooted bipartite planar
    map with n edges, by scanning all (n!)^2 permutation pairs with root
    edge 1 and keeping the genus-0 ones whose breadth-first edge order is
    the identity (transitive and canonically labelled)."""
    if n == 0:
        return {str(HypermapCode(0, (), (), 0))}
    ids = range(1, n + 1)
    identity = list(ids)
    perms = [(0,) + p for p in permutations(ids)]
    cycle_counts = [cycle_count(p, n) for p in perms]
    out = set()
    for sigma, c_sigma in zip(perms, cycle_counts):
        for alpha, c_alpha in zip(perms, cycle_counts):
            faces = [sigma[a] for a in alpha]
            if c_sigma + c_alpha + cycle_count(faces, n) != n + 2:
                continue
            order, rotations = bfs_edge_order(sigma, alpha, 1)
            if order == identity:
                # a transitive pair: the search read every rotation
                assert rotations == c_sigma + c_alpha
                out.add(from_hypermap(
                    HypermapCode(n, sigma[1:], alpha[1:], 1)).canonical_code())
    return out


def scan_new_intervals(n):
    """Reference generator: every pair of Dyck paths of size n that
    passes the new-interval conditions on bracket vectors, lower-major."""
    paths = enum_dyck(n)
    vectors = [bracket_vector(p) for p in paths]
    out = []
    for lower, vp in zip(paths, vectors):
        for upper, vq in zip(paths, vectors):
            if vq[0] != n - 1:
                continue
            if any(a > b for a, b in zip(vp, vq)):
                continue
            if any(vq[k] > 0 and vp[k] > (vq[k + 1] if k + 1 < n else 0)
                   for k in range(n)):
                continue
            out.append(NewInterval(lower, upper))
    return out


def test_direct_interval_generator_matches_pair_scan():
    for n in range(1, 9):
        assert enum_new_intervals(n) == scan_new_intervals(n)


def test_enum_new_intervals_size_2():
    assert [str(i) for i in enum_new_intervals(2)] == ["udud;uudd"]


def test_enum_degree_trees_size_2():
    got = {str(dt) for dt in enum_degree_trees(2)}
    assert got == {"(0:(0:()))", "(1:(0:()))", "(0:()0:())"}


def test_enum_maps_small_counts():
    assert len(enum_maps_oracle(0)) == 1
    assert len(enum_maps_oracle(1)) == 1
    assert len(enum_maps_oracle(2)) == 3
    assert len(enum_maps_oracle(3)) == 12


def test_enum_maps_all_valid_and_canonical():
    for n in range(0, 5):
        codes = enum_maps_oracle(n)
        assert len(set(codes)) == len(codes)
        for code in codes:
            m = from_hypermap(code)
            assert m.find_violation() is None
            assert m.canonical_code() == str(code)


def test_grown_oracle_matches_permutation_scan():
    for n in range(0, 6):
        grown = [str(code) for code in enum_maps_oracle(n)]
        assert len(set(grown)) == len(grown)
        assert set(grown) == scan_map_codes(n), n


def whole_pair_grow(level, k):
    """Reference growth step: keeps a candidate by the genus-0 cycle count
    of its whole pair (sigma, alpha and face cycles), without using the
    parent's genus, and relabels it canonically."""
    out = set()
    for sigma, alpha in level:
        alphas = [(a, cycle_count(a, k)) for a in _insertions(alpha, k)]
        for s in _insertions(sigma, k):
            c_s = cycle_count(s, k)
            for a, c_a in alphas:
                if s[k] == k and a[k] == k:   # both ends new: disconnected
                    continue
                faces = [s[x] for x in a]
                if c_s + c_a + cycle_count(faces, k) != k + 2:
                    continue
                # relabel edges by their breadth-first order from edge 1
                order, rotations = bfs_edge_order(s, a, 1)
                assert (len(order), rotations) == (k, c_s + c_a)
                label = [0] * (k + 1)
                for i, e in enumerate(order, 1):
                    label[e] = i
                out.add(((0, *(label[s[e]] for e in order)),
                         (0, *(label[a[e]] for e in order))))
    return sorted(out)


def test_growth_step_matches_whole_pair_reference_up_to_7():
    level = [((0, 1), (0, 1))]   # the one-edge map
    for k in range(2, 8):
        grown = _grow(level, k)
        assert grown == whole_pair_grow(level, k)
        level = grown
    assert len(level) == 9152


def delete_last_edge(perm, n):
    """The permutation of 1..n with n removed from its cycle."""
    out = list(perm[:n])
    if perm[n] != n:
        out[perm.index(n)] = perm[n]
    return out


def test_each_map_has_one_canonical_parent():
    # deleting edge n leaves a connected pair whose BFS order is still
    # 1..n-1, and that pair is a map of the previous level
    for n in range(2, 7):
        parents = set(enum_maps_oracle(n - 1))
        for code in enum_maps_oracle(n):
            sigma = delete_last_edge((0, *code.sigma), n)
            alpha = delete_last_edge((0, *code.alpha), n)
            assert bfs_edge_order(sigma, alpha, 1)[0] == list(range(1, n))
            assert HypermapCode(n - 1, tuple(sigma[1:]), tuple(alpha[1:]),
                                1) in parents


def test_grown_oracle_counts_match_formulas_up_to_7():
    # Tutte, "A census of planar maps" (1963): 3 * 2^(n-1) (2n)! /
    # (n! (n+2)!) rooted bipartite planar maps with n edges
    for n in range(1, 8):
        tutte = (3 * 2 ** (n - 1) * math.factorial(2 * n)
                 // (math.factorial(n) * math.factorial(n + 2)))
        assert len(enum_maps_oracle(n)) == count_formula(n + 1) == tutte


def test_grown_oracle_output_is_sorted_by_pair():
    for n in range(1, 6):
        pairs = [(c.sigma, c.alpha) for c in enum_maps_oracle(n)]
        assert pairs == sorted(pairs)


def test_count_formula_values():
    assert [count_formula(n) for n in range(2, 8)] == \
        [1, 3, 12, 56, 288, 1584]
    with pytest.raises(ValueError):
        count_formula(1)


def test_count_formula_large_values_exact():
    # stays exact well past 64-bit territory
    assert count_formula(30) % 1 == 0
    assert count_formula(30) > 2 ** 64


def test_gf_table_interval_degree_1():
    table = gf_table('intervals', 1)
    assert table == {(1, 0, 1, 0, 0): 1}


def test_gf_table_maps_degree_0():
    table = gf_table('maps', 0)
    assert table == {(0, 0, 1, 0, 1): 1}


def test_gf_identity_spot_check_degree_2():
    # t * (maps term at t^1) = w * (intervals term at t^2)
    maps1 = {k: v for k, v in gf_table('maps', 1).items() if k[0] == 1}
    ints2 = {k: v for k, v in gf_table('intervals', 2).items() if k[0] == 2}
    assert maps1 == {(1, 1, 1, 1, 1): 1}
    assert ints2 == {(2, 1, 1, 1, 0): 1}


def test_gf_table_unknown_family():
    with pytest.raises(ValueError):
        gf_table('widgets', 2)
    with pytest.raises(ValueError):   # even with no object to tally
        gf_tally('widgets', [])


def test_gf_dump_format():
    lines = list(gf_table_lines(gf_table('maps', 1)))
    assert lines == sorted(lines)
    assert all(len(line.split()) == 6 for line in lines)


def test_deterministic_streams():
    # pins each stream's content and order, not only that it repeats
    for enum, sizes, digest in [
        (enum_degree_trees, range(0, 8),
         '975388a7ddcfa55bb1f3f0a906dcb9ce38ef0488b21fc3f7b1e2bbd275dfb427'),
        (enum_new_intervals, range(1, 9),
         '9894c02d67fa29ce8098d14fd1582d4738a036aed46ca70146d612f56b2f23e7'),
        (enum_maps_oracle, range(0, 7),
         '9405a67ffb50cddd319998a0d0106e06b8679e07432f90876be1a670ef512d20'),
    ]:
        text = '\n'.join(str(o) for n in sizes for o in enum(n))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, enum


def test_counting_agreement_small():
    for n in range(1, 5):
        expected = count_formula(n + 1)
        assert len(enum_new_intervals(n + 1)) == expected
        assert len(enum_degree_trees(n)) == expected
        assert len(enum_maps_oracle(n)) == expected
