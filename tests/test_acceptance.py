"""End-to-end acceptance gate: one test per criterion, each reporting a
single pass/fail line on stdout."""

import io
import time
from itertools import permutations

import pytest

import tamari_atlas.cli as cli
from tamari_atlas.bijections import (interval_to_tree, map_to_interval,
                                     map_to_tree, tree_to_interval,
                                     tree_to_map)
from tamari_atlas.dyck import interval_stats
from tamari_atlas.enumeration import (count_formula, enum_degree_trees,
                                      enum_maps_oracle, enum_new_intervals,
                                      gf_table)
from tamari_atlas.maps import parse_hypermap
from tamari_atlas.verify import (check_certificate_location,
                                 check_certificate_nesting,
                                 check_face_multiset, check_node_label_lemma,
                                 check_one_face_specialization,
                                 check_oracle_equivalence,
                                 check_rising_contact_labels,
                                 check_theorem_stats, check_trace_shape,
                                 check_upper_bracket_subtrees)

EXPECTED_COUNTS = {2: 1, 3: 3, 4: 12, 5: 56, 6: 288, 7: 1584}


@pytest.fixture(scope="module")
def maps_by_size():
    return {n: enum_maps_oracle(n) for n in range(0, 7)}


@pytest.fixture(scope="module")
def gf_tables(maps_by_size):
    maps_gf = {}
    for n, maps in maps_by_size.items():
        for m in maps:
            s = m.stats()
            key = (n, s.outdeg, s.black, s.white, s.face)
            maps_gf[key] = maps_gf.get(key, 0) + 1
    return maps_gf, gf_table('intervals', 7)


def report(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} {name} {detail}".rstrip())
    assert ok, f"{name}: {detail}"


def test_criterion_1_counting(maps_by_size):
    t0 = time.time()
    for n, expected in EXPECTED_COUNTS.items():
        assert count_formula(n) == expected
        assert len(enum_new_intervals(n)) == expected
        assert len(enum_degree_trees(n - 1)) == expected
        assert len(maps_by_size[n - 1]) == expected
    elapsed = time.time() - t0
    report("counting", elapsed < 60,
           f"sizes 2..7 match {list(EXPECTED_COUNTS.values())}, "
           f"{elapsed:.1f}s")


def test_criterion_2_roundtrips(maps_by_size):
    for n in range(0, 6):
        for dt in enum_degree_trees(n):
            assert map_to_tree(tree_to_map(dt)) == dt
            assert interval_to_tree(tree_to_interval(dt)) == dt
        for code in maps_by_size[n]:
            assert tree_to_map(map_to_tree(code)) == code
    for n in range(1, 7):
        for interval in enum_new_intervals(n):
            assert tree_to_interval(interval_to_tree(interval)) == interval
    report("roundtrips", True,
           "all four compositions are identities at the stated sizes")


def test_criterion_3_theorem_statistics(maps_by_size):
    ok = check_theorem_stats(5).ok
    # the size-0 exception must fail exactly as recorded
    m = parse_hypermap("n=0")
    ms = m.stats()
    s = interval_stats(map_to_interval(m))
    exception_as_recorded = (
        (ms.white, ms.black, ms.face, ms.outdeg) == (0, 1, 1, 0)
        and (s.c00, s.c01, s.c11, s.rcont) == (1, 0, 0, 1)
        and ms.white != s.c00 and ms.black != s.c01
        and ms.face == 1 + s.c11 and ms.outdeg == s.rcont - 1)
    report("theorem-statistics", ok and exception_as_recorded,
           "identities hold for 1..5 edges; size-0 exception confirmed")


def test_criterion_4_generating_functions(gf_tables):
    maps_gf, ints_gf = gf_tables
    # t * F_maps = w * F_intervals, coefficient by coefficient up to t^7
    shifted = {(n + 1, i, j, k, l - 1): c
               for (n, i, j, k, l), c in maps_gf.items()}
    identity_ok = shifted == ints_gf
    # symmetry of the w-shifted interval series in the three vertex-style
    # variables, root-degree variable set to 1; degree 1 is the size-zero
    # exception and must stay one-sided
    table = {}
    degree1 = {}
    for (n, i, j, k, l), c in ints_gf.items():
        target = table if n >= 2 else degree1
        key = (n, j, k, l + 1)
        target[key] = target.get(key, 0) + c
    symmetric_ok = True
    for perm in permutations(range(3)):
        permuted = {}
        for (n, j, k, l), c in table.items():
            e = (j, k, l)
            key = (n,) + tuple(e[p] for p in perm)
            permuted[key] = permuted.get(key, 0) + c
        if permuted != table:
            symmetric_ok = False
    exception_ok = degree1 == {(1, 1, 0, 1): 1}
    report("generating-functions",
           identity_ok and symmetric_ok and exception_ok,
           "identity up to t^7; symmetry for t^2..t^7; t^1 exception "
           "confirmed one-sided")


def test_criterion_5_oracle_equivalence():
    result = check_oracle_equivalence(5)
    report("oracle-equivalence", result.ok, result.detail)


def test_criterion_6_lemma_suites():
    results = [
        check_node_label_lemma(7),
        check_certificate_location(6),
        check_certificate_nesting(6),
        check_trace_shape(4),
        check_rising_contact_labels(6),
        check_upper_bracket_subtrees(6),
    ]
    bad = [r.line() for r in results if not r.ok]
    report("lemma-suites", not bad, '; '.join(bad) or
           "node labels, certificates, trace shape, rising contacts, "
           "upper brackets all verified")


def test_criterion_7_face_multiset():
    result = check_face_multiset(5)
    report("face-multiset", result.ok, result.detail)


def test_criterion_8_one_face_specialization():
    result = check_one_face_specialization(6)
    report("one-face-specialization", result.ok, result.detail)


def test_criterion_9_cli_end_to_end():
    triple = {'map': "n=2 sigma=(1 2) alpha=(1 2) root=1",
              'tree': "(1:(0:()))",
              'interval': "uuddud;uuuddd"}
    ok = True
    for src in triple:
        for dst in triple:
            if src == dst:
                continue
            out = io.StringIO()
            old = cli.sys.stdin
            cli.sys.stdin = io.StringIO(triple[src] + "\n")
            try:
                code = cli.run(['convert', '--from', src, '--to', dst],
                               out=out)
            finally:
                cli.sys.stdin = old
            if code != 0 or out.getvalue() != triple[dst] + "\n":
                ok = False
    report("cli-end-to-end", ok, "worked triple converts in all six "
           "directions byte-exactly")
