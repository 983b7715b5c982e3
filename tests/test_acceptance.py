"""End-to-end acceptance gate: one test per criterion, each reporting a
single pass/fail line on stdout."""

import io
import time

import pytest

import tamari_atlas.cli as cli
from tamari_atlas.bijections import map_to_interval
from tamari_atlas.dyck import interval_stats
from tamari_atlas.enumeration import (count_formula, enum_degree_trees,
                                      enum_maps_oracle, enum_new_intervals,
                                      gf_table, gf_tally)
from tamari_atlas.maps import parse_hypermap
from tamari_atlas.verify import (check_certificate_location,
                                 check_certificate_nesting,
                                 check_corollary_identity,
                                 check_face_multiset, check_gf_symmetry,
                                 check_node_label_lemma,
                                 check_one_face_specialization,
                                 check_oracle_equivalence,
                                 check_rising_contact_labels,
                                 check_roundtrip_map_tree,
                                 check_roundtrip_tree_interval,
                                 check_theorem_stats, check_trace_shape,
                                 check_upper_bracket_subtrees)

EXPECTED_COUNTS = {2: 1, 3: 3, 4: 12, 5: 56, 6: 288, 7: 1584}


@pytest.fixture(scope="module")
def maps_by_size():
    return {n: enum_maps_oracle(n) for n in range(0, 7)}


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


def test_criterion_2_roundtrips():
    results = [check_roundtrip_map_tree(5), check_roundtrip_tree_interval(5)]
    bad = [r.line() for r in results if not r.ok]
    report("roundtrips", not bad, '; '.join(bad) or
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


def test_criterion_4_generating_functions(maps_by_size):
    # t * F_maps = w * F_intervals up to t^7, and the symmetry from t^2
    results = [check_corollary_identity(6), check_gf_symmetry(6)]
    # degree 1 is the size-zero exception, which gf-symmetry leaves out:
    # the edgeless map's coefficient, w-shifted on the interval side, is
    # one-sided in the three vertex-style variables
    degree1 = {(j, k, l + 1): c for (n, i, j, k, l), c
               in gf_table('intervals', 1).items()}
    size0 = {(j, k, l): c for (n, i, j, k, l), c
             in gf_tally('maps', maps_by_size[0]).items()}
    exception_ok = degree1 == size0 == {(1, 0, 1): 1}
    bad = [r.line() for r in results if not r.ok]
    report("generating-functions", not bad and exception_ok,
           '; '.join(bad) or "identity up to t^7; symmetry for t^2..t^7; "
           "t^1 exception confirmed one-sided")


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
