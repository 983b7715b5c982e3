import gc
import importlib
import io
import re
from collections import Counter

import pytest
import spans
import workloads

from tamari_atlas import bijections, cli, enumeration, verify
from tamari_atlas.enumeration import enum_maps_oracle
from tamari_atlas.maps import PlanarMap, parse_hypermap
from tamari_atlas.trees import parse_degree_tree
from tamari_atlas.verify import report_lines, verify_suite


def test_suite_passes_at_3():
    results = verify_suite(3)
    assert results == sorted(results, key=lambda r: r.check_id)
    assert all(r.ok for r in results), [r.line() for r in results if not r.ok]


def test_report_line_format():
    for line in report_lines(verify_suite(2)):
        status, check_id, detail = line.split(' ', 2)
        assert status in ("PASS", "FAIL")
        assert check_id and detail


SUITE_6 = [
    'PASS bridge-agreement 360 maps, sizes 1..5',
    'PASS certificate-location 1945 trees, sizes 0..6',
    'PASS certificate-nesting 1945 trees, sizes 0..6',
    'PASS corollary-identity 127 coefficients up to degree 7',
    'PASS counting three families and formula agree for sizes 1..6',
    'PASS face-multiset 361 maps, sizes 0..5',
    'PASS gf-symmetry all 6 permutations, degrees 2..7',
    'PASS map-sanity 1945 maps, sizes 0..6',
    'PASS node-label-lemma 1945 trees, sizes 0..6',
    'PASS one-face-specialization 197 maps, sizes 0..6',
    'PASS oracle-equivalence canonical-code sets equal for sizes 0..5',
    'PASS rising-contact-labels 1945 trees, sizes 0..6',
    'PASS roundtrip-map-tree 361 trees, sizes 0..5; 361 maps, sizes 0..5',
    'PASS roundtrip-tree-interval 361 trees, sizes 0..5; '
    '361 intervals, sizes 1..6',
    'PASS theorem-stats 360 maps, sizes 1..5',
    'PASS trace-reversal 73 trees, sizes 0..4',
    'PASS trace-shape 73 maps, sizes 0..4',
    'PASS upper-bracket-subtrees 1945 trees, sizes 0..6',
]


def test_suite_lines_at_6():
    assert report_lines(verify_suite(6)) == SUITE_6


def test_enumerator_that_raises_fails_only_the_checks_that_read_it(
        monkeypatch):
    real = enumeration.ENUMERATE['maps']

    def broken_at_3(n):
        if n == 3:
            raise ValueError("no maps of size 3")
        return real(n)

    monkeypatch.setitem(enumeration.ENUMERATE, 'maps', broken_at_3)
    readers = {'bridge-agreement', 'corollary-identity', 'counting',
               'face-multiset', 'map-sanity', 'one-face-specialization',
               'oracle-equivalence', 'roundtrip-map-tree', 'theorem-stats',
               'trace-shape'}
    assert report_lines(verify_suite(6)) == [
        f"FAIL {line.split()[1]} raised ValueError: no maps of size 3"
        if line.split()[1] in readers else line for line in SUITE_6]


def _lone_checks():
    return {name[len('check_'):].replace('_', '-'): check
            for name, check in vars(verify).items()
            if name.startswith('check_')}


def test_suite_rejects_bad_bound():
    # the suite and each lone check go through one bound check
    checks = [verify_suite, *_lone_checks().values()]
    assert len(checks) == 1 + 18
    for n_max in (0, -1):
        for check in checks:
            with pytest.raises(ValueError, match="n_max must be at least 1"):
                check(n_max)


def test_each_size_is_freed_by_reference_counting():
    # no cached function of a size refers to its record, so no cycle keeps
    # a size's lists alive until the cyclic collector runs
    gc.collect()
    gc.disable()
    try:
        assert report_lines(verify_suite(6)) == SUITE_6
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_caps_and_lone_checks_agree_with_the_suite():
    # every cap is at most 6, so the suite prints the size-6 lines past it
    assert report_lines(verify_suite(8)) == SUITE_6
    # a lone check run up to its cap prints its suite line
    checks = _lone_checks()
    for line in SUITE_6:
        check_id = line.split()[1]
        cap, _ = verify._PLANS[check_id]
        assert checks[check_id](cap).line() == line


def test_suite_builds_each_map_size_once_per_call(monkeypatch):
    built = Counter()
    real = enumeration.ENUMERATE['maps']

    def counting(n):
        built[n] += 1
        return real(n)

    monkeypatch.setitem(enumeration.ENUMERATE, 'maps', counting)
    assert all(r.ok for r in verify_suite(6))
    assert built == {n: 1 for n in range(0, 7)}
    # nothing is kept between calls: a second call builds every size again
    assert all(r.ok for r in verify_suite(6))
    assert built == {n: 2 for n in range(0, 7)}


def test_suite_runs_each_map_tree_direction_once_per_object(monkeypatch):
    untraced = {'map_to_tree': Counter(), 'tree_to_map': Counter()}
    traced = Counter()
    for name, calls in untraced.items():
        real = getattr(bijections, name)

        def counting(obj, trace=None, real=real, calls=calls, name=name):
            if trace is None:
                calls[obj] += 1
            else:
                traced[name] += 1
            return real(obj, trace=trace)

        # both bindings, so that no call gets round the count
        monkeypatch.setattr(verify, name, counting)
        monkeypatch.setattr(bijections, name, counting)
    # the interval directions: each argument is kept, so that no two
    # objects share an id
    interval_args = {'tree_to_interval': [], 'interval_to_tree': []}
    for name, args in interval_args.items():
        def recording(obj, real=getattr(bijections, name), args=args):
            args.append(obj)
            return real(obj)

        monkeypatch.setattr(verify, name, recording)
        monkeypatch.setattr(bijections, name, recording)
    assert all(r.ok for r in verify_suite(6))
    # every map of sizes 0..5 and the 132 one-face maps of size 6; every
    # tree of sizes 0..5
    assert set(untraced['map_to_tree'].values()) == {1}
    assert set(untraced['tree_to_map'].values()) == {1}
    assert sum(untraced['map_to_tree'].values()) == 361 + 132
    assert sum(untraced['tree_to_map'].values()) == 361
    # the traced checks keep their own runs: trace-shape and
    # trace-reversal on 73 objects each, bridge-agreement on 360 maps
    assert traced == {'map_to_tree': 73 + 73 + 360, 'tree_to_map': 73}
    # tree_to_interval on the 1945 trees of sizes 0..6, on the trees of the
    # 361 maps of sizes 0..5 and in the 361 interval round trips;
    # interval_to_tree in the two round trips; never twice on one object
    assert len(interval_args['tree_to_interval']) == 1945 + 361 + 361
    assert len(interval_args['interval_to_tree']) == 361 + 361
    for args in interval_args.values():
        assert len(set(map(id, args))) == len(args)


def test_check_that_raises_fails_and_the_rest_run(monkeypatch, capsys):
    # a bijection's self-check raising inside the checks that call it
    def broken(code, trace=None):
        raise RuntimeError("map_to_tree left map edges unconverted")

    monkeypatch.setattr(verify, 'map_to_tree', broken)
    results = verify_suite(3)
    assert len(results) == 18
    failed = {r.check_id: r.detail for r in results if not r.ok}
    # every object of sizes 0..3 fails: 17 maps and 17 trees, 16 maps of
    # sizes 1..3, 9 one-face maps; three are shown, the rest counted
    more = {'bridge-agreement': 16 - 3, 'face-multiset': 17 - 3,
            'one-face-specialization': 9 - 3,
            'roundtrip-map-tree': 17 + 17 - 3, 'theorem-stats': 16 - 3,
            'trace-reversal': 17 - 3, 'trace-shape': 17 - 3}
    assert set(failed) == set(more)
    # each failure names the object it was checking
    parse = {'map': parse_hypermap, 'tree': parse_degree_tree}
    for check_id, detail in failed.items():
        shown, tail = detail.rsplit('; ', 1)
        assert tail == f"and {more[check_id]} more"
        assert len(shown.split('; ')) == 3
        for failure in shown.split('; '):
            found = re.fullmatch(r"(map|tree) (.+): raised RuntimeError: "
                                 r"map_to_tree left map edges unconverted",
                                 failure)
            assert found, failure
            family, text = found.groups()
            assert str(parse[family](text)) == text
    out = io.StringIO()
    assert cli.run(['verify', '--max-size', '2'], out=out) == 2
    assert out.getvalue().count('FAIL ') == 7
    assert capsys.readouterr().err == ''


def test_one_object_that_raises_is_named_and_the_rest_run(monkeypatch):
    real = verify.map_to_tree
    bad = parse_hypermap("n=2 sigma=(1 2) alpha=(1 2) root=1")
    seen = []

    def broken_on_one(code, trace=None):
        seen.append(code)
        if code == bad:
            raise RuntimeError("map_to_tree left map edges unconverted")
        return real(code, trace=trace)

    monkeypatch.setattr(verify, 'map_to_tree', broken_on_one)
    error = "raised RuntimeError: map_to_tree left map edges unconverted"
    # the checks over trees meet the map as the image of its tree
    on_map, on_tree = f"map {bad}: {error}", f"tree {real(bad)}: {error}"
    results = verify_suite(3)
    assert len(results) == 18
    failed = {r.check_id: r.detail for r in results if not r.ok}
    assert failed == {
        'bridge-agreement': on_map, 'face-multiset': on_map,
        'roundtrip-map-tree': f"{on_tree}; {on_map}",
        'theorem-stats': on_map, 'trace-reversal': on_tree,
        'trace-shape': on_map}
    # every map after the broken one is still tested
    seen.clear()
    assert not verify.check_face_multiset(3).ok
    assert seen == [code for n in range(4) for code in enum_maps_oracle(n)]


WRONG_IMAGES = {
    # tree (0:()0:()) gets the map of (0:(0:())): no tree reaches its own
    # map, and the round trips from the tree and from that map come back
    # wrong
    'tree_to_map': (parse_degree_tree('(0:()0:())'),
                    parse_degree_tree('(0:(0:()))'), [
        "FAIL oracle-equivalence size 2: "
        "oracle-only ['n=2 sigma=(1 2) alpha=(1)(2) root=1'], image-only []",
        "FAIL roundtrip-map-tree tree (0:()0:()): not recovered; "
        "map n=2 sigma=(1 2) alpha=(1)(2) root=1: not recovered"]),
    # the map of (0:(0:())) gets the tree of the map of (0:()0:()): the
    # round trips, the map's statistics against its tree's interval and
    # the traced directions through that map disagree
    'map_to_tree': (parse_hypermap('n=2 sigma=(1)(2) alpha=(1 2) root=1'),
                    parse_hypermap('n=2 sigma=(1 2) alpha=(1)(2) root=1'), [
        "FAIL roundtrip-map-tree tree (0:(0:())): not recovered; "
        "map n=2 sigma=(1)(2) alpha=(1 2) root=1: not recovered",
        "FAIL theorem-stats map n=2 sigma=(1)(2) alpha=(1 2) root=1: "
        "MapStats(black=2, white=1, face=1, outdeg=2) vs "
        "IntervalStats(c00=2, c01=1, c11=0, rcont=3)",
        "FAIL trace-reversal tree (0:(0:())): "
        "['A1', 'A1'] vs reversed ['A1', 'A2']"]),
}


@pytest.mark.parametrize('name', WRONG_IMAGES)
def test_wrong_but_valid_image_fails_the_checks_that_compare_it(
        monkeypatch, name):
    # the wrong image is a valid object, so nothing raises: the checks
    # that compare it with the object or the other families fail, each
    # naming its object, and every other line stays as it was
    bad, other, failed = WRONG_IMAGES[name]
    real = getattr(verify, name)

    def wrong(obj, trace=None):
        return real(other if obj == bad else obj, trace=trace)

    monkeypatch.setattr(verify, name, wrong)
    fails = {line.split()[1]: line for line in failed}
    assert report_lines(verify_suite(6)) == [
        fails.get(line.split()[1], line) for line in SUITE_6]


def test_check_ids_are_the_check_functions_and_the_traced_list():
    # a traced benchmark run looks each id up as verify.check_<id> and
    # raises LookupError on a missing one
    ids = [r.check_id for r in verify_suite(1)]
    functions = sorted(name[len('check_'):].replace('_', '-')
                       for name, value in vars(verify).items()
                       if name.startswith('check_') and callable(value))
    assert ids == functions
    assert ids == sorted(spans.VERIFY_CHECK_IDS)
    assert len(spans.VERIFY_CHECK_IDS) == 18
    assert len(ids) == workloads.VERIFY_CHECKS


def test_benchmark_tracer_installs_and_uninstalls():
    # a traced benchmark run looks each traced function up by name, so
    # deleting or renaming one breaks it while the rest of tier 1 passes
    def traced():
        return ([cli.run] + [vars(PlanarMap)[f] for f in spans.MAP_METHODS]
                + [getattr(importlib.import_module(f'tamari_atlas.{m}'), f)
                   for m, f in spans.LAYER_FUNCTIONS])

    originals = traced()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.run(['verify', '--max-size', '3'], io.StringIO()) == 0
    finally:
        tracer.uninstall()
    assert 'enumeration.enum_maps_oracle' in {s[0] for s in tracer.spans}
    assert traced() == originals
    assert enumeration.ENUMERATE['maps'] is enum_maps_oracle
