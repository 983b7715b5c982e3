from collections import Counter

import pytest

from tamari_atlas import verify
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


def test_suite_rejects_bad_bound():
    with pytest.raises(ValueError):
        verify_suite(0)


def test_suite_builds_each_map_size_once_per_call(monkeypatch):
    built = Counter()
    real = verify.enum_maps_oracle

    def counting(n):
        built[n] += 1
        return real(n)

    monkeypatch.setattr(verify, 'enum_maps_oracle', counting)
    assert all(r.ok for r in verify_suite(6))
    assert built == {n: 1 for n in range(0, 7)}
    # nothing is kept between calls: a second call builds every size again
    assert all(r.ok for r in verify_suite(6))
    assert built == {n: 2 for n in range(0, 7)}
