import math

import pytest
from test_cli import run

from tamari_atlas.dyck import (DyckPath, NewInterval, bracket_vector,
                               factor_rising_contacts, interval_stats,
                               is_new_interval, iter_dyck_words,
                               rising_contacts, tamari_leq, type_word,
                               words_under)
from tamari_atlas.enumeration import (enum_degree_trees, enum_dyck,
                                      enum_new_intervals)
from tamari_atlas.trees import dyck_to_plane_tree, plane_tree_to_dyck

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430]


def test_path_validation():
    DyckPath("")
    DyckPath("uudd")
    with pytest.raises(ValueError):
        DyckPath("du")
    with pytest.raises(ValueError):
        DyckPath("uu")
    with pytest.raises(ValueError):
        DyckPath("ux")


def test_path_errors_name_the_first_fault():
    for word, message in [("dx", "falls below"), ("xd", "invalid step 'x'"),
                          ("udx", "invalid step 'x'"), ("udd", "falls below"),
                          ("uud", "does not end"), ("u", "does not end")]:
        with pytest.raises(ValueError, match=message):
            DyckPath(word)


def test_path_keeps_its_vector_out_of_comparison():
    p = DyckPath("uudd")
    assert p.vector == (1, 0)
    assert repr(p) == "DyckPath(steps='uudd')"
    assert p == DyckPath("uudd") and hash(p) == hash(DyckPath("uudd"))
    assert {p: 1}[DyckPath("uudd")] == 1


def test_bracket_vector_examples():
    assert bracket_vector(DyckPath("ud")) == (0,)
    assert bracket_vector(DyckPath("uudd")) == (1, 0)
    assert bracket_vector(DyckPath("uuuddd")) == (2, 1, 0)


def test_tamari_leq_examples():
    p = DyckPath("udud")
    assert tamari_leq(p, p)
    assert tamari_leq(DyckPath("udud"), DyckPath("uudd"))
    assert not tamari_leq(DyckPath("uudd"), DyckPath("udud"))
    with pytest.raises(ValueError):
        tamari_leq(DyckPath("ud"), DyckPath("uudd"))


def test_type_word_examples():
    assert type_word(DyckPath("ud")) == "0"
    assert type_word(DyckPath("uudd")) == "10"
    assert type_word(DyckPath("uuddud")) == "100"
    with pytest.raises(ValueError):
        type_word(DyckPath(""))


def test_type_word_ends_in_zero():
    for n in range(1, 7):
        for p in enum_dyck(n):
            assert type_word(p)[-1] == "0"


def test_type_word_matches_the_step_definition_up_to_size_8():
    # letter i is 1 iff the step after up step i is an up step
    for n in range(1, 9):
        for p in enum_dyck(n):
            ups = [k for k, ch in enumerate(p.steps) if ch == 'u']
            assert type_word(p) == ''.join(
                '1' if p.steps[k + 1] == 'u' else '0' for k in ups)


def test_rising_contacts_examples():
    assert rising_contacts(DyckPath("ud")) == 1
    assert rising_contacts(DyckPath("udud")) == 2
    assert rising_contacts(DyckPath("uuddud")) == 2
    assert rising_contacts(DyckPath("")) == 0


def test_is_new_interval_examples():
    assert is_new_interval(DyckPath("ud"), DyckPath("ud"))
    assert is_new_interval(DyckPath("udud"), DyckPath("uudd"))
    assert not is_new_interval(DyckPath("uudd"), DyckPath("uudd"))
    with pytest.raises(ValueError):
        is_new_interval(DyckPath(""), DyckPath(""))


def test_interval_stats_examples():
    def stats(text):
        s = interval_stats(NewInterval.parse(text))
        return (s.c00, s.c01, s.c11, s.rcont)

    assert stats("ud;ud") == (1, 0, 0, 1)
    assert stats("udud;uudd") == (1, 1, 0, 2)
    assert stats("uuddud;uuuddd") == (1, 1, 1, 2)


def test_interval_text_form():
    interval = NewInterval.parse("uuddud;uuuddd")
    assert str(interval) == "uuddud;uuuddd"
    with pytest.raises(ValueError):
        NewInterval.parse("udud")
    with pytest.raises(ValueError):
        NewInterval.parse("uudd;uudd")


def test_iter_dyck_words_counts_and_order():
    for n in range(0, 9):
        words = list(iter_dyck_words(n))
        assert len(words) == CATALAN[n]
        assert words == sorted(words)
        assert len(set(words)) == len(words)


def test_negative_sizes_yield_no_words():
    # the bounded search on an empty bound yields the empty word; the
    # size search must not
    assert list(words_under(())) == ['']
    assert list(iter_dyck_words(0)) == ['']
    for n in (-1, -2):
        assert list(iter_dyck_words(n)) == []
    with pytest.raises(ValueError):
        enum_dyck(-1)
    with pytest.raises(ValueError):
        enum_degree_trees(-1)


def test_enum_dyck_two():
    assert [p.steps for p in enum_dyck(2)] == ["udud", "uudd"]


def test_match_nesting_up_to_size_8():
    # matched up/down pairs never cross
    for n in range(1, 9):
        for p in enum_dyck(n):
            # (start, end) of each factor: its up step is just before start
            # and its matching down step at end
            spans = scan_factors(p)
            for a, b in spans:
                for c, d in spans:
                    if a < c:
                        assert d < b or c > b


def test_tamari_is_partial_order_up_to_size_6():
    for n in range(1, 7):
        paths = enum_dyck(n)
        vecs = [bracket_vector(p) for p in paths]
        below = []
        for v in vecs:
            mask = 0
            for j, w in enumerate(vecs):
                if all(a <= b for a, b in zip(v, w)):
                    mask |= 1 << j
            below.append(mask)
        for i, p in enumerate(paths):
            assert below[i] & (1 << i)  # reflexive
            for j in range(len(paths)):
                if below[i] & (1 << j):
                    # transitive: everything above j is above i
                    assert below[j] & ~below[i] == 0
                    if below[j] & (1 << i):
                        assert i == j  # antisymmetric
        # the relation matches tamari_leq itself on a sample
        assert tamari_leq(paths[0], paths[-1]) == bool(below[0] & (1 << (len(paths) - 1)))


def test_tamari_intervals_count_chapotons_formula_up_to_size_7():
    # Chapoton (2006): the Tamari lattice of size n has
    # 2 (4n+1)! / ((n+1)! (3n+2)!) intervals
    f = math.factorial
    counts = []
    for n in range(1, 8):
        paths = enum_dyck(n)
        counts.append(sum(tamari_leq(p, q) for p in paths for q in paths))
        assert counts[-1] == 2 * f(4 * n + 1) // (f(n + 1) * f(3 * n + 2))
    assert counts == [1, 3, 13, 68, 399, 2530, 16965]


def test_no_10_type_pair_up_to_size_7():
    for n in range(1, 8):
        for interval in enum_new_intervals(n):
            interval_stats(interval)  # raises on a (1, 0) pair


def test_rising_contacts_equal_root_degree():
    for n in range(0, 8):
        for p in enum_dyck(n):
            tree = dyck_to_plane_tree(p)
            assert rising_contacts(p) == len(tree.children[0])


def test_tree_dyck_roundtrip_up_to_size_8():
    for n in range(0, 9):
        for p in enum_dyck(n):
            tree = dyck_to_plane_tree(p)
            assert tree.node_count == p.size + 1
            assert plane_tree_to_dyck(tree) == p


def scan_factors(path):
    """(start, end) step positions of each up step's factor, found by
    scanning forward for the matching down step: a brute-force reference
    for the one-pass stack computations."""
    out = []
    for start, ch in enumerate(path.steps):
        if ch != 'u':
            continue
        height = 0
        for end in range(start, len(path.steps)):
            height += 1 if path.steps[end] == 'u' else -1
            if height == 0:
                break
        out.append((start + 1, end))
    return out


def test_one_pass_vectors_match_scan_up_to_size_8():
    for n in range(0, 9):
        for p in enum_dyck(n):
            factors = scan_factors(p)
            assert bracket_vector(p) == tuple(
                (end - start) // 2 for start, end in factors)
            assert factor_rising_contacts(p) == tuple(
                rising_contacts(DyckPath(p.steps[start:end]))
                for start, end in factors)


def test_each_path_is_checked_once(monkeypatch):
    # a path's constructor is its check
    made = []
    check = DyckPath.__init__

    def counted(self, steps):
        made.append(steps)
        check(self, steps)

    monkeypatch.setattr(DyckPath, '__init__', counted)
    # the enumerator builds one path per distinct word
    for n in range(1, 8):
        made.clear()
        intervals = enum_new_intervals(n)
        words = {p.steps for iv in intervals for p in (iv.lower, iv.upper)}
        assert sorted(made) == sorted(words)
    # each direction reads or builds two paths per interval, and checks
    # neither again
    lines = [str(iv) for iv in intervals]
    made.clear()
    code, trees = run(['convert', '--from', 'interval', '--to', 'tree'],
                      stdin='\n'.join(lines) + '\n')
    assert code == 0 and len(made) == 2 * len(lines)
    made.clear()
    code, back = run(['convert', '--from', 'tree', '--to', 'interval'],
                     stdin=trees)
    assert code == 0 and back.splitlines() == lines
    assert len(made) == 2 * len(lines)
