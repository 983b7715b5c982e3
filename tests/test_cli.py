import io
import sys

import pytest

import tamari_atlas.cli as cli
import tamari_atlas.trees as trees
from tamari_atlas.enumeration import enum_maps_oracle
from tamari_atlas.verify import CheckResult


def run(argv, stdin=None):
    out = io.StringIO()
    if stdin is not None:
        old = cli.sys.stdin
        cli.sys.stdin = io.StringIO(stdin)
        try:
            code = cli.run(argv, out=out)
        finally:
            cli.sys.stdin = old
    else:
        code = cli.run(argv, out=out)
    return code, out.getvalue()


def test_enumerate_intervals_size_2():
    code, out = run(['enumerate', '--family', 'intervals', '--size', '2'])
    assert code == 0
    assert out == "udud;uudd\n"


def test_enumerate_with_stats():
    code, out = run(['enumerate', '--family', 'trees', '--size', '1',
                     '--with-stats'])
    assert code == 0
    assert out == "(0:())\t1 1 0 1\n"


def test_convert_worked_example():
    code, out = run(['convert', '--from', 'map', '--to', 'interval'],
                    stdin="n=1 sigma=(1) alpha=(1) root=1\n")
    assert code == 0
    assert out == "udud;uudd\n"


def test_convert_all_six_directions():
    triple = {'map': "n=2 sigma=(1 2) alpha=(1 2) root=1",
              'tree': "(1:(0:()))",
              'interval': "uuddud;uuuddd"}
    for src in triple:
        for dst in triple:
            code, out = run(['convert', '--from', src, '--to', dst],
                            stdin=triple[src] + "\n")
            assert code == 0
            assert out == triple[dst] + "\n"


def test_convert_skips_blank_and_comment_lines():
    code, out = run(['convert', '--from', 'tree', '--to', 'tree'],
                    stdin="# a comment\n\n(0:())\n")
    assert code == 0
    assert out == "(0:())\n"


def test_convert_roundtrip_byte_identical_up_to_4():
    lines = '\n'.join(m.canonical_code()
                      for n in range(0, 5) for m in enum_maps_oracle(n))
    code, as_intervals = run(['convert', '--from', 'map', '--to', 'interval'],
                             stdin=lines)
    assert code == 0
    code, back = run(['convert', '--from', 'interval', '--to', 'map'],
                     stdin=as_intervals)
    assert code == 0
    assert back == lines + '\n'


def test_stats_command():
    code, out = run(['stats', '--family', 'intervals'],
                    stdin="uuddud;uuuddd\n")
    assert code == 0
    assert out == "1 1 1 2\n"


def test_gf_command():
    code, out = run(['gf', '--family', 'maps', '--max-size', '0'])
    assert code == 0
    assert out == "0 0 1 0 1 1\n"


def test_render_dot():
    code, out = run(['render', '--format', 'dot', '--kind', 'map'],
                    stdin="n=1 sigma=(1) alpha=(1) root=1\n")
    assert code == 0
    assert out.startswith("graph") and "--" in out
    code, out = run(['render', '--format', 'dot', '--kind', 'tree'],
                    stdin="(1:(0:()))\n")
    assert code == 0
    assert 'label="1"' in out


def test_trace_command(tmp_path):
    trace_dir = tmp_path / "frames"
    code, out = run(['trace', '--from', 'tree', '--trace-dir',
                     str(trace_dir)], stdin="(1:(0:()))\n")
    assert code == 0
    lines = out.strip().split('\n')
    assert lines[-1] == "result n=2 sigma=(1 2) alpha=(1 2) root=1"
    for i, line in enumerate(lines[:-1]):
        idx, kind, rest = line.split(' ', 2)
        assert int(idx) == i
        assert rest.startswith("n=")
    assert len(list(trace_dir.iterdir())) == len(lines) - 1
    assert out == TRACE_DOUBLE_FROM_TREE
    code, out = run(['trace', '--from', 'map'],
                    stdin="n=2 sigma=(1 2) alpha=(1 2) root=1\n")
    assert code == 0
    assert out == TRACE_DOUBLE_FROM_MAP


TRACE_DOUBLE_FROM_TREE = '''\
0 embed n=2 sigma=(1)(2 3)(4) alpha=(1 2)(3 4) root=1 tags=1:T:1,3:T:0
1 A1' n=2 sigma=(1)(2 3)(4) alpha=(1 2)(3 4) root=1 tags=1:T:1,3:M
2 A3' n=2 sigma=(3 5)(4 6) alpha=(3 4)(5 6) root=5 tags=3:M,5:M
result n=2 sigma=(1 2) alpha=(1 2) root=1
'''

TRACE_DOUBLE_FROM_MAP = '''\
0 A3 n=2 sigma=(3 6)(4)(5) alpha=(3 4)(5 6) root=3 tags=3:M,5:T:1
1 prepare n=2 sigma=(3 6)(4)(5) alpha=(3 4)(5 6) root=3 tags=3:M,5:T:1
2 A1 n=2 sigma=(3 6)(4)(5) alpha=(3 4)(5 6) root=3 tags=3:T:0,5:T:1
3 backtrack n=2 sigma=(3 6)(4)(5) alpha=(3 4)(5 6) root=3 tags=3:T:0,5:T:1
4 prepare n=2 sigma=(3 6)(4)(5) alpha=(3 4)(5 6) root=3 tags=3:T:0,5:T:1
result (1:(0:()))
'''


def test_verify_command_passes():
    code, out = run(['verify', '--max-size', '2'])
    assert code == 0
    assert out.strip()
    assert all(line.startswith("PASS ") for line in out.strip().split('\n'))


def test_verify_exit_2_on_failure(monkeypatch):
    monkeypatch.setattr(cli, 'verify_suite',
                        lambda n: [CheckResult('stub', False, 'boom')])
    code, out = run(['verify', '--max-size', '2'])
    assert code == 2
    assert out == "FAIL stub boom\n"


def test_parse_failure_exits_1(capsys):
    code, _ = run(['convert', '--from', 'interval', '--to', 'map'],
                  stdin="not an interval\n")
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_invalid_tree_rejected():
    code, _ = run(['convert', '--from', 'tree', '--to', 'map'],
                  stdin="(1:())\n")
    assert code == 1


def test_unknown_flag_rejected():
    code, _ = run(['enumerate', '--family', 'maps', '--size', '1',
                   '--bogus'])
    assert code == 1


def test_missing_subcommand_rejected():
    code, _ = run([])
    assert code == 1


def test_missing_map_field_names_line(capsys):
    code, out = run(['convert', '--from', 'map', '--to', 'tree'],
                    stdin="n=2 sigma=(1 2) root=1\n")
    assert code == 1
    assert out == ""
    assert capsys.readouterr().err == \
        "error: line 1: missing field 'alpha'\n"


def test_huge_map_size_names_line(capsys):
    # the cycles are counted before a permutation of size n is allocated
    code, out = run(['convert', '--from', 'map', '--to', 'tree'],
                    stdin=f"n={10 ** 19} sigma=(1) alpha=(1) root=1\n")
    assert code == 1
    assert out == ""
    assert capsys.readouterr().err == \
        f"error: line 1: cycles '(1)' do not cover 1..{10 ** 19} exactly\n"


def test_error_names_line_past_blank_and_comment_lines(capsys):
    for argv in (['convert', '--from', 'tree', '--to', 'map'],
                 ['stats', '--family', 'trees'],
                 ['render', '--format', 'dot', '--kind', 'tree'],
                 ['trace', '--from', 'tree']):
        code, _ = run(argv, stdin="(0:())\n\n# comment\n(1:())\n")
        assert code == 1
        assert capsys.readouterr().err.startswith("error: line 4: ")


def chain(depth, maximal):
    """A path of the given depth; with ``maximal`` each leftmost label is
    as large as allowed, which is 1 everywhere but on the bottom edge."""
    labels = [1] * (depth - 1) + [0] if maximal else [0] * depth
    return '(' + ''.join(f'{a}:(' for a in labels) + ')' * (depth + 1)


# the 10**4-deep zero-label chain only takes linear time because surgery
# splices rotations in O(1)
@pytest.mark.parametrize('depth,maximal',
                         [(3000, False), (1500, True), (10 ** 4, False)])
def test_deep_chain_roundtrips(depth, maximal):
    tree = chain(depth, maximal)
    for via in ('map', 'interval'):
        code, mid = run(['convert', '--from', 'tree', '--to', via],
                        stdin=tree + "\n")
        assert code == 0
        code, back = run(['convert', '--from', via, '--to', 'tree'],
                         stdin=mid)
        assert code == 0
        assert back == tree + "\n"


@pytest.mark.parametrize('dst', ['map', 'interval'])
def test_convert_validates_each_tree_once(monkeypatch, dst):
    # count the tree checks through every module that binds the function
    plain = trees.find_violation
    calls = []

    def counted(dt):
        calls.append(dt)
        return plain(dt)

    for name, module in list(sys.modules.items()):
        if name.startswith('tamari_atlas') and \
                getattr(module, 'find_violation', None) is plain:
            monkeypatch.setattr(module, 'find_violation', counted)
    code, _ = run(['convert', '--from', 'tree', '--to', dst],
                  stdin="(1:(0:()))\n")
    assert code == 0
    assert len(calls) == 1
