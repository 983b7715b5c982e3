import io
import os
import subprocess
import sys

import pytest

import tamari_atlas.cli as cli
import tamari_atlas.maps as maps
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
    lines = '\n'.join(str(code)
                      for n in range(0, 5) for code in enum_maps_oracle(n))
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


@pytest.mark.parametrize('family,size', [('maps', -5), ('intervals', 0)])
def test_gf_rejects_sizes_with_no_family(capsys, family, size):
    code, out = run(['gf', '--family', family, '--max-size', str(size)])
    assert code == 1
    assert out == ''
    least = 0 if family == 'maps' else 1
    assert capsys.readouterr().err == \
        f"error: {family} need size >= {least}\n"


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


def fresh_python(args, stdin=''):
    """``python *args`` in a new process that imports this package."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return subprocess.run([sys.executable, *args], input=stdin, timeout=60,
                          capture_output=True, text=True,
                          env={**os.environ, 'PYTHONPATH': src})


def test_run_builds_the_parser_once_and_not_at_import():
    # parsers made after the import, then after three calls: one
    # top-level parser and one per subcommand, all on the first call
    script = ("import argparse, io\n"
              "made = []\n"
              "init = argparse.ArgumentParser.__init__\n"
              "def counted(self, *args, **kwargs):\n"
              "    made.append(type(self).__name__)\n"
              "    init(self, *args, **kwargs)\n"
              "argparse.ArgumentParser.__init__ = counted\n"
              "import tamari_atlas.cli as cli\n"
              "print(made)\n"
              "for size in '234':\n"
              "    cli.run(['enumerate', '--family', 'trees', '--size', size],\n"
              "            io.StringIO())\n"
              "print(made)\n")
    done = fresh_python(['-c', script])
    parsers = ['_Parser'] * (1 + len(cli._COMMANDS))
    assert done.stdout == f"[]\n{parsers}\n", done.stderr


def test_cached_parser_keeps_no_state_between_calls(capsys):
    # each call, made in turn in this process, reads as in a new process
    calls = [(['convert', '--from', 'bogus', '--to', 'tree'], ''),
             (['convert', '--from', 'tree', '--to', 'interval'],
              "(1:(0:()))\n"),
             (['stats', '--input', '-'], ''),
             (['enumerate', '--family', 'intervals', '--size', '3'], '')]
    results = []
    for argv, stdin in calls:
        code, out = run(argv, stdin)
        results.append((code, out, capsys.readouterr().err))
    assert [code for code, _, _ in results] == [1, 0, 1, 0]
    assert results[0][1] == '' and 'invalid choice' in results[0][2]
    assert results[1][1] == "uuddud;uuuddd\n"
    for (argv, stdin), result in zip(calls, results):
        done = fresh_python(['-m', 'tamari_atlas.cli', *argv], stdin)
        assert result == (done.returncode, done.stdout, done.stderr)


@pytest.mark.parametrize('argv', [['--help'], ['-h']]
                         + [[command, '--help'] for command in cli._COMMANDS],
                         ids=' '.join)
def test_help_goes_to_out_and_exits_0(capsys, argv):
    code, out = run(argv)
    assert code == 0
    assert out.startswith(f"usage: tamari-atlas {' '.join(argv[:-1])}")
    assert capsys.readouterr() == ('', '')


def test_missing_map_field_names_line(capsys):
    # a field may be missing or repeated; either rejects the line
    for text, message in [
            ("n=2 sigma=(1 2) root=1", "missing field 'alpha'"),
            ("n=2 n=1 sigma=(1) alpha=(1) root=1", "duplicate field 'n'"),
            ("n=2 sigma=(1 2) alpha=(1 2) root=1 root=2",
             "duplicate field 'root'")]:
        code, out = run(['convert', '--from', 'map', '--to', 'tree'],
                        stdin=f"n=1 sigma=(1) alpha=(1) root=1\n{text}\n")
        assert code == 1
        assert out == "(0:())\n"
        assert capsys.readouterr().err == f"error: line 2: {message}\n"


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


@pytest.mark.parametrize('src,text,result', [
    ('map', 'root=2\tn=3\ralpha=(3 1)  (2)\r\t sigma=(1 2 3)\r\n',
     (0, 'n=3 sigma=(1 2 3) alpha=(1)(2 3) root=1\n')),
    ('tree', '(0:())\r(1:(0:()))\n', (1, '')),
], ids=['map', 'tree'])
def test_input_file_and_stdin_end_lines_alike(tmp_path, src, text, result):
    # both sources end a line at \n only, so \r is a blank inside a line
    path = tmp_path / 'objects.txt'
    path.write_bytes(text.encode())
    argv = ['-m', 'tamari_atlas.cli', 'convert', '--from', src, '--to', src]
    piped = fresh_python(argv, text)
    read = fresh_python([*argv, '--input', str(path)])
    assert (piped.returncode, piped.stdout) == result, piped.stderr
    assert (read.returncode, read.stdout, read.stderr) == \
        (piped.returncode, piped.stdout, piped.stderr)


@pytest.mark.parametrize('src,dst,lines,first', [
    ('tree', 'map', b'(0:())\n(\xff0:())\n',
     'n=1 sigma=(1) alpha=(1) root=1'),
    ('interval', 'tree', b'udud;uudd\nu\xffd;ud\n', '(0:())'),
    ('map', 'tree', b'n=1 sigma=(1) alpha=(1) root=1\n'
     b'n=1 sigma=(\xff1) alpha=(1) root=1\n', '(0:())'),
], ids=['tree', 'interval', 'map'])
def test_undecodable_input_file_names_its_line(capsys, tmp_path, src, dst,
                                               lines, first):
    # a byte that is not UTF-8 reaches the parser, which rejects its line
    # as it does through stdin, after the lines before it are converted
    path = tmp_path / 'objects.txt'
    path.write_bytes(lines)
    code, out = run(['convert', '--from', src, '--to', dst,
                     '--input', str(path)])
    assert code == 1
    assert out == first + '\n'
    assert capsys.readouterr().err.startswith("error: line 2: ")


# one bad line of about 10**4 steps or edges per message that once
# quoted the whole line, then numbers that were once accepted and printed
# back differently: a sign, leading zeros, non-ASCII digits
_EDGES = ' '.join(map(str, range(1, 5000)))


@pytest.mark.parametrize('src,line', [
    ('interval', 'du' * 5000 + ';ud'),
    ('interval', 'u' * 10 ** 4 + ';ud'),
    ('interval', 'ud' * 5000 + ';' + 'ud' * 5000),
    ('map', f"n=5000 sigma=({_EDGES}) alpha=(1) root=1"),
    ('map', f"x n=5000 sigma=({_EDGES}) alpha=({_EDGES}) root=1"),
    ('map', "n=01 sigma=(+1) alpha=(1) root=1"),
    ('map', "n=1 sigma=(1) alpha=(1) root=+1"),
    ('map', "n=\u0661 sigma=(\u0661) alpha=(1) root=1"),
    ('tree', "(00:())"),
    ('tree', "(\u0662:(\u0660:()\u0660:()))"),
    ('tree', f"({'1' * 4000}:())"),
    ('tree', f"(0:({'1' * 4000}:()))"),
    ('map', f"n=1 sigma=({'1' * 4000}) alpha=(1) root=1"),
    ('map', f"n={'1' * 4000} sigma=(1) alpha=(1) root=1"),
    ('map', "n=1 sigma=(1) alpha=(1) root=1 extra")],
    ids=['falls-below', 'off-axis', 'not-new', 'cycles-cover', 'malformed',
         'padded-signed-map', 'signed-root', 'arabic-indic-map',
         'padded-label', 'arabic-indic-tree', 'huge-label-tree',
         'huge-label-below', 'huge-point-map', 'huge-size-map',
         'trailing-root-text'])
def test_long_bad_line_gets_a_short_error(capsys, src, line):
    code, out = run(['convert', '--from', src, '--to', 'tree'],
                    stdin=line + '\n')
    assert code == 1
    assert out == ''
    err = capsys.readouterr().err
    assert err.startswith('error: line 1: ')
    assert len(err.encode()) < 300, err[:100]


@pytest.mark.parametrize('line,message', [
    ('n=-1', "n must be non-negative"),
    ('n=-1 sigma=() alpha=() root=1', "n must be non-negative"),
    ('n=0 sigma=(1 2) root=7', "the edgeless map is written 'n=0' alone")],
    ids=['negative', 'negative-with-fields', 'edgeless-with-fields'])
def test_map_text_reads_n_first(capsys, line, message):
    code, out = run(['convert', '--from', 'map', '--to', 'tree'],
                    stdin=line + '\n')
    assert code == 1
    assert out == ''
    assert capsys.readouterr().err == f"error: line 1: {message}\n"


@pytest.mark.parametrize('src,line,message', [
    ('tree', "(1 0:(" + "0:()" * 10 + "))",
     "whitespace inside a label in degree tree text"),
    ('map', "n=1 sigma=(1) alpha=(1) root=1 extra",
     "root '1 extra' is not one of 0, 1, 2, ..."),
    ('map', f"n=1 sigma=({'1' * 4000}) alpha=(1) root=1",
     f"bad cycle notation at point {'1' * 20}")],
    ids=['space-in-label', 'trailing-root-text', 'huge-point'])
def test_bad_number_message(capsys, src, line, message):
    # whitespace may not split a label; a quoted number is cut at 20
    # characters
    first = "(0:())" if src == 'tree' else "n=1 sigma=(1) alpha=(1) root=1"
    code, out = run(['convert', '--from', src, '--to', 'tree'],
                    stdin=f"{first}\n{line}\n")
    assert code == 1
    assert out == "(0:())\n"
    assert capsys.readouterr().err == f"error: line 2: {message}\n"


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


@pytest.mark.parametrize('src,lines', [
    ('map', ["n=2 sigma=(1 2) alpha=(1 2) root=1",
             "n=2 sigma=(2)(1) alpha=(2 1) root=2"]),
    ('tree', ["(1:(0:()))", "(0:(0:()))"])], ids=['map-tree', 'tree-map'])
def test_convert_validates_each_map_once(monkeypatch, src, lines):
    # map -> tree checks the parsed code, tree -> map the code it builds;
    # neither runs the dart-level check of PlanarMap. A code's constructor
    # is its check
    code_checks, map_checks = [], []
    plain_code_check = maps.HypermapCode.__init__
    plain_map_check = maps.PlanarMap.find_violation

    def counted_code_check(code, *fields):
        code_checks.append(code)
        plain_code_check(code, *fields)

    def counted_map_check(m):
        map_checks.append(m)
        return plain_map_check(m)

    monkeypatch.setattr(maps.HypermapCode, '__init__', counted_code_check)
    monkeypatch.setattr(maps.PlanarMap, 'find_violation', counted_map_check)
    dst = 'tree' if src == 'map' else 'map'
    code, out = run(['convert', '--from', src, '--to', dst],
                    stdin=''.join(line + '\n' for line in lines))
    assert code == 0
    assert len(out.splitlines()) == len(lines)
    assert len(code_checks) == len(lines)
    assert map_checks == []


@pytest.mark.parametrize('src,dst', [('tree', 'map'), ('map', 'tree'),
                                     ('map', 'map')])
def test_convert_searches_each_map_once(monkeypatch, src, dst):
    # the code's check is the one breadth-first search per map: neither
    # to_hypermap nor the CLI runs a second one
    plain = maps.bfs_edge_order
    calls = []

    def counted(*args):
        calls.append(args)
        return plain(*args)

    monkeypatch.setattr(maps, 'bfs_edge_order', counted)
    lines = {'tree': ["(1:(0:()))", "(0:(0:()))", "(1:(0:())0:())"],
             'map': ["n=2 sigma=(1 2) alpha=(1 2) root=1",
                     "n=2 sigma=(2)(1) alpha=(2 1) root=2",
                     "n=3 sigma=(3 1)(2) alpha=(2 3)(1) root=3"]}[src]
    code, out = run(['convert', '--from', src, '--to', dst],
                    stdin=''.join(line + '\n' for line in lines))
    assert code == 0
    assert len(out.splitlines()) == len(lines)
    assert len(calls) == len(lines)


def test_convert_map_to_map_prints_the_canonical_code():
    code, out = run(['convert', '--from', 'map', '--to', 'map'],
                    stdin="n=2 sigma=(2)(1) alpha=(2 1) root=2\n")
    assert code == 0
    assert out == "n=2 sigma=(1)(2) alpha=(1 2) root=1\n"


def test_trace_from_map_reads_text_as_its_canonical_code(tmp_path):
    # two texts of one rooted map: the same steps, ids and frames
    outs = []
    for i, text in enumerate(["n=3 sigma=(3 1)(2) alpha=(2 3)(1) root=3",
                              "n=3 sigma=(1 2)(3) alpha=(1 3)(2) root=1"]):
        frames = tmp_path / str(i)
        code, out = run(['trace', '--from', 'map', '--trace-dir',
                         str(frames)], stdin=text + "\n")
        assert code == 0
        outs.append((out, {f.name: f.read_text()
                           for f in frames.iterdir()}))
    assert outs[0] == outs[1]
    assert outs[0][0].splitlines()[-1].startswith("result (")
