r"""
Command-line front end.

Subcommands: enumerate, convert, stats, verify, gf, render, trace.
Objects are read and written one per line in the canonical text forms of
the library: intervals as ``<lower>;<upper>``, degree trees as
``(label:subtree ...)``, maps in the permutation-pair line format. Input
``-`` means standard input; blank lines and ``#`` comments are skipped.

Exit codes: 0 on success, 1 on parse or validation failure, 2 on
verification failure. A failure on an input line names the line, counted
from 1 over all lines of the input.

Trace step lines serialize the tagged working map on raw dart ids, since
transient states can hold an edge between two same-colored vertices:
``n=<edges> sigma=<rotation cycles over darts> alpha=<mate pairs>
root=<root corner dart or 0> tags=<edge:M or edge:T:label, comma-joined>``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import os
import sys
from typing import Iterator

from .bijections import (interval_to_map, interval_to_tree, map_to_interval,
                         map_to_tree, tree_to_interval, tree_to_map)
from .dyck import NewInterval, interval_stats
from .enumeration import ENUMERATE, gf_table, gf_table_lines
from .maps import (BLACK, HypermapCode, PlanarMap, cycles_str,
                   from_hypermap, parse_hypermap)
from .trees import degree_tree_to_dot, parse_degree_tree, tree_stats
from .verify import report_lines, verify_suite


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


# each object kind's parser; every kind comes from argparse choices
_PARSE = {'interval': NewInterval.parse, 'tree': parse_degree_tree,
          'map': parse_hypermap}


def _each_object(path: str, kind: str, fn) -> Iterator:
    """fn(object) for each object line of the input, parsed as ``kind``;
    a ValueError from either names the line (a failed read does not)."""
    # as through stdin in UTF-8 mode on POSIX, a line ends at \n only and
    # an undecodable byte reaches the parser, which names its line
    stream = (sys.stdin if path == '-' else open(
        path, encoding='utf-8', errors='surrogateescape', newline='\n'))
    try:
        for number, line in enumerate(stream, 1):
            line = line.strip()
            if line and not line.startswith('#'):
                try:
                    result = fn(_PARSE[kind](line))
                except ValueError as exc:
                    raise ValueError(f"line {number}: {exc}") from exc
                yield result
    finally:
        if stream is not sys.stdin:
            stream.close()


_CONVERT = {
    ('interval', 'tree'): interval_to_tree,
    ('interval', 'map'): interval_to_map,
    ('tree', 'interval'): tree_to_interval,
    ('tree', 'map'): tree_to_map,
    ('map', 'interval'): map_to_interval,
    ('map', 'tree'): map_to_tree,
}

_FAMILY_KIND = {'intervals': 'interval', 'trees': 'tree', 'maps': 'map'}

# each kind's stats record is a tuple in the order that the output prints
_STATS = {'interval': interval_stats, 'tree': tree_stats,
          'map': HypermapCode.stats}


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog='tamari-atlas')
    sub = parser.add_subparsers(dest='command', required=True)

    p = sub.add_parser('enumerate', description='Stream all objects of a '
                       'family at one size, one per line.')
    p.add_argument('--family', required=True, choices=sorted(_FAMILY_KIND))
    p.add_argument('--size', required=True, type=int)
    p.add_argument('--with-stats', action='store_true',
                   help='append the statistic tuple after a tab')

    p = sub.add_parser('convert', description='Apply a bijection to each '
                       'input object.')
    p.add_argument('--from', dest='src', required=True, choices=list(_PARSE))
    p.add_argument('--to', dest='dst', required=True, choices=list(_PARSE))
    p.add_argument('--input', default='-')

    p = sub.add_parser('stats', description='Print the statistic tuple of '
                       'each input object.')
    p.add_argument('--family', required=True, choices=sorted(_FAMILY_KIND))
    p.add_argument('--input', default='-')

    p = sub.add_parser('verify', description='Run the verification suite.')
    p.add_argument('--max-size', required=True, type=int)

    p = sub.add_parser('gf', description='Dump a generating-function '
                       'coefficient table as sorted "n i j k l count" lines.')
    p.add_argument('--family', required=True, choices=['intervals', 'maps'])
    p.add_argument('--max-size', required=True, type=int)

    p = sub.add_parser('render', description='Emit dot source for each '
                       'input object.')
    p.add_argument('--format', required=True, choices=['dot'])
    p.add_argument('--kind', required=True, choices=['tree', 'map'])
    p.add_argument('--input', default='-')

    p = sub.add_parser('trace', description='Run a map/tree bijection with '
                       'one line per step; the last line carries the result.')
    p.add_argument('--from', dest='src', required=True,
                   choices=['tree', 'map'])
    p.add_argument('--input', default='-')
    p.add_argument('--trace-dir', default=None,
                   help='write one dot frame per step into this directory')
    return parser


def tagged_map_code(m: PlanarMap) -> str:
    """Dart-level serialization of a tagged working map."""
    darts = m.darts()
    if not darts:
        return "n=0"
    ids = range(1, darts[-1] + 1)
    rotation, mate = [m.next_cw(d) for d in ids], [m.mate(d) for d in ids]
    tags = []
    for d in darts:
        if d < m.mate(d):
            tag = m.tag_of(d)
            if tag == 'T':
                tags.append(f"{d}:T:{m.edge_label(d)}")
            elif tag is not None:
                tags.append(f"{d}:{tag}")
    root = m.root_corner if m.root_corner is not None else 0
    text = (f"n={len(darts) // 2} sigma={cycles_str(rotation, darts)} "
            f"alpha={cycles_str(mate, darts)} root={root}")
    if tags:
        text += " tags=" + ','.join(tags)
    return text


def tagged_map_dot(m: PlanarMap) -> str:
    """Graphviz rendering: filled black vertices, open white ones, the
    root corner marked on its vertex, each tagged edge labelled."""
    lines = ["graph planar_map {", "  node [shape=circle];"]
    for v in m.vertices():
        fill = "black, fontcolor=white" if m.color(v) == BLACK else "white"
        mark = ", peripheries=2" if v == m.root_vertex() else ""
        lines.append(f'  v{v} [label="{v}", style=filled, '
                     f'fillcolor={fill}{mark}];')
    for d in m.darts():
        if d < m.mate(d):
            tag = m.tag_of(d)
            text = f"{tag}{m.edge_label(d)}" if tag == 'T' else tag
            attr = f' [label="{text}"]' if tag else ""
            lines.append(f"  v{m.vertex_of(d)} -- "
                         f"v{m.vertex_of(m.mate(d))}{attr};")
    return '\n'.join(lines + ["}"])


def _cmd_enumerate(args, out) -> int:
    kind = _FAMILY_KIND[args.family]
    for obj in ENUMERATE[args.family](args.size):
        line = str(obj)
        if args.with_stats:
            line += '\t' + ' '.join(map(str, _STATS[kind](obj)))
        print(line, file=out)
    return 0


def _cmd_convert(args, out) -> int:
    # a parsed object is canonical, so one family converts to itself as is
    fn = _CONVERT.get((args.src, args.dst), lambda x: x)
    for result in _each_object(args.input, args.src, fn):
        print(result, file=out)
    return 0


def _cmd_stats(args, out) -> int:
    kind = _FAMILY_KIND[args.family]
    for stats in _each_object(args.input, kind, _STATS[kind]):
        print(' '.join(map(str, stats)), file=out)
    return 0


def _cmd_verify(args, out) -> int:
    results = verify_suite(args.max_size)
    for line in report_lines(results):
        print(line, file=out)
    return 0 if all(r.ok for r in results) else 2


def _cmd_gf(args, out) -> int:
    for line in gf_table_lines(gf_table(args.family, args.max_size)):
        print(line, file=out)
    return 0


def _cmd_render(args, out) -> int:
    dot = ((lambda code: tagged_map_dot(from_hypermap(code)))
           if args.kind == 'map' else degree_tree_to_dot)
    for text in _each_object(args.input, args.kind, dot):
        print(text, file=out)
    return 0


def _cmd_trace(args, out) -> int:
    if args.trace_dir is not None:
        os.makedirs(args.trace_dir, exist_ok=True)
    fn = map_to_tree if args.src == 'map' else tree_to_map
    objects = itertools.count()

    def traced(obj):
        obj_index, steps = next(objects), itertools.count()

        def show(kind, w, *_):
            i = next(steps)
            print(f"{i} {kind} {tagged_map_code(w)}", file=out)
            if args.trace_dir is not None:
                frame = os.path.join(args.trace_dir,
                                     f"obj{obj_index}_step{i:03d}.dot")
                with open(frame, 'w') as fh:
                    fh.write(tagged_map_dot(w) + '\n')

        return fn(obj, trace=show)

    for result in _each_object(args.input, args.src, traced):
        print(f"result {result}", file=out)
    return 0


_COMMANDS = {
    'enumerate': _cmd_enumerate,
    'convert': _cmd_convert,
    'stats': _cmd_stats,
    'verify': _cmd_verify,
    'gf': _cmd_gf,
    'render': _cmd_render,
    'trace': _cmd_trace,
}


def run(argv: list[str], out=None) -> int:
    """Run one command line and return its exit code; never raises
    SystemExit. Results and -h/--help go to ``out`` (sys.stdout if None),
    errors to stderr, and ``-`` reads sys.stdin. The parser is built on
    the first call and reused for the rest of the process."""
    out = out if out is not None else sys.stdout
    try:
        with contextlib.redirect_stdout(out):  # where -h/--help prints
            args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args, out)
    except SystemExit as exc:  # only -h/--help exits; errors raise CliError
        return exc.code
    except (CliError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == '__main__':
    main()
