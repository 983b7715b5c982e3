"""The three benchmark workloads: their inputs, one pass through the CLI,
and the correctness gate of each pass.

Every call goes through ``tamari_atlas.cli.run(argv, out)`` in-process,
one call at a time (a closed loop with one caller). Input lines are fed
through a replaced ``sys.stdin``, output is collected in memory. A pass
is timed inside the CLI calls only; the gates run outside the timed part.

- ``corpus``: ``enumerate`` trees of size 7 and intervals of size 8
  (9152 objects each), chained through the four primitive ``convert``
  directions: tree -> map -> tree and interval -> tree -> interval.
- ``large``: seeded random degree trees at n = 1000 and n = 2000, each
  through tree -> map -> tree and tree -> interval -> tree, one object per
  call.
- ``verify``: ``verify --max-size 6``.
"""

from __future__ import annotations

import io
import math
import random
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

CORPUS_TREE_SIZE = 7
LARGE_SIZES = (1000, 2000)
LARGE_PER_SIZE = 2
VERIFY_MAX_SIZE = 6
VERIFY_CHECKS = 18


@dataclass
class PassResult:
    """One pass: the perf_counter (start, end) of each CLI call by label,
    and the operations attempted and failed."""

    times: dict[str, tuple[float, float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0


def call(cli, argv: list[str], lines: list[str] | None = None):
    """Run one CLI command; returns (exit code, output lines, (start,
    end) of the call on the perf_counter clock).

    A command that raises counts as exit code -1, so a crash fails the
    operation without ending the benchmark."""
    out = io.StringIO()
    stdin = sys.stdin
    if lines is not None:
        sys.stdin = io.StringIO(''.join(line + '\n' for line in lines))
    start = time.perf_counter()
    try:
        code = cli.run(argv, out)
    except Exception as exc:  # a crash is a failed operation, not the end
        print(f"bench: {' '.join(argv)} raised {exc!r}", file=sys.stderr)
        code = -1
    finally:
        end = time.perf_counter()
        sys.stdin = stdin
    return code, out.getvalue().splitlines(), (start, end)


def new_interval_count(n: int) -> int:
    """Closed-form number of new intervals of size n >= 2."""
    return (3 * 2 ** (n - 2) * math.factorial(2 * n - 2)
            // (math.factorial(n - 1) * math.factorial(n + 1)))


def _wrong(code: int, got: list[str], want: list[str]) -> int:
    """Objects of one step that failed: all of them on a non-zero exit,
    else positional mismatches plus missing or extra lines."""
    if code != 0:
        return len(want)
    bad = sum(a != b for a, b in zip(got, want)) + abs(len(got) - len(want))
    return min(bad, len(want))


def _miscounted(code: int, got, count: int) -> int:
    """Objects of one step that failed when only the count is known."""
    return count if code != 0 else min(count, abs(len(got) - count))


# -- large: seeded random degree trees ---------------------------------------

def random_dyck_steps(rng: random.Random, n: int) -> list[int]:
    """Uniform Dyck word of size n as +1/-1 steps, by the cycle lemma:
    shuffle n up and n + 1 down steps, rotate to start just after the first
    minimum of the prefix sums, and drop the final down step."""
    steps = [1] * n + [-1] * (n + 1)
    rng.shuffle(steps)
    height, low, cut = 0, 0, 0
    for i, s in enumerate(steps):
        height += s
        if height < low:
            low, cut = height, i + 1
    steps = steps[cut:] + steps[:cut]
    steps.pop()
    return steps


def random_degree_tree(rng: random.Random, n: int) -> str:
    """Text form of a random degree tree with n edges.

    The shape is a uniform plane tree (from a uniform Dyck word); every
    leftmost edge then gets a uniform admissible label, bottom-up, from
    0 up to the derived label of the child below it. Built here, without
    the package, so that the inputs stay independent of the code under
    test."""
    children: list[list[int]] = [[]]
    path = [0]
    for s in random_dyck_steps(rng, n):
        if s > 0:
            children.append([])
            children[path[-1]].append(len(children) - 1)
            path.append(len(children) - 1)
        else:
            path.pop()
    node_label = [0] * len(children)
    edge_label = [0] * len(children)
    for v in reversed(range(len(children))):
        kids = children[v]
        if kids:
            a = rng.randint(0, node_label[kids[0]])
            edge_label[kids[0]] = a
            node_label[v] = len(kids) - a + sum(node_label[c] for c in kids)
    out = ['(']
    stack = [[0, 0]]                 # (node, index of the next child)
    while stack:
        top = stack[-1]
        kids = children[top[0]]
        if top[1] < len(kids):
            c = kids[top[1]]
            top[1] += 1
            out.append(f'{edge_label[c]}:(')
            stack.append([c, 0])
        else:
            out.append(')')
            stack.pop()
    return ''.join(out)


def large_inputs(seed: int) -> list[tuple[int, str]]:
    """LARGE_PER_SIZE trees per size, sizes interleaved so that both see
    the same machine conditions."""
    rng = random.Random(seed)
    return [(n, random_degree_tree(rng, n))
            for _ in range(LARGE_PER_SIZE) for n in LARGE_SIZES]


def large_pass(cli, inputs) -> PassResult:
    result = PassResult()
    for i, (n, tree) in enumerate(inputs):
        label = f'n{n}.{i}'
        code1, maps, result.times[f'{label}.tree-map'] = call(
            cli, ['convert', '--from', 'tree', '--to', 'map'], [tree])
        code2, back, result.times[f'{label}.map-tree'] = call(
            cli, ['convert', '--from', 'map', '--to', 'tree'], maps)
        code3, ivs, result.times[f'{label}.tree-interval'] = call(
            cli, ['convert', '--from', 'tree', '--to', 'interval'], [tree])
        code4, back2, result.times[f'{label}.interval-tree'] = call(
            cli, ['convert', '--from', 'interval', '--to', 'tree'], ivs)
        # each round trip is two operations; a mismatch fails both
        result.attempted += 4
        result.failed += 2 * ((code1, code2, back) != (0, 0, [tree]))
        result.failed += 2 * ((code3, code4, back2) != (0, 0, [tree]))
    return result


def large_figures(times: dict[str, float]) -> dict[str, tuple[float, str]]:
    per_obj = {n: sum(t for k, t in times.items() if k.startswith(f'n{n}.'))
               / LARGE_PER_SIZE for n in LARGE_SIZES}
    small, big = LARGE_SIZES
    figures = {
        'convert_obj_per_s': (len(times) / sum(times.values()), '1/s'),
        'growth_exponent': (math.log2(per_obj[big] / per_obj[small]),
                            'log2'),
    }
    figures.update({f'convert_s_per_obj.n{n}': (per_obj[n], 's')
                    for n in LARGE_SIZES})
    return figures


# -- corpus: the exhaustive desk-scale corpus ---------------------------------

CORPUS_COUNT = new_interval_count(CORPUS_TREE_SIZE + 1)
def corpus_pass(cli, inputs) -> PassResult:
    size = CORPUS_TREE_SIZE
    count = CORPUS_COUNT
    t = {}
    code1, trees, t['enumerate.trees'] = call(
        cli, ['enumerate', '--family', 'trees', '--size', str(size)])
    code2, intervals, t['enumerate.intervals'] = call(
        cli, ['enumerate', '--family', 'intervals', '--size', str(size + 1)])
    code3, maps, t['convert.tree-map'] = call(
        cli, ['convert', '--from', 'tree', '--to', 'map'], trees)
    code4, trees_back, t['convert.map-tree'] = call(
        cli, ['convert', '--from', 'map', '--to', 'tree'], maps)
    code5, trees_of_iv, t['convert.interval-tree'] = call(
        cli, ['convert', '--from', 'interval', '--to', 'tree'], intervals)
    code6, iv_back, t['convert.tree-interval'] = call(
        cli, ['convert', '--from', 'tree', '--to', 'interval'], trees_of_iv)
    result = PassResult(t, attempted=6 * count)
    # the enumerations and tree -> map must give the closed-form count of
    # distinct lines; their content is checked by the chains that follow
    result.failed += _miscounted(code1, set(trees), count)
    result.failed += _miscounted(code2, set(intervals), count)
    result.failed += _miscounted(code3, maps, count)
    result.failed += _wrong(code4, trees_back, trees)
    # the bijection's image must be the independently enumerated trees
    result.failed += count if code5 else min(
        count, len(set(trees_of_iv) ^ set(trees))
        + abs(len(trees_of_iv) - count))
    result.failed += _wrong(code6, iv_back, intervals)
    return result


def corpus_figures(times: dict[str, float]) -> dict[str, tuple[float, str]]:
    enum_s = sum(t for k, t in times.items() if k.startswith('enumerate.'))
    conv_s = sum(t for k, t in times.items() if k.startswith('convert.'))
    return {'enumerate_obj_per_s': (2 * CORPUS_COUNT / enum_s, '1/s'),
            'convert_obj_per_s': (4 * CORPUS_COUNT / conv_s, '1/s')}


# -- verify: the verification suite ------------------------------------------

def verify_pass(cli, inputs) -> PassResult:
    code, lines, span = call(cli, ['verify', '--max-size',
                                   str(VERIFY_MAX_SIZE)])
    passed = sum(line.startswith('PASS ') for line in lines)
    failed = VERIFY_CHECKS - min(passed, VERIFY_CHECKS)
    if code != 0 or len(lines) != VERIFY_CHECKS:
        failed = max(failed, 1)
    return PassResult({'verify': span}, VERIFY_CHECKS, failed)


def verify_figures(times: dict[str, float]) -> dict[str, tuple[float, str]]:
    return {'verify_s': (times['verify'], 's')}


@dataclass(frozen=True)
class Workload:
    make_inputs: Callable | None    # seed -> inputs; None if nothing seeded
    run_pass: Callable              # (cli module, inputs) -> PassResult
    figures: Callable   # seconds by call label -> {name: (value, unit)}


WORKLOADS = {
    'corpus': Workload(None, corpus_pass, corpus_figures),
    'large': Workload(large_inputs, large_pass, large_figures),
    'verify': Workload(None, verify_pass, verify_figures),
}
