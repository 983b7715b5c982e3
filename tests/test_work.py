"""Growth rates as exact counts: the Python lines a layer runs, counted by
``sys.settrace`` in the package's frames, grow by about 2 per doubling of
n when the layer is linear and by about 4 when it is quadratic. Unlike a
timing, the count is the same on every machine and every run of one
Python version."""

import random
import sys

import pytest
from test_bijections import random_degree_tree
from test_cli import chain

from tamari_atlas.bijections import (interval_to_tree, map_to_tree,
                                     tree_to_interval, tree_to_map)
from tamari_atlas.maps import HypermapCode, parse_hypermap
from tamari_atlas.trees import parse_degree_tree


def work(fn, *args) -> int:
    """Line events that fn(*args) runs in tamari_atlas frames; the tracer
    set before the call is set again after it."""
    count = 0

    def line(frame, event, arg):
        nonlocal count
        count += event == 'line'
        return line

    def call(frame, event, arg):
        # the package's frames get the line counter, all others none
        name = frame.f_globals.get('__name__', '')
        return line if name.startswith('tamari_atlas') else None

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        fn(*args)
    finally:
        sys.settrace(previous)
    return count


def test_work_counts_lines_in_package_frames_only():
    previous = sys.gettrace()
    assert work(sorted, range(1000, 0, -1)) == 0
    one, two = (work(parse_degree_tree, "(" + "0:()" * k + ")")
                for k in (1, 2))
    assert 0 < one < two
    assert sys.gettrace() is previous


# each layer's call on a tree: the function and its argument
TEXT_LAYER = {
    'parse_hypermap': lambda dt: (parse_hypermap, str(tree_to_map(dt))),
    'str(HypermapCode)': lambda dt: (str, tree_to_map(dt)),
    'parse_degree_tree': lambda dt: (parse_degree_tree, str(dt)),
    'str(DegreeTree)': lambda dt: (str, dt),
}


def assert_linear(call, shape, sizes=(500, 1000, 2000)):
    """Work grows by at most 2.3 per doubling: ``call`` makes the function
    and its argument from the tree of each size of ``shape``."""
    counts = [work(*call(SHAPES[shape](n))) for n in sizes]
    ratios = [b / a for a, b in zip(counts, counts[1:])]
    assert max(ratios) <= 2.3, (counts, ratios)


def star(n, black):
    """The tree of the star with n edges at one black or one white vertex."""
    cycle, fixed = (*range(2, n + 1), 1), tuple(range(1, n + 1))
    return map_to_tree(HypermapCode(n, *((cycle, fixed) if black
                                         else (fixed, cycle)), 1))


# the tree of each shape with n edges; the maximal chain's map is the dipole
SHAPES = {
    'random': lambda n: random_degree_tree(random.Random(n), n),
    'zero-chain': lambda n: parse_degree_tree(chain(n, False)),
    'maximal-chain': lambda n: parse_degree_tree(chain(n, True)),
    'black-star': lambda n: star(n, True),
    'white-star': lambda n: star(n, False),
}


@pytest.mark.parametrize('layer', TEXT_LAYER)
def test_text_layer_work_is_linear(layer):
    assert_linear(TEXT_LAYER[layer], 'random')


# each direction's call on a tree: the function and its argument
DIRECTIONS = {
    'tree_to_map': lambda dt: (tree_to_map, dt),
    'map_to_tree': lambda dt: (map_to_tree, tree_to_map(dt)),
    'tree_to_interval': lambda dt: (tree_to_interval, dt),
    'interval_to_tree': lambda dt: (interval_to_tree, tree_to_interval(dt)),
}
# both map directions are quadratic on the maximal chain; at half the sizes
# they are cheaper to trace and still read about 4 per doubling
QUADRATIC = {('tree_to_map', 'maximal-chain'),
             ('map_to_tree', 'maximal-chain')}


@pytest.mark.parametrize('direction,shape', [
    pytest.param(direction, shape, marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 1: the map side is quadratic "
        "on a vertex of high degree"))
    if (direction, shape) in QUADRATIC else (direction, shape)
    for direction in DIRECTIONS for shape in SHAPES])
def test_bijection_work_is_linear(direction, shape):
    assert_linear(DIRECTIONS[direction], shape,
                  (250, 500, 1000) if (direction, shape) in QUADRATIC
                  else (500, 1000, 2000))
