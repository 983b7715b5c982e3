"""Growth rates as exact counts: the Python lines a layer runs, counted by
``sys.settrace`` in the package's frames, grow by about 2 per doubling of
n when the layer is linear and by about 4 when it is quadratic. Unlike a
timing, the count is the same on every machine and every run of one
Python version."""

import random
import sys

import pytest
from test_bijections import random_degree_tree

from tamari_atlas.bijections import tree_to_map
from tamari_atlas.maps import parse_hypermap
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


@pytest.mark.parametrize('layer', TEXT_LAYER)
def test_text_layer_work_is_linear(layer):
    counts = []
    for n in (500, 1000, 2000):
        fn, arg = TEXT_LAYER[layer](random_degree_tree(random.Random(n), n))
        counts.append(work(fn, arg))
    ratios = [b / a for a, b in zip(counts, counts[1:])]
    assert max(ratios) <= 2.3, (counts, ratios)
