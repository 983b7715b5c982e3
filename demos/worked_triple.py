"""Walk the smallest interesting example through all three families.

The double edge (two parallel edges between a black and a white vertex)
corresponds to the degree tree (1:(0:())) and to the interval
uuddud;uuuddd. This script converts it in all six directions and prints
the step trace of the map/tree bijection.
"""

from itertools import count

from tamari_atlas import (NewInterval, interval_stats, interval_to_map,
                          interval_to_tree, map_to_interval, map_to_tree,
                          parse_degree_tree, parse_hypermap,
                          tree_to_interval, tree_to_map)
from tamari_atlas.cli import tagged_map_code

double_edge = parse_hypermap("n=2 sigma=(1 2) alpha=(1 2) root=1")
tree = parse_degree_tree("(1:(0:()))")
interval = NewInterval.parse("uuddud;uuuddd")

print("map  -> tree    :", map_to_tree(double_edge))
print("map  -> interval:", map_to_interval(double_edge))
print("tree -> map     :", tree_to_map(tree))
print("tree -> interval:", tree_to_interval(tree))
print("int  -> tree    :", interval_to_tree(interval))
print("int  -> map     :", interval_to_map(interval))

print("\nstatistics transported by the bijection:")
s = double_edge.stats()
print(f"  map:      white={s.white} black={s.black} face={s.face} outdeg={s.outdeg}")
t = interval_stats(interval)
print(f"  interval: c00={t.c00}   c01={t.c01}   c11+1={t.c11 + 1} rcont-1={t.rcont - 1}")

print("\nstep trace of tree -> map:")
steps = count()
tree_to_map(tree, trace=lambda kind, w, *_: print(
    f"  {next(steps)} {kind:5s} {tagged_map_code(w)}"))
