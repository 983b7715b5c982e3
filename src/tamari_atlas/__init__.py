r"""
Bijections between new Tamari intervals, degree trees and rooted
bipartite planar maps, with exhaustive enumerators, exact counting and a
verification suite.
"""

from .dyck import (DyckPath, IntervalStats, NewInterval, bracket_vector,
                   interval_stats, is_new_interval, iter_dyck_words,
                   rising_contacts, tamari_leq, type_word)
from .trees import (DegreeTree, PlaneTree, TreeStats, degree_tree_to_dot,
                    dyck_to_plane_tree, node_labels, parse_degree_tree,
                    plane_tree_to_dyck, tree_from_nested, tree_stats)
from .maps import (BLACK, WHITE, HypermapCode, MapStats, PlanarMap,
                   from_hypermap, parse_hypermap)
from .bijections import (CertificateAssignment, certificates, interval_to_map,
                         interval_to_tree, map_to_interval, map_to_tree,
                         tree_to_interval, tree_to_map)
from .enumeration import (count_formula, enum_degree_trees, enum_dyck,
                          enum_maps_oracle, enum_new_intervals, gf_table,
                          gf_table_lines)
from .verify import CheckResult, report_lines, verify_suite

__all__ = [
    "DyckPath", "IntervalStats", "NewInterval", "bracket_vector",
    "interval_stats", "is_new_interval", "iter_dyck_words",
    "rising_contacts", "tamari_leq", "type_word",
    "DegreeTree", "PlaneTree", "TreeStats", "degree_tree_to_dot",
    "dyck_to_plane_tree", "node_labels", "parse_degree_tree",
    "plane_tree_to_dyck", "tree_from_nested", "tree_stats",
    "BLACK", "WHITE", "HypermapCode", "MapStats", "PlanarMap",
    "from_hypermap", "parse_hypermap",
    "CertificateAssignment", "certificates", "interval_to_map",
    "interval_to_tree", "map_to_interval", "map_to_tree", "tree_to_interval",
    "tree_to_map",
    "count_formula", "enum_degree_trees", "enum_dyck", "enum_maps_oracle",
    "enum_new_intervals", "gf_table", "gf_table_lines",
    "CheckResult", "report_lines", "verify_suite",
]

__version__ = "0.1.0"
