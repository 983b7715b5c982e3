"""In-memory span recorder for the traced benchmark run.

Spans are recorded from outside the package: ``install`` replaces each
traced function with a wrapper in every ``tamari_atlas`` namespace that
binds it (``from .x import y`` binds ``y`` in each importing module, so
wrapping only the defining module would miss the calls made through the
others), and on the class for methods. ``uninstall`` puts the originals
back, so untraced passes in the same process run the unwrapped code.

A span is ``[name, parent, obj, start_ns, end_ns]``: ``parent`` is the
index of the enclosing span (-1 at top level) and ``obj`` the index of
the top-level span, i.e. of the CLI call the span belongs to. A span's
self time is its duration minus the durations of its direct children,
which cover disjoint parts of it because calls nest in one thread.
"""

from __future__ import annotations

import math
import sys
import time
from collections import Counter
from importlib import import_module

# (module, function) pairs traced under the span name ``module.function``
LAYER_FUNCTIONS = [
    ('dyck', 'is_new_interval'),
    ('trees', 'parse_degree_tree'),
    ('trees', 'find_violation'),
    ('maps', 'parse_hypermap'),
    ('maps', 'from_hypermap'),
    ('bijections', 'map_to_tree'),
    ('bijections', 'tree_to_map'),
    ('bijections', 'tree_to_interval'),
    ('bijections', 'interval_to_tree'),
    ('enumeration', 'enum_maps_oracle'),
    ('enumeration', 'enum_new_intervals'),
    ('enumeration', 'enum_degree_trees'),
    ('enumeration', 'gf_table'),
]
# PlanarMap methods traced under ``maps.<method>``
MAP_METHODS = ['find_violation', 'canonical_code']
# verify checks traced under ``verify.<id>``; the function is
# ``verify.check_<id with - as _>``
VERIFY_CHECK_IDS = [
    'bridge-agreement', 'certificate-location', 'certificate-nesting',
    'corollary-identity', 'counting', 'face-multiset', 'gf-symmetry',
    'map-sanity', 'node-label-lemma', 'one-face-specialization',
    'oracle-equivalence', 'rising-contact-labels', 'roundtrip-map-tree',
    'roundtrip-tree-interval', 'theorem-stats', 'trace-reversal',
    'trace-shape', 'upper-bracket-subtrees',
]


def cli_span_name(argv) -> str:
    """``cli.convert.tree-map``, ``cli.enumerate.trees``, ``cli.verify``."""
    if argv[0] == 'convert':
        return (f"cli.convert.{argv[argv.index('--from') + 1]}-"
                f"{argv[argv.index('--to') + 1]}")
    if argv[0] == 'enumerate':
        return f"cli.enumerate.{argv[argv.index('--family') + 1]}"
    return f"cli.{argv[0]}"


def count_cases(dt, counts: Counter):
    """Case of each edge of a map_to_tree output: A1 for a leaf edge, A2
    for an internal edge labelled 0, A3 for a positive label."""
    children = dt.tree.children
    for v in range(1, len(children)):
        if not children[v]:
            counts['bijections.cases.A1'] += 1
        elif dt.edge_labels[v - 1] == 0:
            counts['bijections.cases.A2'] += 1
        else:
            counts['bijections.cases.A3'] += 1


def _check_attr(check_id: str) -> str:
    return 'check_' + check_id.replace('-', '_')


class Tracer:
    """Records spans and exact work counts while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []  # owner, key, orig
        self._trees: list = []

    def wrap(self, fn, name, work=None):
        """Wrapper recording one span per call. ``name`` is a string or a
        function of the call's first argument; ``work(args, result)`` runs
        after the span has closed."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns
        fixed = name if isinstance(name, str) else None

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [fixed or name(args[0]),
                    stack[-1] if stack else -1,
                    spans[stack[0]][2] if stack else index, 0, 0]
            spans.append(span)
            stack.append(index)
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if work is not None:
                work(args, result)
            return result

        return wrapper

    def _oracle_work(self, args, result):
        n = args[0]
        self.counts['enumeration.enum_maps_oracle.pairs_scanned'] += (
            math.factorial(n) ** 2 if n > 0 else 0)
        self.counts['enumeration.enum_maps_oracle.kept'] += len(result)

    def _interval_work(self, args, result):
        n = args[0]
        catalan = math.comb(2 * n, n) // (n + 1)
        self.counts['enumeration.enum_new_intervals.pairs_scanned'] += \
            catalan ** 2
        self.counts['enumeration.enum_new_intervals.kept'] += len(result)

    def _tree_work(self, args, result):
        # classified in finish_counts, so that the walk does not land in
        # the self time of the enclosing spans
        self._trees.append(result)

    def _replace_everywhere(self, orig, wrapper):
        """Rebind ``orig`` to ``wrapper`` in every package module, and in
        the module-level dicts that dispatch to it (``cli._CONVERT``)."""
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != 'tamari_atlas' and \
                    not mod_name.startswith('tamari_atlas.'):
                continue
            namespaces = [vars(mod)] + [v for v in vars(mod).values()
                                        if type(v) is dict]
            for namespace in namespaces:
                for key, value in list(namespace.items()):
                    if value is orig:
                        self._undo.append((namespace, key, orig))
                        namespace[key] = wrapper

    def install(self):
        """Wrap the CLI entry point, the layer functions, the map methods
        and the verify checks of the imported package; raises LookupError
        if a verify check is missing."""
        mod = {m: import_module(f'tamari_atlas.{m}') for m in
               ('cli', 'dyck', 'trees', 'maps', 'bijections',
                'enumeration', 'verify')}
        work = {'map_to_tree': self._tree_work,
                'enum_maps_oracle': self._oracle_work,
                'enum_new_intervals': self._interval_work}
        targets = [(mod['cli'].run, cli_span_name, None)]
        targets += [(getattr(mod[m], f), f'{m}.{f}', work.get(f))
                    for m, f in LAYER_FUNCTIONS]
        missing = [c for c in VERIFY_CHECK_IDS
                   if not hasattr(mod['verify'], _check_attr(c))]
        if missing:
            raise LookupError(f'tamari_atlas.verify has no check {missing}')
        targets += [(getattr(mod['verify'], _check_attr(c)), f'verify.{c}',
                     None) for c in VERIFY_CHECK_IDS]
        for orig, name, fn_work in targets:
            self._replace_everywhere(orig, self.wrap(orig, name, fn_work))
        planar_map = mod['maps'].PlanarMap
        for attr in MAP_METHODS:
            orig = vars(planar_map)[attr]
            self._undo.append((planar_map, attr, orig))
            setattr(planar_map, attr, self.wrap(orig, f'maps.{attr}'))

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = orig
            else:
                setattr(owner, key, orig)
        self._undo.clear()

    def finish_counts(self) -> Counter:
        """Resolve the deferred case counts; returns all work counts."""
        for dt in self._trees:
            count_cases(dt, self.counts)
        self._trees.clear()
        return self.counts

    def summary(self, seconds_of) -> tuple[Counter, Counter, Counter]:
        """Per span name: total duration and self time in seconds, and
        calls. ``seconds_of`` turns a CLI call's (start, end) on the
        perf_counter clock into seconds; the spans inside the call are
        scaled as the call is."""
        child = [0] * len(self.spans)
        factor = {}
        for i, (_, parent, _, start, end) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += end - start
            else:
                span = (start / 1e9, end / 1e9)
                factor[i] = (seconds_of(span) / (span[1] - span[0])
                             if end > start else 1.0)
        total: Counter = Counter()
        self_s: Counter = Counter()
        calls: Counter = Counter()
        for i, (name, _, obj, start, end) in enumerate(self.spans):
            total[name] += (end - start) / 1e9 * factor[obj]
            self_s[name] += (end - start - child[i]) / 1e9 * factor[obj]
            calls[name] += 1
        return total, self_s, calls

    def write(self, path):
        """Write every span as a tab-separated line."""
        with open(path, 'w') as fh:
            fh.write('index\tname\tparent\tobj\tstart_ns\tend_ns\n')
            for i, (name, parent, obj, start, end) in enumerate(self.spans):
                fh.write(f'{i}\t{name}\t{parent}\t{obj}\t{start}\t{end}\n')
