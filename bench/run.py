"""tamari-atlas benchmark: one workload per invocation, in one process.

    python3 bench/run.py --workload corpus --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload large --seed 1 --seconds 30 --trace 1
    python3 bench/run.py --write-config

A run imports the package from ``src/`` of the checkout and repeats the
workload's pass for ``--seconds``. With ``--trace 0`` it reports the
end-to-end metrics. With ``--trace 1`` untraced passes alternate with
passes that record spans around the package's layer functions, and it
reports the per-layer metrics. Times are calibrated to the machine's
speed (see speed.py); the raw ones are printed beside them. Every metric
is printed as ``<name> <value> <unit>``; the last line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--write-config`` writes BENCHMARK.json from the tables below. See
bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from spans import LAYER_FUNCTIONS, MAP_METHODS, VERIFY_CHECK_IDS, Tracer
from speed import SpeedSampler, raw_seconds
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / 'src'
SPAN_DIR = ROOT / '.bench_out'
RUN_SECONDS = 30
SETUP_BURST = 7

WORKLOAD_WHY = {
    'corpus': 'exhaustive size-7 trees and size-8 intervals: per-object '
              'parse, check and serialise costs dominate',
    'large': 'seeded random degree trees at n=1000 and n=2000: the '
             'quadratic bijection cores dominate',
    'verify': 'verify --max-size 6: the map oracle and enumerators '
              'dominate',
}

# (name, unit, better, bound)
END_TO_END = [
    ('setup_s', 's', 'lower', 0.25),
    ('peak_rss_mb', 'MB', 'lower', 0.1),
    ('pass_s', 's', 'lower', 0.25),
]

CONVERT_DIRECTIONS = ['interval-tree', 'tree-interval', 'tree-map',
                      'map-tree']
# counts that are not span calls: (name, better)
WORK_COUNTS = [
    ('bijections.cases.A1', 'lower'),
    ('bijections.cases.A2', 'lower'),
    ('bijections.cases.A3', 'lower'),
    ('enumeration.enum_maps_oracle.pairs_scanned', 'lower'),
    ('enumeration.enum_new_intervals.pairs_scanned', 'lower'),
]


def per_layer_table() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric."""
    table = [(f'cli.convert.{d}.s', 's', 'lower') for d in CONVERT_DIRECTIONS]
    table += [(f'cli.enumerate.{f}.s', 's', 'lower')
              for f in ('intervals', 'trees')]
    table += [('cli.verify.s', 's', 'lower'), ('cli.self_s', 's', 'lower')]
    layers = [f'{m}.{f}' for m, f in LAYER_FUNCTIONS]
    layers += [f'maps.{m}' for m in MAP_METHODS]
    layers += [f'verify.{c}' for c in VERIFY_CHECK_IDS]
    table += [(f'{name}.self_s', 's', 'lower') for name in layers]
    table += [(f'{name}.calls', 'count', 'lower') for name in
              ('dyck.is_new_interval', 'enumeration.enum_maps_oracle')]
    table += [(name, 'count', better) for name, better in WORK_COUNTS]
    table += [(f'enumeration.{f}.yield', 'frac', 'higher')
              for f in ('enum_maps_oracle', 'enum_new_intervals')]
    table += [('trace.overhead_frac', 'frac', 'lower'),
              ('trace.layer_frac', 'frac', 'higher')]
    return table


def config() -> dict:
    return {
        'command': ['python3', 'bench/run.py'],
        'paths': ['bench'],
        'run_seconds': RUN_SECONDS,
        'workloads': [{'name': n, 'why': w} for n, w in WORKLOAD_WHY.items()],
        'end_to_end': [{'name': n, 'unit': u, 'better': b, 'bound': bound}
                       for n, u, b, bound in END_TO_END],
        'per_layer': [{'name': n, 'unit': u, 'better': b}
                      for n, u, b in per_layer_table()],
    }


def set_up(workload, seed):
    """Import the package afresh and generate the inputs; returns
    ((start, end) on the perf_counter clock, cli module, inputs)."""
    for name in [m for m in sys.modules
                 if m == 'tamari_atlas' or m.startswith('tamari_atlas.')]:
        del sys.modules[name]
    gc.collect()            # the previous copy is garbage; collect it untimed
    start = time.perf_counter()
    importlib.import_module('tamari_atlas')
    cli = importlib.import_module('tamari_atlas.cli')
    inputs = workload.make_inputs(seed) if workload.make_inputs else None
    return (start, time.perf_counter()), cli, inputs


def measure(workload, seed, run_passes, seconds):
    """Run rounds of one pass of each function while another round still
    fits in ``seconds``, at least one round. A burst of set-ups comes
    before the first round and after each, so that set-up and passes
    sample the same spells of the machine; each round runs on the copy
    of the package the last set-up imported. Returns the (start, end) of
    each set-up and the passes of each function."""
    setups = []

    def burst():
        for _ in range(SETUP_BURST):
            span, cli, inputs = set_up(workload, seed)
            setups.append(span)
        return cli, inputs

    results = [[] for _ in run_passes]
    cli, inputs = burst()
    start = time.perf_counter()
    while True:
        begin = time.perf_counter()
        for run_pass, out in zip(run_passes, results):
            gc.collect()
            out.append(run_pass(cli, inputs))
        now = time.perf_counter()
        cli, inputs = burst()
        if now - start + (now - begin) > seconds:
            return setups, results


def report_passes(kind, passes, workload, seconds_of) -> float:
    """Print the pass times and the workload's figures, with ``seconds_of``
    turning a call's (start, end) into seconds; returns the pass time, the
    sum over the CLI calls of each call's median over the passes."""
    seconds = [{k: seconds_of(span) for k, span in p.times.items()}
               for p in passes]
    median = {k: statistics.median(s[k] for s in seconds)
              for k in seconds[0]}
    print(f'passes {len(passes)} {kind}, seconds ' + ' '.join(
        f'{sum(s.values()):.4f}' for s in seconds))
    for name, (value, unit) in workload.figures(median).items():
        print_metric(f'{kind}.{name}', value, unit)
    return sum(median.values())


def layer_metrics(tracers: list[Tracer], traced_s: list[float],
                  seconds_of) -> dict:
    """Per-layer metrics: times are medians over the traced passes, with
    ``seconds_of`` turning a CLI call's (start, end) into seconds; work
    counts come from the first pass and must repeat in every other."""
    summaries = [t.summary(seconds_of) for t in tracers]
    counts = [t.finish_counts() for t in tracers]
    if any(c != counts[0] for c in counts):
        print('bench: work counts differ between traced passes',
              file=sys.stderr)
    counts = counts[0]
    _, self_s, calls = summaries[0]

    def median_s(index, name):
        return statistics.median(s[index][name] for s in summaries)

    values = {'cli.self_s': statistics.median(
        sum(v for k, v in s[1].items() if k.startswith('cli.'))
        for s in summaries)}
    for name, unit, _ in per_layer_table():
        if name in values:
            continue
        if name.startswith('cli.') and name.endswith('.s'):
            values[name] = median_s(0, name[:-2])
        elif name.endswith('.self_s'):
            values[name] = median_s(1, name[:-7])
        elif name.endswith('.calls'):
            values[name] = calls[name[:-6]]
        elif name.endswith('.yield'):
            layer = name[:-6]
            pairs = counts[f'{layer}.pairs_scanned']
            values[name] = counts[f'{layer}.kept'] / pairs if pairs else 0.0
        elif unit == 'count':
            values[name] = counts[name]
    # share of the traced pass time spent in the layer spans, i.e. outside
    # the CLI's own code; a layer whose wrapper stopped binding moves its
    # time into cli.self_s and lowers this share
    values['trace.layer_frac'] = statistics.median(
        sum(v for k, v in s[1].items() if not k.startswith('cli.')) / t
        for s, t in zip(summaries, traced_s))
    named = {n[:-7] for n, _, _ in per_layer_table() if n.endswith('.self_s')}
    unknown = sorted(n for n in self_s
                     if n not in named and not n.startswith('cli.'))
    if unknown:
        print(f'bench: spans without a metric: {unknown}', file=sys.stderr)
    return values


def print_metric(name, value, unit):
    print(f'{name} {value} {unit}' if isinstance(value, int)
          else f'{name} {value:.6g} {unit}')


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument('--workload', choices=sorted(WORKLOADS))
    parser.add_argument('--seed', type=int, default=0)
    parser.add_argument('--seconds', type=float, default=RUN_SECONDS)
    parser.add_argument('--trace', type=int, choices=(0, 1), default=0)
    parser.add_argument('--write-config', action='store_true',
                        help='write BENCHMARK.json and exit')
    args = parser.parse_args(argv)
    if args.write_config:
        (ROOT / 'BENCHMARK.json').write_text(
            json.dumps(config(), indent=2) + '\n')
        return 0
    if args.workload is None:
        parser.error('--workload is required')
    if not (SRC / 'tamari_atlas' / '__init__.py').is_file():
        print(f'bench: no tamari_atlas package under {SRC}', file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    _, cli, inputs = set_up(workload, args.seed)  # warm-up: bytecode, files
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f'bench: imported {cli.__file__}, not the package under '
              f'{SRC}', file=sys.stderr)
        return 2
    print(f'workload {args.workload} seed {args.seed} trace {args.trace}')
    if inputs is not None:
        print('inputs trees of sizes ' + ' '.join(str(n) for n, _ in inputs))

    if not args.trace:
        with SpeedSampler() as sampler:
            setups, [passes] = measure(workload, args.seed,
                                       [workload.run_pass], args.seconds)
        print(f'speed samples {len(sampler.cost)}, probe seconds fastest '
              f'{min(sampler.cost):.4g} median '
              f'{statistics.median(sampler.cost):.4g}')
        print_metric('raw.setup_s', statistics.median(
            raw_seconds(s) for s in setups), 's')
        report_passes('raw', passes, workload, raw_seconds)
        pass_s = report_passes('calibrated', passes, workload,
                               sampler.seconds)
        metrics = {
            'setup_s': statistics.median(sampler.seconds(s) for s in setups),
            'peak_rss_mb': resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
            'pass_s': pass_s,
        }
        units = {n: u for n, u, _, _ in END_TO_END}
    else:
        # untraced and traced passes alternate, so that both see the same
        # machine; their ratio is the tracing overhead
        tracers = []

        def traced_pass(cli, inputs):
            tracer = Tracer()
            tracer.install()
            try:
                return workload.run_pass(cli, inputs)
            finally:
                tracer.uninstall()
                tracers.append(tracer)

        with SpeedSampler() as sampler:
            _, (passes, traced) = measure(workload, args.seed,
                                          [workload.run_pass, traced_pass],
                                          args.seconds)
        report_passes('raw.untraced', passes, workload, raw_seconds)
        report_passes('raw.traced', traced, workload, raw_seconds)
        untraced_s = report_passes('untraced', passes, workload,
                                   sampler.seconds)
        traced_s = report_passes('traced', traced, workload, sampler.seconds)
        passes += traced
        metrics = layer_metrics(tracers, [
            sum(sampler.seconds(span) for span in p.times.values())
            for p in traced], sampler.seconds)
        metrics['trace.overhead_frac'] = traced_s / untraced_s - 1
        SPAN_DIR.mkdir(exist_ok=True)
        span_file = SPAN_DIR / f'spans-{args.workload}.tsv'
        tracers[0].write(span_file)
        print(f'spans {len(tracers[0].spans)} of the first traced pass '
              f'written to {span_file.relative_to(ROOT)}')
        units = {n: u for n, u, _ in per_layer_table()}

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print_metric('failed_frac', failed / attempted, 'frac')
    for name, value in metrics.items():
        print_metric(name, value, units[name])
    print(json.dumps({
        'correct': failed == 0,
        'attempted': attempted,
        'failed': failed,
        'metrics': {n: {'value': v, 'unit': units[n]}
                    for n, v in metrics.items()},
    }))
    return 0


if __name__ == '__main__':
    sys.exit(main())
