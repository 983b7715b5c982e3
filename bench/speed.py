"""Machine-speed sampler that calibrates the benchmark's times.

A shared host drifts: a neighbour on the same core can slow every step
of the interpreter by a third, for seconds or for a whole run. Repeating
the workload within a run does not average that away, and a run-relative
reference (such as the run's fastest moment) drifts with it. So while a
run measures, a timer signal interrupts it every ``SAMPLE_INTERVAL``
seconds and the handler times ``probe``, a fixed loop of the same kind of
work as the package (dicts, tuples, strings, a sort). It runs the probe
once untimed first, so that the timed one does not pay for the caches
the interrupted program evicted, and with the garbage collector off, so
that a collection of the program's heap does not land in it. One thread
and no extra process: the probe runs between two bytecodes of the
program.

A measured interval is then expressed in probe durations: its seconds
over the mean probe taken within ``WINDOW`` seconds of it. Each probe
counts at most ``CLIP`` times the run's median probe: a neighbour's
slow-down stays under that, while a probe during which the process was
switched out can read 60 times the median and would shrink a short
call's time by a third. To read as seconds, that count is multiplied by
the fixed ``REFERENCE_PROBE_S``, about the probe's fastest duration on
the 2-core Xeon VM the benchmark was tuned on; a calibrated time is thus
the seconds the interval would take on that machine at full speed. It
moves with the program's own speed, since the probe's code never
changes, and holds still when only the neighbours change. The raw
seconds are printed beside it.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from bisect import bisect_left, bisect_right

SAMPLE_INTERVAL = 0.02
WINDOW = 0.1
REFERENCE_PROBE_S = 4e-5
CLIP = 2.0


def probe():
    """A fixed amount of interpreter work, about REFERENCE_PROBE_S."""
    table = {}
    for i in range(200):
        key = (i * 7919) % 61
        table[key] = table.get(key, ()) + (i,)
    return sorted(str(k) for k in table)


class SpeedSampler:
    """Times ``probe`` on a timer signal while entered as a context."""

    def __init__(self):
        self.at: list[float] = []       # perf_counter at each probe
        self.cost: list[float] = []     # seconds of each probe
        self._busy = False
        self._previous = None
        self._cap = None

    def _sample(self, signum, frame):
        if self._busy:              # a late signal during the last probe
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()
        probe()
        start = time.perf_counter()
        probe()
        end = time.perf_counter()
        if collecting:
            gc.enable()
        self.at.append(start)
        self.cost.append(end - start)
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL,
                         SAMPLE_INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._cap = CLIP * statistics.median(self.cost)

    def seconds(self, span: tuple[float, float]) -> float:
        """Calibrated seconds of the perf_counter interval ``span``."""
        start, end = span
        lo = bisect_left(self.at, start - WINDOW)
        hi = bisect_right(self.at, end + WINDOW)
        if lo == hi:
            raise ValueError('no speed sample near a measured interval')
        cap = self._cap
        local = sum(min(c, cap) for c in self.cost[lo:hi]) / (hi - lo)
        return (end - start) * REFERENCE_PROBE_S / local


def raw_seconds(span: tuple[float, float]) -> float:
    """Seconds of the perf_counter interval ``span`` as measured."""
    return span[1] - span[0]
