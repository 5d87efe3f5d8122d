"""A stopwatch in reference-speed seconds.

The benchmark shares its host with other tenants, and the host's speed
drifts by tens of percent within minutes, so raw wall times of one
program vary far more between runs than any change worth measuring.
Every interval is therefore scaled by how fast a fixed pure-Python
reference unit ran just before and just after it:

    scaled = wall * NOMINAL_S / mean(reference time before, after)

On a host that runs the reference unit in NOMINAL_S, scaled time equals
wall time.  The reference touches no ``drinfeld`` code, so a change to
the library moves scaled times exactly as it moves wall times; only the
host's speed is divided out.  The reference samples are taken between
intervals and are not part of any interval.
"""

import time
from fractions import Fraction

# Time of one reference unit on the fast state of a 2-core desk VM
# (CPython 3.11); it only sets the scale of every reported time.
NOMINAL_S = 0.0006


def _reference_unit():
    """Interpreter-bound work like the library's: small objects, method
    calls, container updates."""
    acc = Fraction(0)
    table = {}
    row = []
    for i in range(1, 100):
        acc += Fraction(i, i + 1)
        table[i & 15] = table.get(i & 15, 0) + i
        row = [c * i % 7 for c in range(8)]
    return acc, table, row


def reference_time():
    start = time.perf_counter()
    _reference_unit()
    return time.perf_counter() - start


class RefClock:
    """``start()`` then ``stop()`` returns (scaled seconds, wall seconds)
    of the interval between them; ``scaled``/``wall`` hold the totals."""

    def __init__(self):
        self._ref = reference_time()
        self._t0 = None
        self.scaled = 0.0
        self.wall = 0.0

    def start(self):
        self._t0 = time.perf_counter()

    def stop(self):
        wall = time.perf_counter() - self._t0
        ref = reference_time()
        scaled = wall * NOMINAL_S / ((self._ref + ref) / 2)
        self._ref = ref
        self.scaled += scaled
        self.wall += wall
        return scaled, wall
