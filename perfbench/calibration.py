"""Host-speed calibration: a fixed pure-Python loop timed next to the measured work.

The benchmark runs on a few cores of a shared host whose speed for one
process flips between phases about 1.5x apart every few seconds and drifts
by up to 1.9x between runs, with no steal time to show for it (CPU time
grows with wall time).  The same slow phases stretch this loop, so every
timing the benchmark reports is scaled to a nominal host speed::

    scaled seconds = wall seconds * REFERENCE_NOMINAL_S / reference seconds

where the reference is this loop timed next to the work while nothing else of
the benchmark runs: between the iterations of a closed loop, by the request
generator while no request is outstanding, and around each set-up sample.
The loop is the benchmark's own code, so a change to the program cannot move
it, and the constant cancels when two commits are compared on one host.  The
report keeps the unscaled wall-clock figures beside the scaled ones.
"""

from __future__ import annotations

import statistics
import time

#: Seconds the reference loop takes on a quiet host of the kind the bounds were set on.
REFERENCE_NOMINAL_S = 0.006


def reference_loop() -> float:
    """Run the fixed reference workload once; returns its wall time in seconds."""
    start = time.perf_counter()
    table = {}
    total = 0
    for i in range(30000):
        key = i % 997
        table[key] = table.get(key, 0) + i
        total += (i * i) % 7
    return time.perf_counter() - start


def reference(repeats: int = 3) -> float:
    """Median of ``repeats`` reference loops, for a sample that has no neighbours."""
    return statistics.median(reference_loop() for _ in range(repeats))


def scale(reference_s: float) -> float:
    """Factor that turns wall seconds measured next to ``reference_s`` into nominal seconds."""
    return REFERENCE_NOMINAL_S / reference_s
