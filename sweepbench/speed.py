"""Host speed calibration for the sweep benchmark.

On a shared host the same code can run up to about 1.8x slower for
minutes at a time, on every vCPU at once, because other tenants load the
machine; the guest sees no steal time, only slower instructions.  Longer
runs cannot average that out.  So the benchmark times a fixed pure-Python
loop (this module's own code, independent of ``src/``) right before and
right after each measured pass, and scales the pass's wall time by
``REFERENCE_S`` over the mean of the two loop times.  A scaled time is
the time the pass would have taken on a host on which the loop takes
``REFERENCE_S``: it moves when the program changes, not when the host
does.
"""

from __future__ import annotations

import statistics
import time

#: Iterations of one reference loop.
LOOP_N = 20_000

#: Loop time of the reference host, in seconds (an unloaded 2-vCPU
#: x86-64 VM with CPython 3.11 takes about this long).
REFERENCE_S = 0.005

#: Loops per sample; the sample is their median.
REPEATS = 5


def _loop(n: int) -> float:
    acc = 0.0
    kept = []
    table = {}
    for i in range(n):
        x = (i * 0.618033988749895) % 1.0
        acc += x * x - acc * 1e-6
        if x < 0.5:
            kept.append(x)
        table[i & 255] = acc
    return acc + len(kept) + len(table)


def sample() -> float:
    """Wall time of one reference loop now (median of ``REPEATS``)."""
    times = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        _loop(LOOP_N)
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def scale(before: float, after: float) -> float:
    """Factor from wall seconds to reference seconds between two samples."""
    return REFERENCE_S / ((before + after) / 2.0)
