"""Machine-speed calibration: a fixed reference task timed beside the work.

On a shared virtual machine the speed of the same code drifts by up to
1.7x between 15-second windows, because other tenants load the host.
The benchmark therefore times :func:`reference_task`, which never
changes and calls nothing of the program, right before and after every
timed operation and set-up.  A reported time is the wall
time scaled by ``REFERENCE_S / median(reference seconds)`` of the
calibrations made around it: the time the work would take on a machine
that runs the reference task in ``REFERENCE_S`` seconds.  A change to
the program moves the work and not the reference, so it moves a scaled
time by the same factor as the wall time; a change in the machine's
speed moves both and cancels.

Raw wall times stay in the report and the output record.
"""

from __future__ import annotations

import time
from collections import deque

import numpy as np

from stats import median

__all__ = ["REFERENCE_S", "SAMPLES", "SHARE", "reference_task", "calibrate", "speed_factor"]

#: reference-task seconds of the nominal machine (a 2-vCPU VM at its
#: median speed, Python 3.11, numpy 2.4)
REFERENCE_S = 0.0025
#: reference-task timings per calibration, at least
SAMPLES = 2
#: a calibration before an operation lasts at least this share of the
#: previous operation, so that long operations get a steadier estimate
SHARE = 0.02


# fixed data of the reference task, the same in every run
_GRID = 40
_NEIGHBOURS = [
    [j for j in (i - 1, i + 1, i - _GRID, i + _GRID)
     if 0 <= j < _GRID * _GRID and (abs(j - i) == _GRID or j // _GRID == i // _GRID)]
    for i in range(_GRID * _GRID)
]
_RNG = np.random.default_rng(0)
_TABLE = _RNG.standard_normal(1 << 17)
_GATHER = _RNG.integers(0, 1 << 17, 1 << 16)
_SMALL = np.arange(64.0)


def reference_task():
    """The pipeline's kinds of work in about equal parts, ~2.5 ms in all.

    An integer loop, a breadth-first search over a grid graph with a
    dict and a deque (as in the orderings), numpy calls on tiny arrays
    (call overhead, as in level-by-level kernels), streaming vector
    arithmetic, and random gathers from a 1 MiB table (as in sparse
    products).  Each part alone tracks the pipeline's speed less well
    than the mix.
    """
    s = 0
    for i in range(12000):
        s += i
    seen, queue = {0: 0}, deque([0])
    while queue:
        for w in _NEIGHBOURS[queue.popleft()]:
            if w not in seen:
                seen[w] = len(seen)
                queue.append(w)
    y = _SMALL
    for _ in range(300):
        y = np.maximum(y * 0.5, _SMALL)
    x = np.arange(20000.0)
    for _ in range(30):
        x = x * 1.0000001 + 1.0
    g = sum(_TABLE[_GATHER].sum() for _ in range(4))
    return s + len(seen) + y[-1] + x[-1] + g


def calibrate(min_seconds=0.0):
    """Seconds of each reference task run: ``SAMPLES`` of them, or more
    until they add up to ``min_seconds``."""
    out = []
    while len(out) < SAMPLES or sum(out) < min_seconds:
        t0 = time.perf_counter()
        reference_task()
        out.append(time.perf_counter() - t0)
    return out


def speed_factor(reference_seconds):
    """Factor that turns wall seconds timed beside ``reference_seconds``
    into nominal seconds."""
    return REFERENCE_S / median(reference_seconds)
