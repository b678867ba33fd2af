"""Order statistics the benchmark reports: median, quartiles, tail.

A timing is reported as its median plus the highest percentile of
:data:`TAIL_LADDER` that still has at least :data:`MIN_BEYOND` samples
beyond it, together with the sample count.  Percentiles use the
nearest-rank rule, so "beyond" is exact: the value at rank
``ceil(p/100 * n)`` has ``n - rank`` samples after it.
"""

from __future__ import annotations

import math
import statistics

__all__ = ["MIN_BEYOND", "TAIL_LADDER", "mean", "median", "quartiles", "percentile", "tail"]

#: a tail percentile needs this many samples beyond it to be reported
MIN_BEYOND = 10
#: candidate tail percentiles, tried from the highest down
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def mean(values):
    """Arithmetic mean of a sequence; 0.0 for an empty one."""
    values = list(values)
    return float(statistics.fmean(values)) if values else 0.0


def median(values):
    """Median of a non-empty sequence; 0.0 for an empty one."""
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def quartiles(values):
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    q1, q2, q3 = statistics.quantiles(list(values), n=4)
    return q1, q2, q3


def percentile(values, p):
    """Nearest-rank percentile ``p`` (0 < p <= 100) and its rank (1-based)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    if not 0.0 < p <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    # rounding first keeps 99.9% of 10000 at rank 9990, not 9991
    rank = max(1, math.ceil(round(p * len(ordered) / 100.0, 6)))
    return ordered[rank - 1], rank


def tail(values):
    """The highest ladder percentile with >= MIN_BEYOND samples beyond it.

    Returns ``{"p": p, "value": v, "beyond": k, "n": n}``, or ``{"p":
    None, "n": n}`` when even the median has fewer than ``MIN_BEYOND``
    samples beyond it.
    """
    values = list(values)
    n = len(values)
    for p in TAIL_LADDER:
        if not values:
            break
        value, rank = percentile(values, p)
        if n - rank >= MIN_BEYOND:
            return {"p": p, "value": value, "beyond": n - rank, "n": n}
    return {"p": None, "n": n}
