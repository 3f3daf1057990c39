"""Small statistics used by the harness and by ``compare.py``.

Kept inside ``bench/`` on purpose: the measuring stick does not borrow its
arithmetic from the code it measures.
"""

from __future__ import annotations

import math
from statistics import median, quantiles
from typing import Iterable, Sequence


def percentile(values: Sequence[float], q: int) -> float:
    """Nearest-rank percentile, ``q`` a whole number in [0, 100]."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = -(-q * len(ordered) // 100)          # exact ceil in integers
    return ordered[min(len(ordered), max(1, rank)) - 1]


def geomean(values: Iterable[float]) -> float:
    """Geometric mean; 0 for an empty sample or when any value is not
    positive (a rate of 0 means an op class produced nothing)."""
    logs = []
    for value in values:
        if value <= 0:
            return 0.0
        logs.append(math.log(value))
    return math.exp(sum(logs) / len(logs)) if logs else 0.0


def spread(values: Sequence[float]) -> float:
    """Run-to-run spread as a share of the median: the distance between the
    first and third quartile when there are at least four values, min-max
    below that (quartiles of two or three values say nothing)."""
    if len(values) < 2:
        return 0.0
    mid = median(values)
    if not mid:
        return 0.0
    if len(values) >= 4:
        q1, _, q3 = quantiles(values, n=4)
        return (q3 - q1) / abs(mid)
    return (max(values) - min(values)) / abs(mid)
