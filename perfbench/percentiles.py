"""Percentiles under the benchmark's reporting rule.

A failed or refused operation enters a latency sample as ``inf``, so it counts
as missing every latency limit.  A percentile is reportable only when at least
:data:`MIN_BEYOND` samples lie beyond it.
"""

from __future__ import annotations

import math
from typing import List, Sequence

MIN_BEYOND = 10

#: The end-to-end latency metrics: the class of operation each is taken from
#: (``repeat`` or ``novel``) and its percentile.
LATENCY_METRICS = {
    "repeat_p50_s": ("repeat", 50),
    "novel_p50_s": ("novel", 50),
}


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``0 < q <= 100``) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie beyond their nearest-rank ``q``-th percentile."""
    return count - max(1, math.ceil(q / 100.0 * count)) if count else 0


def p50_or_zero(values: Sequence[float]) -> float:
    """Median of a per-layer sample, or ``0.0`` when the layer saw no work."""
    return percentile(values, 50) if values else 0.0


def finite(values: Sequence[float]) -> List[float]:
    """The finite members of a sample."""
    return [value for value in values if math.isfinite(value)]
