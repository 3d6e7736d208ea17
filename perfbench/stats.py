"""Small statistics helpers shared by the workloads and the report."""

from __future__ import annotations

import math

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 97.5, 95.0, 90.0, 80.0, 75.0, 50.0)


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile of ``values`` (which must be non-empty)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def tail(values: list[float]) -> "tuple[float, float]":
    """``(pct, value)``: the highest percentile with >= 10 samples beyond it."""
    for pct in TAIL_PERCENTILES:
        if len(values) * (100.0 - pct) / 100.0 >= 10:
            return pct, percentile(values, pct)
    return 100.0, max(values)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
