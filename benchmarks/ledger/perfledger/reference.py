"""The driver's own reference answers, computed only from what it sent.

Audits compare the program's replies with these; nothing here calls into
``repro``.  Values come from :func:`perfledger.loadgen.quantized_walk`, whose
sums are exact in any order, so aggregates are compared for equality.
"""

from __future__ import annotations

from typing import Sequence


def wave_slice(
    walk: Sequence[float], lo: int, hi: int, points_per_wave: int, dt: float
) -> tuple[tuple[float, float], ...]:
    """The ``(timestamp, value)`` pairs of waves ``[lo, hi)`` of one walk.

    Wave ``w`` carries data time ``w + i * dt`` for its ``i``-th point, so a
    range read over data time ``[lo, hi)`` must return exactly this slice.
    """
    return tuple(
        (wave + i * dt, walk[wave * points_per_wave + i])
        for wave in range(lo, hi)
        for i in range(points_per_wave)
    )


def series_slice(
    stamps: Sequence[float], values: Sequence[float], start: float, end: float
) -> list[tuple[float, float]]:
    """Pairs with ``start <= timestamp < end`` of an explicit series."""
    return [(t, v) for t, v in zip(stamps, values) if start <= t < end]


def fold_points(points: Sequence[tuple[float, float]]) -> dict:
    """count/min/max/sum/mean of ``(timestamp, value)`` pairs (None when empty)."""
    if not points:
        return {"count": 0, "min": None, "max": None, "sum": 0.0, "mean": None}
    values = [value for _ts, value in points]
    total = 0.0
    for value in values:
        total += value
    return {
        "count": len(values),
        "min": min(values),
        "max": max(values),
        "sum": total,
        "mean": total / len(values),
    }
