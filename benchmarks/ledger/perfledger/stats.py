"""Reductions the ledger applies to its own samples.

Kept separate from ``repro.bench.metrics`` on purpose: the ledger must keep
measuring the same thing while ``repro.bench`` is refactored.
"""

from __future__ import annotations

import math
import statistics


def percentile(sorted_values: list[float], fraction: float) -> float:
    """Linear-interpolated percentile of pre-sorted values (``fraction`` in [0, 1])."""
    if not sorted_values:
        raise ValueError("percentile of empty data")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be within [0, 1]")
    position = fraction * (len(sorted_values) - 1)
    lower = math.floor(position)
    upper = min(lower + 1, len(sorted_values) - 1)
    weight = position - lower
    return sorted_values[lower] * (1 - weight) + sorted_values[upper] * weight


def trimmed_rate(
    completions: list[float], start: float, end: float, window: float | None
) -> float:
    """Completed ops per virtual second over ``[start, end)``.

    With a ``window`` the interval is cut into whole windows from ``start``
    and the first and last are dropped (the paper's protocol: ramp-up and
    the partial tail do not count).  Without one, or when fewer than three
    whole windows fit, the rate is taken over the whole interval.
    """
    if end <= start:
        raise ValueError("empty measurement interval")
    if window is not None:
        # Float dust: (start + k*window) - start can land a hair under k*window.
        whole = int((end - start) / window + 1e-9)
        if whole >= 3:
            lo = start + window
            hi = start + (whole - 1) * window
            inside = sum(1 for t in completions if lo <= t < hi)
            return inside / (hi - lo)
    inside = sum(1 for t in completions if start <= t <= end)
    return inside / (end - start)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        only = values[0]
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread_share(values: list[float]) -> float:
    """Interquartile distance as a share of the median (0 when the median is 0)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def relative_worsening(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``.

    Positive means worse in the metric's own direction; negative means better.
    """
    if first == 0:
        return 0.0 if second == 0 else math.inf
    change = (second - first) / abs(first)
    return change if better == "lower" else -change
