"""Time-series primitives: accumulated change and running aggregates.

Aggregator actors maintain statistical summaries per time bucket (§2.1
functional requirement 6); channels track accumulated change (requirement
4).  Both are plain non-actor value machinery, kept here so they can be
unit- and property-tested in isolation.  The channel's bounded data window
itself is :class:`repro.storage.tsblocks.TieredSeries`.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

from .model import DataPoint


class AccumulatedChange:
    """Net and total movement of a data stream (functional requirement 4).

    ``net`` is the signed difference between the latest and the first-ever
    reading; ``total`` sums absolute deltas, gauging "how far elements have
    moved" even when they oscillate back.
    """

    def __init__(self) -> None:
        self.first_value: float | None = None
        self.last_value: float | None = None
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Feed one reading."""
        if self.last_value is not None:
            self.total += abs(value - self.last_value)
        else:
            self.first_value = value
        self.last_value = value
        self.count += 1

    def observe_pairs(self, points: list[tuple[float, float]]) -> None:
        """Feed a batch of ``(timestamp, value)`` pairs in one frame."""
        last = self.last_value
        total = self.total
        for _, value in points:
            if last is not None:
                total += abs(value - last)
            else:
                self.first_value = value
            last = value
        self.last_value = last
        self.total = total
        self.count += len(points)

    @property
    def net(self) -> float:
        """Signed change since the first reading (0.0 before any data)."""
        if self.first_value is None or self.last_value is None:
            return 0.0
        return self.last_value - self.first_value

    def snapshot(self) -> dict:
        """A serializable summary."""
        return {
            "net": self.net,
            "total": self.total,
            "count": self.count,
            "first": self.first_value,
            "last": self.last_value,
        }


@dataclass
class AggregateStats:
    """Streaming count/min/max/mean/variance (Welford's algorithm).

    Welford keeps the variance numerically stable for long streams and
    makes two summaries mergeable — which is what lets hourly aggregates
    feed daily ones without reprocessing raw data.
    """

    count: int = 0
    minimum: float = math.inf
    maximum: float = -math.inf
    mean: float = 0.0
    m2: float = 0.0

    def observe(self, value: float) -> None:
        """Feed one reading."""
        self.count += 1
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)
        delta = value - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (value - self.mean)

    @property
    def variance(self) -> float:
        """Population variance (0.0 for fewer than two samples)."""
        if self.count < 2:
            return 0.0
        return self.m2 / self.count

    @property
    def stddev(self) -> float:
        """Population standard deviation."""
        return math.sqrt(self.variance)

    def merge(self, other: "AggregateStats") -> "AggregateStats":
        """Combine two summaries (Chan et al. parallel variance)."""
        if other.count == 0:
            return self
        if self.count == 0:
            self.count = other.count
            self.minimum = other.minimum
            self.maximum = other.maximum
            self.mean = other.mean
            self.m2 = other.m2
            return self
        total = self.count + other.count
        delta = other.mean - self.mean
        self.m2 = self.m2 + other.m2 + delta * delta * self.count * other.count / total
        self.mean = (self.mean * self.count + other.mean * other.count) / total
        self.count = total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)
        return self

    def snapshot(self) -> dict:
        """A serializable summary (None min/max when empty)."""
        return {
            "count": self.count,
            "min": None if self.count == 0 else self.minimum,
            "max": None if self.count == 0 else self.maximum,
            "mean": None if self.count == 0 else self.mean,
            "stddev": None if self.count == 0 else self.stddev,
        }


class BucketedAggregates:
    """Per-time-bucket aggregate stats (e.g. hourly or daily).

    ``max_buckets`` bounds retention: when a new bucket would exceed the
    cap, the oldest populated bucket is evicted (``evicted_buckets``
    counts them).  ``None`` retains everything — the pre-cap behaviour,
    which on long runs grows without bound.

    Bucket indexes are kept in an always-sorted list, so :meth:`series`
    binary-searches to exactly the requested range — O(log n + k) per
    dashboard read — instead of scanning every populated bucket.
    """

    def __init__(
        self, bucket_seconds: float, max_buckets: int | None = None
    ) -> None:
        if bucket_seconds <= 0:
            raise ValueError("bucket size must be positive")
        if max_buckets is not None and max_buckets < 1:
            raise ValueError("max_buckets must be >= 1 (or None)")
        self.bucket_seconds = bucket_seconds
        self.max_buckets = max_buckets
        self.evicted_buckets = 0
        self._buckets: dict[int, AggregateStats] = {}
        self._order: list[int] = []  # populated bucket indexes, sorted

    def bucket_of(self, timestamp: float) -> int:
        """The bucket index a timestamp falls into."""
        return int(timestamp // self.bucket_seconds)

    def _ensure(self, bucket: int) -> AggregateStats:
        stats = self._buckets.get(bucket)
        if stats is None:
            stats = AggregateStats()
            self._buckets[bucket] = stats
            if not self._order or bucket > self._order[-1]:
                self._order.append(bucket)
            else:
                bisect.insort(self._order, bucket)
            if self.max_buckets is not None and len(self._order) > self.max_buckets:
                oldest = self._order.pop(0)
                del self._buckets[oldest]
                self.evicted_buckets += 1
        return stats

    def observe(self, point: DataPoint) -> int:
        """Feed one point; returns the bucket index it landed in.

        A point older than the retention horizon (its bucket would be
        evicted immediately under ``max_buckets``) is dropped.
        """
        bucket = self.bucket_of(point.timestamp)
        self._ensure(bucket).observe(point.value)
        return bucket

    def merge_bucket(self, bucket: int, stats: AggregateStats) -> None:
        """Merge a pre-aggregated summary into a bucket (hour → day)."""
        self._ensure(bucket).merge(stats)

    def stats_for(self, bucket: int) -> AggregateStats | None:
        """The stats of one bucket, or None."""
        return self._buckets.get(bucket)

    def pop_bucket(self, bucket: int) -> AggregateStats | None:
        """Remove and return one bucket's stats (None when absent)."""
        stats = self._buckets.pop(bucket, None)
        if stats is not None:
            del self._order[bisect.bisect_left(self._order, bucket)]
        return stats

    def buckets(self) -> list[int]:
        """All populated bucket indexes, sorted."""
        return list(self._order)

    def series(self, start: float, end: float) -> list[tuple[int, dict]]:
        """(bucket, stats snapshot) pairs overlapping [start, end)."""
        if end <= start:
            return []
        first = self.bucket_of(start)
        last = self.bucket_of(end - 1e-9)
        lo = bisect.bisect_left(self._order, first)
        hi = bisect.bisect_right(self._order, last, lo)
        return [
            (bucket, self._buckets[bucket].snapshot())
            for bucket in self._order[lo:hi]
        ]
