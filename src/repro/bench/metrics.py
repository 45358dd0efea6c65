"""Measurement: latency records, percentiles, and windowed statistics.

Mirrors the paper's method (§6.1): "The data was split into windows of 1
minute, and the first minute was removed to make sure the platform had
started up correctly ... the last minute was removed to ensure that only
whole minutes were used.  The average latency or throughput was then
calculated as a measurement, and depicted along with standard deviation."
Our virtual runs are seconds rather than minutes, so the window length is a
parameter; the trimming protocol is the same.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass


def percentile(sorted_values: list[float], fraction: float) -> float:
    """Linear-interpolated percentile of pre-sorted values.

    ``fraction`` in [0, 1].  Raises on empty input: asking for a percentile
    of nothing is a harness bug that should not be papered over.
    """
    if not sorted_values:
        raise ValueError("percentile of empty data")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be within [0, 1]")
    if len(sorted_values) == 1:
        return sorted_values[0]
    position = fraction * (len(sorted_values) - 1)
    lower = int(math.floor(position))
    upper = min(lower + 1, len(sorted_values) - 1)
    weight = position - lower
    return sorted_values[lower] * (1 - weight) + sorted_values[upper] * weight


@dataclass(frozen=True)
class Record:
    """One completed request."""

    kind: str  # 'insert' | 'live' | 'raw'
    sent_at: float
    latency: float

    @property
    def completed_at(self) -> float:
        """When the reply reached the client."""
        return self.sent_at + self.latency


@dataclass
class WindowStat:
    """Aggregate of one measurement window."""

    start: float
    count: int
    mean_latency: float
    throughput: float


@dataclass
class Summary:
    """Cross-window mean +/- stddev plus whole-run latency percentiles."""

    kind: str
    requests: int
    throughput_mean: float
    throughput_std: float
    latency_mean: float
    latency_std: float
    p50: float
    p90: float
    p99: float
    p999: float

    def percentiles(self) -> dict[str, float]:
        return {"p50": self.p50, "p90": self.p90, "p99": self.p99, "p999": self.p999}


class LatencyRecorder:
    """Collects completed requests and reduces them the paper's way.

    A request is kept as numbers only: per kind, one ``array('d')`` column
    of send times and one of latencies, in recording order.  A
    :class:`Record` is built only when :meth:`records` is read, so a long
    run keeps no object per request.
    """

    def __init__(self) -> None:
        #: kind -> (sent_at column, latency column), kinds in first-seen order.
        self._columns: dict[str, tuple[array, array]] = {}

    def record(self, kind: str, sent_at: float, latency: float) -> None:
        """Store one completed request."""
        columns = self._columns.get(kind)
        if columns is None:
            columns = self._columns[kind] = (array("d"), array("d"))
        columns[0].append(sent_at)
        columns[1].append(latency)

    def __len__(self) -> int:
        return sum(len(sent) for sent, _ in self._columns.values())

    def count(self, kind: str) -> int:
        """How many requests of ``kind`` were recorded."""
        columns = self._columns.get(kind)
        return len(columns[0]) if columns is not None else 0

    def records(self, kind: str | None = None) -> list[Record]:
        """The requests of ``kind`` as new :class:`Record` objects, in
        recording order; with no ``kind``, every kind's in turn (kinds in the
        order they were first recorded)."""
        kinds = self._columns if kind is None else (kind,)
        return [
            Record(name, sent_at, latency)
            for name in kinds
            for sent_at, latency in zip(*self._columns.get(name, ((), ())))
        ]

    def _latencies(self, kind: str, start: float, end: float):
        """``(completed_at, latency)`` of every ``kind`` request completing
        in ``[start, end)``, in recording order."""
        sent, latencies = self._columns.get(kind, ((), ()))
        for sent_at, latency in zip(sent, latencies):
            completed_at = sent_at + latency
            if start <= completed_at < end:
                yield completed_at, latency

    def window_stats(
        self,
        kind: str,
        window_seconds: float,
        start: float,
        end: float,
        trim: int = 1,
    ) -> list[WindowStat]:
        """Windowed means with the paper's first/last trimming.

        Records are bucketed by *completion* time: at saturation, send waves
        slip past the one-second cadence while completions flow at the
        service rate — which is the throughput the paper plots.
        """
        if window_seconds <= 0:
            raise ValueError("window must be positive")
        buckets: dict[int, list[float]] = {}
        for completed_at, latency in self._latencies(kind, start, end):
            buckets.setdefault(
                int((completed_at - start) // window_seconds), []
            ).append(latency)
        # Guard against float dust: (start+D) - start can be a hair under D,
        # which would silently drop the last window.
        window_count = int((end - start) / window_seconds + 1e-9)
        stats = []
        for index in range(window_count):
            members = buckets.get(index, [])
            # sum() over the same floats in recording order: Python 3.12+
            # compensates it, so a running total would not be bit-identical.
            mean_latency = sum(members) / len(members) if members else 0.0
            stats.append(
                WindowStat(
                    start=start + index * window_seconds,
                    count=len(members),
                    mean_latency=mean_latency,
                    throughput=len(members) / window_seconds,
                )
            )
        if trim:
            stats = stats[trim:-trim] if len(stats) > 2 * trim else []
        return stats

    def summarize(
        self,
        kind: str,
        window_seconds: float,
        start: float,
        end: float,
        trim: int = 1,
    ) -> Summary | None:
        """The full reduction: windowed throughput + whole-run percentiles.

        Returns None when no trimmed windows (or no records) remain.
        """
        stats = self.window_stats(kind, window_seconds, start, end, trim=trim)
        if not stats:
            return None
        measured_start = stats[0].start
        measured_end = stats[-1].start + window_seconds
        latencies = sorted(
            latency
            for _, latency in self._latencies(kind, measured_start, measured_end)
        )
        if not latencies:
            return None
        throughputs = [w.throughput for w in stats]
        latency_means = [w.mean_latency for w in stats if w.count]
        return Summary(
            kind=kind,
            requests=len(latencies),
            throughput_mean=_mean(throughputs),
            throughput_std=_std(throughputs),
            latency_mean=_mean(latency_means) if latency_means else 0.0,
            latency_std=_std(latency_means) if latency_means else 0.0,
            p50=percentile(latencies, 0.50),
            p90=percentile(latencies, 0.90),
            p99=percentile(latencies, 0.99),
            p999=percentile(latencies, 0.999),
        )


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _std(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    mean = _mean(values)
    return math.sqrt(sum((v - mean) ** 2 for v in values) / (len(values) - 1))


