"""Property: the columnar ``LatencyRecorder`` reduces exactly as a list of
``Record`` objects did.

The recorder keeps each kind's send times and latencies as ``array('d')``
columns.  ``reference_window_stats`` and ``reference_summarize`` below are
the reduction as it was written over one ``Record`` per request; every
``WindowStat`` and ``Summary`` must come out bit-identical (compared through
``repr``, which round-trips a float exactly).  Drawn send times and
latencies sit on a quarter-second grid as often as not, so completions tie
and land exactly on window edges; windows are trimmed first and last, and
some queried kinds were never recorded.
"""

import math

from hypothesis import given
from hypothesis import strategies as st

from repro.bench.metrics import (
    LatencyRecorder,
    Record,
    Summary,
    WindowStat,
    _mean,
    _std,
    percentile,
)

KINDS = ("insert", "live", "raw")

on_grid = st.integers(min_value=0, max_value=48).map(lambda i: i / 4)
times = st.one_of(on_grid, st.floats(min_value=0.0, max_value=12.0))
latencies = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(min_value=0.0, max_value=3.0)
)
requests = st.lists(st.tuples(st.sampled_from(KINDS[:2]), times, latencies))
reductions = st.tuples(
    st.sampled_from(KINDS),
    st.sampled_from([0.25, 0.3, 1.0, 2.5]),  # window seconds
    st.sampled_from([0.0, 0.1, 0.5, 1.0]),  # start
    st.one_of(st.integers(min_value=0, max_value=12), st.floats(0.0, 12.0)),
    st.integers(min_value=0, max_value=3),  # trim
)


def reference_window_stats(records, kind, window_seconds, start, end, trim):
    records = [
        r for r in records if r.kind == kind and start <= r.completed_at < end
    ]
    buckets = {}
    for record in records:
        buckets.setdefault(
            int((record.completed_at - start) // window_seconds), []
        ).append(record)
    window_count = int((end - start) / window_seconds + 1e-9)
    stats = []
    for index in range(window_count):
        members = buckets.get(index, [])
        mean_latency = (
            sum(r.latency for r in members) / len(members) if members else 0.0
        )
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


def reference_summarize(records, kind, window_seconds, start, end, trim):
    stats = reference_window_stats(records, kind, window_seconds, start, end, trim)
    if not stats:
        return None
    measured_start = stats[0].start
    measured_end = stats[-1].start + window_seconds
    ordered = sorted(
        r.latency
        for r in records
        if r.kind == kind and measured_start <= r.completed_at < measured_end
    )
    if not ordered:
        return None
    throughputs = [w.throughput for w in stats]
    latency_means = [w.mean_latency for w in stats if w.count]
    return Summary(
        kind=kind,
        requests=len(ordered),
        throughput_mean=_mean(throughputs),
        throughput_std=_std(throughputs),
        latency_mean=_mean(latency_means) if latency_means else 0.0,
        latency_std=_std(latency_means) if latency_means else 0.0,
        p50=percentile(ordered, 0.50),
        p90=percentile(ordered, 0.90),
        p99=percentile(ordered, 0.99),
        p999=percentile(ordered, 0.999),
    )


@given(requests, reductions)
def test_columns_reduce_bit_identically_to_records(drawn, reduction):
    kind, window_seconds, start, span, trim = reduction
    end = start + span * window_seconds if isinstance(span, int) else span
    recorder = LatencyRecorder()
    reference = []
    for request_kind, sent_at, latency in drawn:
        recorder.record(request_kind, sent_at, latency)
        reference.append(Record(request_kind, sent_at, latency))

    shape = (kind, window_seconds, start, end, trim)
    assert repr(recorder.window_stats(*shape)) == repr(
        reference_window_stats(reference, *shape)
    )
    assert repr(recorder.summarize(*shape)) == repr(
        reference_summarize(reference, *shape)
    )
    assert recorder.records(kind) == [r for r in reference if r.kind == kind]
    assert recorder.count(kind) == len(recorder.records(kind))
    assert len(recorder) == len(reference)


def test_compensated_sum_is_what_a_bucket_mean_uses():
    # On Python 3.12+ sum() is compensated, so a running total of these
    # latencies differs from sum() in the last bit: the recorder must keep
    # sum()'s answer.
    values = [1.0, 3.491401583919903, 1.2870358441605392]
    recorder = LatencyRecorder()
    reference = []
    for value in values:
        recorder.record("insert", 0.0, value)
        reference.append(Record("insert", 0.0, value))
    (stat,) = recorder.window_stats("insert", 10.0, 0.0, 10.0, trim=0)
    (expected,) = reference_window_stats(reference, "insert", 10.0, 0.0, 10.0, 0)
    assert stat.mean_latency.hex() == expected.mean_latency.hex()
    assert math.isclose(stat.mean_latency, sum(values) / 3)
