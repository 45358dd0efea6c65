"""Unit tests for windows, accumulated change and aggregates."""

import pytest

from repro.shm import (
    AccumulatedChange,
    AggregateStats,
    BucketedAggregates,
    DataPoint,
)
from repro.storage.tsblocks import SealedBlock, TieredSeries


# -- the bounded window (TieredSeries, raw and tiered) --------------------------


@pytest.fixture(params=[0, 4], ids=["raw", "tiered"])
def block_size(request):
    return request.param


def flatten(evicted):
    """Evicted runs as pairs (whole blocks decode to their points)."""
    pairs = []
    for run in evicted:
        pairs.extend(run.decode() if type(run) is SealedBlock else run)
    return pairs


def test_window_appends_in_order(block_size):
    window = TieredSeries(10, block_size)
    window.append(1.0, 5.0)
    window.append(2.0, 6.0)
    assert len(window) == 2
    assert window.latest() == (2.0, 6.0)


def test_window_rejects_out_of_order(block_size):
    window = TieredSeries(block_size=block_size)
    window.append(2.0, 1.0)
    with pytest.raises(ValueError):
        window.append(1.0, 1.0)


def test_window_allows_equal_timestamps(block_size):
    window = TieredSeries(block_size=block_size)
    window.append(1.0, 1.0)
    window.append(1.0, 2.0)
    assert len(window) == 2


def test_window_evicts_oldest_when_full(block_size):
    window = TieredSeries(3, block_size)
    evicted = window.append_many([(float(i), float(i)) for i in range(5)])
    assert [ts for ts, _ in flatten(evicted)] == [0.0, 1.0]
    assert len(window) == 3
    assert window.all_pairs()[0][0] == 2.0
    assert window.total_appended == 5


def test_window_range_query_half_open(block_size):
    window = TieredSeries(block_size=block_size)
    window.append_many([(float(i), i * 10.0) for i in range(10)])
    assert [ts for ts, _ in window.range(2.0, 5.0)] == [2.0, 3.0, 4.0]


def test_window_tail(block_size):
    window = TieredSeries(block_size=block_size)
    window.append_many([(float(i), float(i)) for i in range(5)])
    assert [value for _, value in window.tail(2)] == [3.0, 4.0]
    assert window.tail(0) == []
    assert len(window.tail(100)) == 5


def test_window_latest_empty(block_size):
    assert TieredSeries(block_size=block_size).latest() is None


def test_window_range_correct_across_heavy_eviction(block_size):
    """Range queries stay correct while eviction keeps advancing the old
    end of the window (through the head, or through part-evicted blocks)."""
    window = TieredSeries(8, block_size)
    for i in range(100):
        window.append(float(i), i * 1.0)
        lo = max(0, i - 7)  # oldest surviving timestamp
        got = [ts for ts, _ in window.range(float(lo), float(i + 1))]
        assert got == [float(t) for t in range(lo, i + 1)]
    # Sub-ranges, boundaries, and misses after eviction.
    assert [ts for ts, _ in window.range(95.0, 98.0)] == [95.0, 96.0, 97.0]
    assert window.range(0.0, 92.0) == []
    assert [value for _, value in window.tail(3)] == [97.0, 98.0, 99.0]
    assert len(window.all_pairs()) == 8
    assert window.latest()[0] == 99.0


@pytest.mark.parametrize("block_size", [0, 256], ids=["raw", "tiered"])
def test_window_range_is_logarithmic_not_linear(block_size):
    """The micro-bench data point: doubling the window size must not double
    the cost of a small range query.  Measured in list touches via a tiny
    result: the returned slice is the only O(k) part."""
    import timeit

    def cost(capacity):
        window = TieredSeries(capacity, block_size)
        window.append_many([(float(i), 0.0) for i in range(capacity)])
        # Small fixed-size answer from a large window.
        return min(
            timeit.repeat(
                lambda: window.range(10.0, 20.0), number=200, repeat=5
            )
        )

    small, large = cost(1_000), cost(16_000)
    # O(n) behaviour would make `large` ~16x `small`; binary search keeps
    # the ratio near 1.  Allow generous slack for timer noise.
    assert large < small * 4


def test_window_capacity_validation():
    with pytest.raises(ValueError):
        TieredSeries(capacity=0)


# -- AccumulatedChange ---------------------------------------------------------


def test_accumulated_change_net_and_total():
    change = AccumulatedChange()
    for value in [0.0, 3.0, 1.0, 4.0]:
        change.observe(value)
    assert change.net == pytest.approx(4.0)
    assert change.total == pytest.approx(3 + 2 + 3)
    assert change.count == 4


def test_accumulated_change_oscillation():
    change = AccumulatedChange()
    for value in [0.0, 1.0, 0.0, 1.0, 0.0]:
        change.observe(value)
    assert change.net == pytest.approx(0.0)
    assert change.total == pytest.approx(4.0)


def test_accumulated_change_empty():
    change = AccumulatedChange()
    assert change.net == 0.0
    assert change.total == 0.0
    snapshot = change.snapshot()
    assert snapshot["count"] == 0
    assert snapshot["first"] is None


# -- AggregateStats -------------------------------------------------------------


def test_aggregate_stats_basic_moments():
    stats = AggregateStats()
    values = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
    for value in values:
        stats.observe(value)
    assert stats.count == 8
    assert stats.mean == pytest.approx(5.0)
    assert stats.stddev == pytest.approx(2.0)
    assert stats.minimum == 2.0
    assert stats.maximum == 9.0


def test_aggregate_stats_variance_small_counts():
    stats = AggregateStats()
    assert stats.variance == 0.0
    stats.observe(10.0)
    assert stats.variance == 0.0


def test_aggregate_merge_equals_combined_stream():
    left, right, combined = AggregateStats(), AggregateStats(), AggregateStats()
    left_values = [1.0, 2.0, 3.0]
    right_values = [10.0, 20.0]
    for value in left_values:
        left.observe(value)
        combined.observe(value)
    for value in right_values:
        right.observe(value)
        combined.observe(value)
    left.merge(right)
    assert left.count == combined.count
    assert left.mean == pytest.approx(combined.mean)
    assert left.variance == pytest.approx(combined.variance)
    assert left.minimum == combined.minimum
    assert left.maximum == combined.maximum


def test_aggregate_merge_with_empty():
    stats = AggregateStats()
    stats.observe(5.0)
    stats.merge(AggregateStats())
    assert stats.count == 1
    empty = AggregateStats()
    empty.merge(stats)
    assert empty.count == 1
    assert empty.mean == 5.0


def test_aggregate_snapshot_empty():
    snapshot = AggregateStats().snapshot()
    expected = {"count": 0, "min": None, "max": None, "mean": None, "stddev": None}
    assert snapshot == expected


# -- BucketedAggregates ------------------------------------------------------------


def test_buckets_partition_by_time():
    buckets = BucketedAggregates(bucket_seconds=3600)
    buckets.observe(DataPoint(10.0, 1.0))
    buckets.observe(DataPoint(3599.0, 3.0))
    buckets.observe(DataPoint(3600.0, 5.0))
    assert buckets.buckets() == [0, 1]
    assert buckets.stats_for(0).count == 2
    assert buckets.stats_for(1).count == 1


def test_bucket_series_range():
    buckets = BucketedAggregates(bucket_seconds=60)
    for ts in [0, 30, 60, 120, 300]:
        buckets.observe(DataPoint(float(ts), 1.0))
    series = buckets.series(0, 180)
    assert [bucket for bucket, _ in series] == [0, 1, 2]


def test_bucket_series_empty_range():
    buckets = BucketedAggregates(bucket_seconds=60)
    buckets.observe(DataPoint(0.0, 1.0))
    assert buckets.series(100, 100) == []


def test_bucket_merge_rollup():
    hour = BucketedAggregates(bucket_seconds=3600)
    day = BucketedAggregates(bucket_seconds=86400)
    for ts in range(0, 7200, 600):
        hour.observe(DataPoint(float(ts), float(ts)))
    for bucket in hour.buckets():
        day.merge_bucket(
            day.bucket_of(bucket * 3600), hour.stats_for(bucket)
        )
    assert day.buckets() == [0]
    assert day.stats_for(0).count == 12


def test_bucket_validation():
    with pytest.raises(ValueError):
        BucketedAggregates(bucket_seconds=0)
    with pytest.raises(ValueError):
        BucketedAggregates(bucket_seconds=60, max_buckets=0)


def test_max_buckets_evicts_oldest():
    buckets = BucketedAggregates(bucket_seconds=60, max_buckets=3)
    for ts in [0, 60, 120, 180, 240]:
        buckets.observe(DataPoint(float(ts), 1.0))
    assert buckets.buckets() == [2, 3, 4]
    assert buckets.evicted_buckets == 2
    assert buckets.stats_for(0) is None
    assert buckets.series(0, 300) == buckets.series(120, 300)


def test_max_buckets_none_retains_everything():
    buckets = BucketedAggregates(bucket_seconds=60)
    for ts in range(0, 6000, 60):
        buckets.observe(DataPoint(float(ts), 1.0))
    assert len(buckets.buckets()) == 100
    assert buckets.evicted_buckets == 0


def test_point_older_than_horizon_is_dropped():
    buckets = BucketedAggregates(bucket_seconds=60, max_buckets=2)
    buckets.observe(DataPoint(300.0, 1.0))
    buckets.observe(DataPoint(360.0, 1.0))
    # Bucket 0 is far behind the retention horizon: it self-evicts.
    buckets.observe(DataPoint(0.0, 1.0))
    assert buckets.buckets() == [5, 6]
    assert buckets.evicted_buckets == 1


def test_max_buckets_applies_to_merged_rollups():
    day = BucketedAggregates(bucket_seconds=86400, max_buckets=2)
    hour_stats = AggregateStats()
    hour_stats.observe(5.0)
    for day_index in range(4):
        day.merge_bucket(day_index, hour_stats)
    assert day.buckets() == [2, 3]
    assert day.evicted_buckets == 2


def test_series_indexes_bucket_range_directly():
    """Regression: series() used to scan every populated bucket; it now
    bisects the sorted index, so a narrow range returns exactly the
    overlapping buckets even amid thousands of others."""
    buckets = BucketedAggregates(bucket_seconds=60)
    for ts in range(0, 60 * 5000, 60):
        buckets.observe(DataPoint(float(ts), 1.0))
    series = buckets.series(60.0 * 2000, 60.0 * 2003)
    assert [bucket for bucket, _ in series] == [2000, 2001, 2002]
    # Range edges: end is exclusive, but a partial last bucket counts.
    series = buckets.series(60.0 * 10 + 30.0, 60.0 * 12 + 1.0)
    assert [bucket for bucket, _ in series] == [10, 11, 12]


def test_pop_bucket_keeps_order_index_consistent():
    buckets = BucketedAggregates(bucket_seconds=60, max_buckets=4)
    for ts in [0, 60, 120]:
        buckets.observe(DataPoint(float(ts), 1.0))
    assert buckets.pop_bucket(1).count == 1
    assert buckets.pop_bucket(1) is None
    assert buckets.buckets() == [0, 2]
    # Eviction after a pop still removes the true oldest.
    for ts in [180, 240, 300]:
        buckets.observe(DataPoint(float(ts), 1.0))
    assert buckets.buckets() == [2, 3, 4, 5]
