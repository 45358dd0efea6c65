"""Property-based tests of data structures (timeseries, metrics, geo, serde)."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import percentile
from repro.cattle import haversine_meters
from repro.shm import AccumulatedChange, AggregateStats
from repro.storage import snapshot
from repro.storage.tsblocks import SealedBlock, TieredSeries

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@given(values=st.lists(finite_floats, min_size=1, max_size=200))
@settings(max_examples=15, deadline=None)
def test_aggregate_stats_match_batch_formulas(values):
    stats = AggregateStats()
    for value in values:
        stats.observe(value)
    assert stats.count == len(values)
    assert stats.minimum == min(values)
    assert stats.maximum == max(values)
    mean = sum(values) / len(values)
    assert math.isclose(stats.mean, mean, rel_tol=1e-9, abs_tol=1e-6)
    batch_variance = sum((v - mean) ** 2 for v in values) / len(values)
    assert math.isclose(stats.variance, batch_variance, rel_tol=1e-6, abs_tol=1e-5)


@given(
    left=st.lists(finite_floats, min_size=0, max_size=100),
    right=st.lists(finite_floats, min_size=0, max_size=100),
)
@settings(max_examples=15, deadline=None)
def test_aggregate_merge_is_equivalent_to_concatenation(left, right):
    merged = AggregateStats()
    for value in left:
        merged.observe(value)
    other = AggregateStats()
    for value in right:
        other.observe(value)
    merged.merge(other)
    combined = AggregateStats()
    for value in left + right:
        combined.observe(value)
    assert merged.count == combined.count
    if combined.count:
        assert math.isclose(merged.mean, combined.mean, rel_tol=1e-9, abs_tol=1e-6)
        assert math.isclose(
            merged.variance, combined.variance, rel_tol=1e-6, abs_tol=1e-5
        )


def _stats_of(values):
    stats = AggregateStats()
    for value in values:
        stats.observe(value)
    return stats


@given(
    a=st.lists(finite_floats, min_size=0, max_size=60),
    b=st.lists(finite_floats, min_size=0, max_size=60),
    c=st.lists(finite_floats, min_size=0, max_size=60),
)
@settings(max_examples=25, deadline=None)
def test_aggregate_merge_is_associative(a, b, c):
    # (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c): merge mutates the receiver, so each
    # grouping gets its own fresh partial aggregates.
    left = _stats_of(a).merge(_stats_of(b)).merge(_stats_of(c))
    right = _stats_of(a).merge(_stats_of(b).merge(_stats_of(c)))
    assert left.count == right.count
    if left.count:
        assert left.minimum == right.minimum
        assert left.maximum == right.maximum
        assert math.isclose(left.mean, right.mean, rel_tol=1e-9, abs_tol=1e-6)
        assert math.isclose(
            left.variance, right.variance, rel_tol=1e-6, abs_tol=1e-5
        )


@given(values=st.lists(finite_floats, min_size=1, max_size=100))
@settings(max_examples=15, deadline=None)
def test_accumulated_change_invariants(values):
    change = AccumulatedChange()
    for value in values:
        change.observe(value)
    # Total movement always dominates the net displacement.
    assert change.total >= abs(change.net) - 1e-9
    assert change.net == values[-1] - values[0]
    assert change.count == len(values)


@given(
    timestamps=st.lists(
        st.floats(min_value=0, max_value=1e6, allow_nan=False), min_size=1, max_size=150
    ),
    capacity=st.integers(min_value=1, max_value=50),
    block_size=st.sampled_from([0, 8]),
)
@settings(max_examples=15, deadline=None)
def test_window_capacity_and_order_invariants(timestamps, capacity, block_size):
    timestamps = sorted(timestamps)
    window = TieredSeries(capacity, block_size)
    evicted = window.append_many([(ts, 0.0) for ts in timestamps])
    evicted_points = sum(
        item.count if type(item) is SealedBlock else 1 for item in evicted
    )
    assert len(window) == min(capacity, len(timestamps))
    assert evicted_points + len(window) == len(timestamps)
    pairs = window.all_pairs()
    assert [ts for ts, _ in pairs] == timestamps[-len(pairs):]


@given(
    timestamps=st.lists(
        st.floats(min_value=0, max_value=1000, allow_nan=False),
        min_size=1,
        max_size=100,
    ),
    bounds=st.tuples(
        st.floats(min_value=0, max_value=1000, allow_nan=False),
        st.floats(min_value=0, max_value=1000, allow_nan=False),
    ),
    block_size=st.sampled_from([0, 8]),
)
@settings(max_examples=15, deadline=None)
def test_window_range_matches_naive_filter(timestamps, bounds, block_size):
    timestamps = sorted(timestamps)
    start, end = min(bounds), max(bounds)
    window = TieredSeries(1000, block_size)
    window.append_many([(ts, ts) for ts in timestamps])
    got = [ts for ts, _ in window.range(start, end)]
    expected = [ts for ts in timestamps if start <= ts < end]
    assert got == expected


@given(values=st.lists(finite_floats, min_size=1, max_size=200), q=st.floats(0, 1))
@settings(max_examples=15, deadline=None)
def test_percentile_bounded_and_monotone(values, q):
    ordered = sorted(values)
    result = percentile(ordered, q)
    assert ordered[0] - 1e-9 <= result <= ordered[-1] + 1e-9
    if q < 1.0:
        assert percentile(ordered, q) <= percentile(ordered, min(1.0, q + 0.1)) + 1e-9


@given(
    lat1=st.floats(-89, 89), lon1=st.floats(-179, 179),
    lat2=st.floats(-89, 89), lon2=st.floats(-179, 179),
)
@settings(max_examples=15, deadline=None)
def test_haversine_metric_properties(lat1, lon1, lat2, lon2):
    forward = haversine_meters(lat1, lon1, lat2, lon2)
    backward = haversine_meters(lat2, lon2, lat1, lon1)
    assert forward >= 0
    assert math.isclose(forward, backward, rel_tol=1e-9, abs_tol=1e-6)
    assert haversine_meters(lat1, lon1, lat1, lon1) == 0.0
    # Bounded by half the Earth's circumference.
    assert forward <= math.pi * 6_371_000.0 + 1.0


nested_data = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(10**9), max_value=10**9),
        finite_floats,
        st.text(max_size=20),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=8), children, max_size=5),
        st.tuples(children, children),
    ),
    max_leaves=20,
)


@given(value=nested_data)
@settings(max_examples=20, deadline=None)
def test_snapshot_equals_but_isolates(value):
    copied = snapshot(value)
    assert copied == value
    # Mutating a mutable copy never affects the original.
    if isinstance(copied, list):
        copied.append("sentinel")
        assert value == snapshot(value)
    elif isinstance(copied, dict):
        copied["__sentinel__"] = 1
        assert "__sentinel__" not in value
