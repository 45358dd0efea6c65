"""Property-based tests of the tsblocks codec and tiered engine.

The codec's contract is *bit-identical* round-trips: timestamps go
through the IEEE-754 total-order bijection into exact integer
delta-of-delta arithmetic, and values through Gorilla XOR, so nothing
ever leaves bit space.  Exactness is therefore tested with
``struct.pack`` equality (NaN payloads and ``-0.0`` signs included),
not ``==``.

Example counts come from the hypothesis profile (``tests/conftest.py``):
50 per test in tier-1, 2,000 under ``--hypothesis-profile=sweep`` (CI's
``codec-sweep`` job).
"""

import math
import struct

from hypothesis import given
from hypothesis import strategies as st

from repro.storage import (
    ArchiveLog,
    SealedBlock,
    TieredSeries,
    decode_floats,
    decode_uints,
    encode_floats,
    encode_uints,
    summarize,
)
from repro.storage.tsblocks import decode_values, encode_values, merge_folds

any_floats = st.floats(allow_nan=True, allow_infinity=True)


def bits_of(values):
    return [struct.pack(">d", v) for v in values]


def monotone_timestamps(t0, gaps):
    t = t0
    out = []
    for gap in gaps:
        t += gap
        out.append(t)
    return out


timestamp_streams = st.builds(
    monotone_timestamps,
    st.floats(min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False),
    st.lists(
        # Mostly-regular cadence with constant runs (gap 0), unit steps
        # and large irregular holes — everything a window can accept.
        st.one_of(
            st.just(0.0),
            st.just(1.0),
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                      allow_infinity=False),
        ),
        min_size=1,
        max_size=120,
    ),
)


@given(values=st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1),
                       min_size=0, max_size=150))
def test_uint_codec_roundtrips_exactly(values):
    assert decode_uints(encode_uints(values), len(values)) == values


@given(stamps=timestamp_streams)
def test_monotone_timestamps_roundtrip_bit_identically(stamps):
    decoded = decode_floats(encode_floats(stamps), len(stamps))
    assert bits_of(decoded) == bits_of(stamps)


@given(values=st.lists(any_floats, min_size=0, max_size=150))
def test_value_codec_roundtrips_arbitrary_floats_bit_identically(values):
    # Arbitrary floats: NaNs (payload preserved), ±inf, -0.0, constant
    # runs, denormals — the XOR codec never interprets, only stores bits.
    decoded = decode_values(encode_values(values), len(values))
    assert bits_of(decoded) == bits_of(values)


@given(
    uints=st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1), max_size=40),
    stamps=timestamp_streams,
    values=st.lists(
        st.one_of(any_floats, st.sampled_from([0.0, 1.5, 1.5, 1.75])), max_size=40
    ),
)
def test_decoding_a_prefix_is_a_prefix_of_the_decode(uints, stamps, values):
    # A decoder stops after ``count`` values wherever that falls: inside a
    # zero run, between fields, before the padding.
    stamps = stamps[:40]
    for column, encode, decode in (
        (uints, encode_uints, decode_uints),
        (stamps, encode_floats, decode_floats),
        (values, encode_values, decode_values),
    ):
        data = encode(column)
        whole = decode(data, len(column))
        for count in range(len(column) + 1):
            part = decode(data, count)
            if column is uints:
                assert part == whole[:count]
            else:
                assert bits_of(part) == bits_of(whole[:count])


@given(value=any_floats, count=st.integers(min_value=1, max_value=400))
def test_constant_runs_compress_to_one_bit_per_repeat(value, count):
    encoded = encode_values([value] * count)
    assert len(encoded) <= 8 + (count + 7) // 8 + 1
    assert bits_of(decode_values(encoded, count)) == bits_of([value] * count)


@given(stamps=timestamp_streams, data=st.data())
def test_sealed_block_roundtrips_and_summary_matches_fold(stamps, data):
    values = data.draw(
        st.lists(any_floats, min_size=len(stamps), max_size=len(stamps))
    )
    pairs = list(zip(stamps, values))
    block = SealedBlock.seal(pairs)
    decoded = block.decode()
    assert [bits_of(p) for p in decoded] == [bits_of(p) for p in pairs]
    # Summary-vs-decoded-fold consistency: the seal-time summary is the
    # same fold the query path would compute from the decoded points.
    refold = summarize(decoded)
    assert refold.count == block.summary.count
    assert refold.t_first == block.summary.t_first
    assert refold.t_last == block.summary.t_last
    assert refold.v_min == block.summary.v_min
    assert refold.v_max == block.summary.v_max
    assert refold.v_sum == block.summary.v_sum or (
        math.isnan(refold.v_sum) and math.isnan(block.summary.v_sum)
    )


@given(stamps=timestamp_streams, data=st.data())
def test_tiered_series_equals_raw_window_on_any_stream(stamps, data):
    values = data.draw(
        st.lists(
            st.floats(min_value=-1e9, max_value=1e9, allow_nan=False,
                      allow_infinity=False),
            min_size=len(stamps),
            max_size=len(stamps),
        )
    )
    pairs = list(zip(stamps, values))
    capacity = data.draw(st.integers(min_value=1, max_value=len(pairs) + 10))
    tiered = TieredSeries(capacity, block_size=8)
    raw = TieredSeries(capacity, block_size=0)
    tiered_evicted, raw_evicted = [], []

    def flatten(items, into):
        for item in items:
            if isinstance(item, SealedBlock):
                into.extend(item.decode())
            else:
                into.append(item)

    for offset in range(0, len(pairs), 5):
        batch = pairs[offset:offset + 5]
        flatten(tiered.append_many(batch), tiered_evicted)
        flatten(raw.append_many(batch), raw_evicted)

    assert tiered.all_pairs() == raw.all_pairs()
    assert tiered_evicted == raw_evicted
    assert len(tiered) == len(raw) <= capacity
    t0, t1 = pairs[0][0], pairs[-1][0]
    mid = data.draw(st.floats(min_value=t0, max_value=max(t0, t1),
                              allow_nan=False))
    assert tiered.range(mid, t1 + 1.0) == raw.range(mid, t1 + 1.0)
    assert tiered.tail(7) == raw.tail(7)


@given(stamps=timestamp_streams, data=st.data())
def test_aggregate_equals_fold_of_decoded_range(stamps, data):
    values = data.draw(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                      allow_infinity=False),
            min_size=len(stamps),
            max_size=len(stamps),
        )
    )
    pairs = list(zip(stamps, values))
    series = TieredSeries(capacity=len(pairs) + 1, block_size=8)
    series.append_many(pairs)
    t0, t1 = pairs[0][0], pairs[-1][0] + 1.0
    got = series.aggregate(t0, t1)
    expected = merge_folds([summarize(pairs)])
    assert got["count"] == expected["count"]
    assert got["min"] == expected["min"]
    assert got["max"] == expected["max"]
    assert math.isclose(got["sum"], expected["sum"],
                        rel_tol=1e-9, abs_tol=1e-9)


# -- reads cut by bisection == brute force -------------------------------------

# Duplicate-heavy timestamps on a coarse grid and small-integer values, so
# range ends land exactly on points and block edges, and every sum is exact
# whatever the fold order.
gridded_pairs = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.0, 0.0, 0.5, 1.0, 4.0]),
        st.integers(min_value=-50, max_value=50),
    ),
    min_size=1,
    max_size=90,
).map(
    lambda steps: list(
        zip(monotone_timestamps(100.0, [gap for gap, _ in steps]),
            [float(value) for _, value in steps])
    )
)


def bounds_around(data, pairs):
    """A [start, end) whose ends sit on, or a quarter step beside, a point."""
    edges = st.sampled_from(pairs).flatmap(
        lambda pair: st.sampled_from([pair[0] - 0.25, pair[0], pair[0] + 0.25])
    )
    return data.draw(edges), data.draw(edges)


def fold(pairs):
    return merge_folds([summarize(pairs)] if pairs else [])


@given(pairs=gridded_pairs, data=st.data())
def test_range_and_aggregate_equal_brute_force_over_all_pairs(pairs, data):
    capacity = data.draw(st.integers(min_value=1, max_value=len(pairs) + 5))
    batch = data.draw(st.integers(min_value=1, max_value=11))
    series = TieredSeries(capacity, block_size=4)
    for offset in range(0, len(pairs), batch):
        # Batches that do not divide the block size leave a part-evicted
        # old side behind.
        series.append_many(pairs[offset:offset + batch])
    retained = series.all_pairs()
    assert retained == pairs[-capacity:]
    assert len(series) == len(retained)
    for _ in range(4):
        start, end = bounds_around(data, pairs)
        expected = [p for p in retained if start <= p[0] < end]
        assert series.range(start, end) == expected
        assert series.aggregate(start, end) == fold(expected)
    # Ends exactly on every block's first and last timestamp.
    for block in series._blocks:
        for start, end in ((block.t_first, block.t_last), (block.t_last, math.inf)):
            expected = [p for p in retained if start <= p[0] < end]
            assert series.range(start, end) == expected
            assert series.aggregate(start, end) == fold(expected)


@given(pairs=gridded_pairs, data=st.data())
def test_archive_read_range_equals_brute_force_over_the_export(pairs, data):
    log = ArchiveLog(block_size=4)
    split = data.draw(st.integers(min_value=0, max_value=len(pairs)))
    for timestamp, value in pairs[:split]:
        log.append("s", timestamp, value)
    if pairs[split:]:  # the rest arrives as one window-evicted block
        log.append_block("s", SealedBlock.seal(pairs[split:]))
    records = log.export("s")
    assert [(r.timestamp, r.payload) for r in records] == pairs
    assert [r.sequence for r in records] == list(range(1, len(pairs) + 1))
    for _ in range(4):
        start, end = bounds_around(data, pairs)
        expected = [r for r in records if start <= r.timestamp < end]
        assert log.read_range("s", start, end) == expected
