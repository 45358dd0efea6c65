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
from unittest import mock

from hypothesis import given
from hypothesis import strategies as st

from repro.storage import (
    ArchiveLog,
    BlockStats,
    SealedBlock,
    TieredSeries,
    decode_floats,
    decode_uints,
    encode_floats,
    encode_uints,
    summarize,
)
from repro.storage import tsblocks
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
    count, t_first, t_last, v_min, v_max, v_sum = summarize(decoded)
    assert count == block.count
    assert t_first == block.t_first
    assert t_last == block.t_last
    assert v_min == block.v_min
    assert v_max == block.v_max
    assert v_sum == block.v_sum or (math.isnan(v_sum) and math.isnan(block.v_sum))


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
        for run in items:
            into.extend(run.decode() if isinstance(run, SealedBlock) else run)

    for offset in range(0, len(pairs), 5):
        batch = pairs[offset:offset + 5]
        flatten(tiered.append_many(batch), tiered_evicted)
        flatten(raw.append_many(batch), raw_evicted)

    # The raw window is point-exact; the tiered one evicts whole 8-point
    # blocks, so it holds the raw window's points plus up to 7 older ones.
    retained = tiered.all_pairs()
    extra = len(tiered) - len(raw)
    assert len(raw) == min(capacity, len(pairs))
    assert 0 <= extra <= 7
    assert retained[extra:] == raw.all_pairs()
    assert tiered_evicted + retained == raw_evicted + raw.all_pairs() == pairs
    t0, t1 = pairs[0][0], pairs[-1][0]
    mid = data.draw(st.floats(min_value=t0, max_value=max(t0, t1),
                              allow_nan=False))
    tiered_range = tiered.range(mid, t1 + 1.0)
    raw_range = raw.range(mid, t1 + 1.0)
    assert tiered_range == [pair for pair in retained if mid <= pair[0]]
    assert tiered_range[len(tiered_range) - len(raw_range):] == raw_range
    newest = min(7, len(raw))
    assert tiered.tail(newest) == raw.tail(newest)
    assert tiered.tail(7) == retained[-7:]


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
        # Batches that do not divide the block size seal and evict blocks
        # at every phase of the head.
        series.append_many(pairs[offset:offset + batch])
    retained = series.all_pairs()
    assert len(series) == len(retained)
    # The newest points, between the capacity floor and one block short of
    # a block over it; point-exact when no 4-point block fits the window.
    assert retained == pairs[len(pairs) - len(retained):]
    floor = min(capacity, len(pairs))
    ceiling = floor if capacity < 4 else capacity + 3
    assert floor <= len(retained) <= ceiling
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


# -- the runtime's decode cache ------------------------------------------------

# Small-integer values beside NaN, ±inf and -0.0: every block sum is exact in
# any order, a block holding NaN or both infinities sums to NaN, and -0.0 only
# survives a round trip that never leaves bit space.
cache_values = st.one_of(
    st.integers(min_value=-3, max_value=3).map(float),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0]),
)
cache_streams = st.lists(
    st.tuples(st.sampled_from([0.0, 0.5, 1.0]), cache_values),
    min_size=12,
    max_size=60,
).map(
    lambda steps: list(
        zip(monotone_timestamps(10.0, [gap for gap, _ in steps]),
            [value for _, value in steps])
    )
)


def pair_bits(pairs):
    return [struct.pack(">dd", *pair) for pair in pairs]


def fold_bits(result):
    return [
        None if value is None else struct.pack(">d", value)
        for value in (result[key] for key in sorted(result))
    ]


def resident_bytes(stats):
    return sum(16 * count for _ts, _values, count in stats._decoded)


@given(
    streams=st.lists(cache_streams, min_size=2, max_size=2),
    capacity=st.integers(min_value=1, max_value=16),
    bound=st.sampled_from([64, 192, tsblocks.DECODE_CACHE_BYTES]),
    ops=st.lists(
        st.tuples(
            st.sampled_from(
                ["append", "append", "append", "reopen", "range", "range",
                 "aggregate", "tail", "latest", "all"]
            ),
            st.integers(min_value=0, max_value=2),  # which series
            st.integers(min_value=0, max_value=59),  # batch size / bound index
            st.integers(min_value=0, max_value=59),  # the other bound index
        ),
        min_size=8,
        max_size=60,
    ),
)
def test_shared_decode_cache_reads_equal_the_plain_decode(
    streams, capacity, bound, ops
):
    # Series 0 and 2 are fed the same stream, so their blocks (sealed at the
    # same offsets whatever the batches) have equal content and share
    # entries; series 1 has its own.  A twin without stats decodes on every
    # read: the cache may change what is decoded, never what a read returns.
    stats = BlockStats()
    cached = [TieredSeries(capacity, 4, stats=stats) for _ in range(3)]
    twins = [TieredSeries(capacity, 4) for _ in range(3)]
    fed = [0, 0, 0]
    with mock.patch.object(tsblocks, "DECODE_CACHE_BYTES", bound):
        for op, index, a, b in ops:
            stream = streams[index % 2]
            series, twin = cached[index], twins[index]
            if op == "append":
                batch = stream[fed[index]:fed[index] + 1 + a % 9]
                fed[index] += len(batch)
                series.append_many(batch)
                twin.append_many(batch)
            elif op == "reopen":  # as a deactivated or migrated actor does
                series.detach_stats()
                cached[index] = TieredSeries.from_document(
                    series.to_document(), stats
                )
                series = cached[index]
            # The plain decoded model: every retained block through
            # ``SealedBlock.decode``, then the head.
            model = [pair for block in series._blocks for pair in block.decode()]
            model += series._head
            assert pair_bits(model) == pair_bits(stream[fed[index] - len(model):
                                                        fed[index]])
            start = stream[a % len(stream)][0] - 0.25 * (b % 3)
            end = stream[b % len(stream)][0] + 0.25 * (a % 3)
            if op == "range":
                expected = [p for p in model if start <= p[0] < end]
                assert pair_bits(series.range(start, end)) == pair_bits(expected)
            elif op == "aggregate":
                assert fold_bits(series.aggregate(start, end)) == fold_bits(
                    twin.aggregate(start, end)
                )
            elif op == "tail":
                count = a % 13
                assert pair_bits(series.tail(count)) == pair_bits(
                    model[max(0, len(model) - count):] if count else []
                )
            elif op == "latest":
                latest = series.latest()
                assert (latest is None) == (not model)
                if model:
                    assert pair_bits([latest]) == pair_bits(model[-1:])
            elif op == "all":
                assert pair_bits(series.all_pairs()) == pair_bits(model)
            assert stats.decode_cache_bytes == resident_bytes(stats) <= bound


@given(
    blocks=st.integers(min_value=3, max_value=12),
    data=st.data(),
)
def test_decode_cache_is_a_byte_bounded_lru(blocks, data):
    # Timestamps step by one, so a read of one block's span touches no other.
    held = data.draw(st.integers(min_value=1, max_value=blocks - 1))
    order = data.draw(st.permutations(range(blocks)))
    order += data.draw(st.lists(st.integers(0, blocks - 1), max_size=40))
    stats = BlockStats()
    series = TieredSeries(capacity=1000, block_size=4, stats=stats)
    series.append_many([(float(i), float(i % 3)) for i in range(4 * blocks)])
    keys = [
        (block.ts_bytes, block.val_bytes, block.count) for block in series._blocks
    ]
    lru: list = []  # the reference: least recently used first
    misses = 0
    with mock.patch.object(tsblocks, "DECODE_CACHE_BYTES", held * 4 * 16):
        for index in order:
            block = series._blocks[index]
            got = series.range(block.t_first, block.t_last + 0.5)
            assert got == block.decode()
            if keys[index] in lru:
                lru.remove(keys[index])
            else:
                misses += 1
            lru = (lru + [keys[index]])[-held:]
            assert list(stats._decoded) == lru
            assert stats.blocks_decoded == misses
            assert stats.decode_cache_bytes == len(lru) * 4 * 16 <= held * 4 * 16
    assert misses >= blocks > held  # more distinct blocks than the bound holds
