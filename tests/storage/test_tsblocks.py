"""Unit tests for the tiered, compressed time-series engine."""

import math

import pytest

from repro.storage.tsblocks import (
    BlockStats,
    SealedBlock,
    TieredSeries,
    decode_floats,
    decode_uints,
    decode_values,
    encode_floats,
    encode_uints,
    encode_values,
    merge_folds,
    summarize,
)


def walk(count, t0=1000.0, dt=1.0, v0=20.0):
    return [(t0 + i * dt, v0 + (i % 7) * 0.25) for i in range(count)]


# -- codecs --------------------------------------------------------------------


def test_uint_roundtrip_regular_and_irregular():
    regular = [1000 + 10 * i for i in range(500)]
    assert decode_uints(encode_uints(regular), len(regular)) == regular
    irregular = [0, 1, 5, 5, 6, 1 << 40, (1 << 40) + 3]
    assert decode_uints(encode_uints(irregular), len(irregular)) == irregular


def test_uint_regular_stream_costs_about_one_bit_per_point():
    regular = [1_000_000 + i for i in range(4096)]
    encoded = encode_uints(regular)
    # 8-byte header + ~1 bit per subsequent point.
    assert len(encoded) < 8 + 4096 // 8 + 16


def test_float_timestamp_roundtrip_is_exact():
    stamps = [1e9 + i * 0.1 for i in range(300)]
    decoded = decode_floats(encode_floats(stamps), len(stamps))
    assert all(a == b for a, b in zip(decoded, stamps))


def test_value_codec_roundtrips_special_floats():
    values = [1.5, 1.5, -0.0, 0.0, math.inf, -math.inf, math.nan, 2.25]
    decoded = decode_values(encode_values(values), len(values))
    assert len(decoded) == len(values)
    for got, expected in zip(decoded, values):
        if math.isnan(expected):
            assert math.isnan(got)
        else:
            assert got == expected
            # -0.0 == 0.0 compares equal; require the sign to survive too.
            assert math.copysign(1.0, got) == math.copysign(1.0, expected)


def test_value_codec_constant_run_is_one_bit_per_repeat():
    values = [42.5] * 1000
    encoded = encode_values(values)
    assert len(encoded) <= 8 + 1000 // 8 + 2
    assert decode_values(encoded, 1000) == values


def test_empty_codec_inputs():
    assert encode_uints([]) == b""
    assert decode_uints(b"", 0) == []
    assert encode_floats([]) == b""
    assert decode_floats(b"", 0) == []
    assert encode_values([]) == b""
    assert decode_values(b"", 0) == []


@pytest.mark.parametrize(
    "encode, decode, column",
    [
        (encode_uints, decode_uints, [7] * 200),  # cut inside a zero run
        (encode_uints, decode_uints, [i * i for i in range(200)]),
        (encode_floats, decode_floats, [0.1 * i for i in range(200)]),
        (encode_values, decode_values, [42.5] * 200),
        (encode_values, decode_values, [1.0 / (i + 1) for i in range(200)]),
    ],
)
def test_asking_for_more_than_the_payload_holds_raises(encode, decode, column):
    encoded = encode(column)
    for data in (encoded[:-3], encoded[:11], encoded[:8], encoded[:3], b""):
        with pytest.raises((ValueError, IndexError)):
            decode(data, len(column))


# -- summaries & blocks --------------------------------------------------------


def test_summary_fields():
    pairs = [(1.0, 5.0), (2.0, -1.0), (3.0, 4.0)]
    summary = summarize(pairs)
    assert summary.count == 3
    assert summary.t_first == 1.0 and summary.t_last == 3.0
    assert summary.v_min == -1.0 and summary.v_max == 5.0
    assert summary.v_sum == 8.0


def test_summary_all_nan_extents_are_none():
    summary = summarize([(1.0, math.nan), (2.0, math.nan)])
    assert summary.v_min is None and summary.v_max is None
    assert summary.count == 2


def test_summarize_empty_raises():
    with pytest.raises(ValueError):
        summarize([])


def test_merge_folds_matches_flat_fold():
    pairs = walk(100)
    merged = merge_folds([summarize(pairs[:40]), summarize(pairs[40:])])
    flat = summarize(pairs)
    assert merged["count"] == flat.count
    assert merged["min"] == flat.v_min and merged["max"] == flat.v_max
    assert merged["sum"] == pytest.approx(flat.v_sum)


def test_sealed_block_roundtrip_and_document():
    pairs = walk(64)
    block = SealedBlock.seal(pairs)
    assert block.decode() == pairs
    assert block.count == 64
    assert block.nbytes < 16 * 64  # actually compresses
    restored = SealedBlock.from_document(block.as_document())
    assert restored.decode() == pairs
    assert restored.summary == block.summary


# -- TieredSeries: writes, sealing, eviction -----------------------------------


def test_append_seals_full_blocks():
    series = TieredSeries(capacity=10_000, block_size=16)
    series.append_many(walk(40))
    assert series.sealed_blocks == 2
    assert len(series) == 40
    assert series.all_pairs() == walk(40)


def test_block_size_zero_is_a_raw_window():
    series = TieredSeries(capacity=100, block_size=0)
    series.append_many(walk(300))
    assert series.sealed_blocks == 0
    assert len(series) == 100
    assert series.all_pairs() == walk(300)[-100:]


def test_out_of_order_append_rejected():
    series = TieredSeries()
    series.append(5.0, 1.0)
    with pytest.raises(ValueError):
        series.append(4.0, 1.0)
    series.append(5.0, 2.0)  # equal timestamps are fine


def test_nan_timestamp_is_rejected_as_out_of_order():
    # ``nan < last`` is False, so a less-than check waves NaN through and
    # every later comparison against it passes too: the series stops being
    # sorted, which range()'s bisection relies on.
    series = TieredSeries(capacity=100, block_size=4)
    series.append_many([(1.0, 10.0), (2.0, 20.0)])
    with pytest.raises(ValueError, match="out-of-order"):
        series.append(math.nan, 30.0)
    with pytest.raises(ValueError, match="out-of-order"):
        series.append(0.5, 40.0)
    with pytest.raises(ValueError, match="out-of-order"):
        series.append_many([(3.0, 1.0), (math.nan, 2.0), (4.0, 3.0)])
    assert series.range(0.0, 10.0) == [(1.0, 10.0), (2.0, 20.0)]
    with pytest.raises(ValueError, match="out-of-order"):
        TieredSeries().append(math.nan, 1.0)  # an empty series too
    TieredSeries().append(-math.inf, 1.0)  # any real timestamp may come first


def test_non_numeric_value_is_rejected_before_anything_is_stored():
    # Refused up front: a string in the head would make a later seal fail in
    # the block summary after the run had left the head, losing the valid
    # points and failing the caller whose data was fine.
    series = TieredSeries(100, 4)
    for value in ("x", None, {"v": 1.0}, (1.0,)):
        with pytest.raises(ValueError, match="not a number"):
            series.append_many([(0.0, 1.0), (1.0, value)])
    assert len(series) == series.total_appended == 0
    series.append_many([(0.0, 1.0), (1.0, 1.5)])
    series.append_many([(2.0, 2.0), (3.0, 3.0)])
    assert len(series) == series.total_appended == 4
    assert series.all_pairs() == [(0.0, 1.0), (1.0, 1.5), (2.0, 2.0), (3.0, 3.0)]


def test_int_values_are_stored_as_floats():
    # A sealed block returns floats, so the head must too: one point reads
    # the same from every tier.
    series = TieredSeries(100, 4)
    series.append_many([(0.0, 1), [1.0, 2]])
    assert series.tail(2) == [(0.0, 1.0), (1.0, 2.0)]
    assert all(type(value) is float for _, value in series.tail(2))


def test_timestamps_are_stored_as_floats_in_every_tier():
    # The fourth point seals a block; the head keeps the fifth.  Both tiers
    # hand back float timestamps, as a stored document would.
    series = TieredSeries(100, 4)
    series.append_many([(0, 1.0), (1, 2.0), (2, 3.0), (3, 4.0), (4, 5.0)])
    read = series.range(0, 10)
    assert read == [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0), (3.0, 4.0), (4.0, 5.0)]
    assert all(type(timestamp) is float for timestamp, _ in read)


def test_non_numeric_timestamp_is_rejected_before_anything_is_stored():
    series = TieredSeries(100, 4)
    series.append_many([(0.0, 1.0)])
    for timestamp in ("5", None, b"5", 10**400):
        with pytest.raises(ValueError, match="timestamp .* not a number"):
            series.append_many([(1.0, 1.0), (timestamp, 2.0)])
    assert series.all_pairs() == [(0.0, 1.0)]
    assert series.total_appended == 1


def feed_in_sevens(series, pairs):
    """Append ``pairs`` in 7-point batches; return every evicted run."""
    runs = []
    for offset in range(0, len(pairs), 7):
        runs.extend(series.append_many(pairs[offset:offset + 7]))
    return runs


def test_capacity_evicts_whole_blocks(monkeypatch):
    stats = BlockStats()
    series = TieredSeries(capacity=50, block_size=16, stats=stats)
    pairs = walk(173)
    decoded = []
    decode = SealedBlock.decode
    monkeypatch.setattr(
        SealedBlock, "decode", lambda block: decoded.append(block) or decode(block)
    )
    runs = feed_in_sevens(series, pairs)
    assert decoded == []  # appends, seals and evictions decode nothing
    monkeypatch.undo()
    # 10 blocks sealed; the oldest leaves while 50 points stay behind it, so
    # 7 leave whole and 3 blocks + a 13-point head (61 points) are retained.
    assert [type(run) for run in runs] == [SealedBlock] * 7
    assert [run.count for run in runs] == [16] * 7
    assert len(series) == 61 and series.sealed_blocks == 3
    assert stats.blocks_evicted == 7 and stats.blocks_decoded == 0
    evicted = [pair for run in runs for pair in run.decode()]
    assert evicted + series.all_pairs() == pairs


@pytest.mark.parametrize("block_size", [0, 64], ids=["raw", "block-over-capacity"])
def test_a_window_without_blocks_evicts_point_exactly(block_size):
    stats = BlockStats()
    series = TieredSeries(capacity=50, block_size=block_size, stats=stats)
    pairs = walk(173)
    runs = feed_in_sevens(series, pairs)
    # A 64-point block could never be retained whole in a 50-point window,
    # so none is sealed: both windows slice their evictions off the head.
    assert all(type(run) is list for run in runs)
    assert stats.blocks_sealed == 0 and series.sealed_blocks == 0
    assert len(series) == 50
    assert [pair for run in runs for pair in run] + series.all_pairs() == pairs


def test_bulk_eviction_yields_whole_blocks():
    series = TieredSeries(capacity=64, block_size=16)
    series.append_many(walk(64))
    evicted = series.append_many(walk(64, t0=2000.0))
    blocks = [item for item in evicted if isinstance(item, SealedBlock)]
    assert blocks, "a 64-point overflow should evict whole sealed blocks"
    decoded = []
    for run in evicted:
        decoded.extend(run.decode() if isinstance(run, SealedBlock) else run)
    assert decoded == walk(64)


# -- TieredSeries: reads -------------------------------------------------------


def test_range_stitches_old_blocks_and_head():
    series = TieredSeries(capacity=100, block_size=16)
    pairs = walk(230)
    for offset in range(0, len(pairs), 9):  # batches out of step with blocks
        series.append_many(pairs[offset:offset + 9])
    retained = pairs[-100:]
    t0, t1 = retained[3][0], retained[-3][0]
    expected = [p for p in retained if t0 <= p[0] < t1]
    assert series.range(t0, t1) == expected
    assert series.range(t1, t0) == []


def test_range_skips_blocks_outside_window():
    stats = BlockStats()
    series = TieredSeries(capacity=10_000, block_size=16, stats=stats)
    series.append_many(walk(160))
    series.range(1000.0, 1008.0)  # only the first block overlaps
    assert stats.blocks_considered == 10
    assert stats.blocks_skipped == 9
    assert stats.block_skip_rate == pytest.approx(0.9)


def test_range_cuts_on_block_edges_and_duplicate_timestamps():
    series = TieredSeries(capacity=1000, block_size=4)
    # Three sealed blocks of four, then one head point.
    stamps = [1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 3.0, 4.0, 4.0, 5.0, 5.0, 5.0, 6.0]
    pairs = [(t, float(i)) for i, t in enumerate(stamps)]
    series.append_many(pairs)
    assert series.sealed_blocks == 3
    for start in (0.0, 1.0, 2.0, 2.5, 4.0, 5.0, 6.0, 7.0):
        for end in (1.0, 2.0, 3.0, 4.0, 5.0, 5.5, 6.0, 7.0):
            expected = [p for p in pairs if start <= p[0] < end]
            assert series.range(start, end) == expected, (start, end)
            assert series.aggregate(start, end)["count"] == len(expected)
    # A NaN bound selects nothing, in every tier alike.
    for start, end in ((math.nan, 7.0), (0.0, math.nan)):
        assert series.range(start, end) == []
        assert series.aggregate(start, end)["count"] == 0


def test_reads_do_not_hand_out_the_cached_decode():
    # The decode cache is read in place (no defensive copy), so nothing a
    # caller may mutate can be the cached list itself.
    series = TieredSeries(capacity=1000, block_size=8)
    pairs = walk(20)
    series.append_many(pairs)
    for read in (
        lambda: series.range(pairs[0][0], pairs[7][0] + 0.5),  # a whole block
        lambda: series.tail(12),
        lambda: series.all_pairs(),
    ):
        first = read()
        first.clear()
        assert read() != []
    assert series.all_pairs() == pairs


def test_evicted_block_leaves_the_decode_cache():
    stats = BlockStats()
    series = TieredSeries(capacity=20, block_size=8, stats=stats)
    series.append_many(walk(20))  # blocks [0:8) [8:16), head [16:20)
    series.range(1000.0, 1004.0)  # decode + cache the oldest block
    cached = series._cache_block
    assert cached is series._blocks[0]
    # 3 more points leave 15 behind the oldest block: it stays.
    assert series.append_many(walk(3, t0=2000.0)) == []
    assert series._cache_block is cached
    # A seal leaves 20 behind it: it goes whole, and the slot, which could
    # never hit again, lets go of its decoded pairs.
    assert series.append_many(walk(5, t0=3000.0)) == [cached]
    assert series._cache_block is None and series._cache_pairs is None
    assert stats.blocks_decoded == 1  # the read's; eviction decodes nothing
    everything = walk(20) + walk(3, t0=2000.0) + walk(5, t0=3000.0)
    assert series.all_pairs() == everything[-20:]


def test_tail_and_latest():
    series = TieredSeries(capacity=10_000, block_size=16)
    pairs = walk(100)
    series.append_many(pairs)
    assert series.latest() == pairs[-1]
    assert series.tail(3) == pairs[-3:]
    assert series.tail(50) == pairs[-50:]  # crosses into sealed blocks
    assert series.tail(0) == []
    assert TieredSeries().latest() is None


def test_aggregate_matches_raw_fold():
    series = TieredSeries(capacity=10_000, block_size=16)
    pairs = walk(200)
    series.append_many(pairs)
    t0, t1 = pairs[10][0], pairs[150][0]
    expected = summarize([p for p in pairs if t0 <= p[0] < t1])
    got = series.aggregate(t0, t1)
    assert got["count"] == expected.count
    assert got["min"] == expected.v_min and got["max"] == expected.v_max
    assert got["sum"] == pytest.approx(expected.v_sum)
    assert got["mean"] == pytest.approx(expected.v_sum / expected.count)


def test_aggregate_uses_summaries_for_covered_blocks():
    stats = BlockStats()
    series = TieredSeries(capacity=10_000, block_size=16, stats=stats)
    pairs = walk(160)
    series.append_many(pairs)
    series.aggregate(pairs[0][0], pairs[-1][0] + 1.0)
    assert stats.summary_answers == 10
    assert stats.blocks_decoded == 0


# -- stats & persistence -------------------------------------------------------


def test_stats_accounting_balances():
    stats = BlockStats()
    series = TieredSeries(capacity=50, block_size=16, stats=stats)
    series.append_many(walk(173))
    mem = series.memory_stats()
    assert stats.head_points == mem["head_points"]
    assert stats.block_bytes == mem["block_bytes"]
    assert stats.sealed_points == mem["sealed_points"]
    assert stats.compression_ratio > 1.0
    # __len__ reads a running count; memory_stats() recounts the blocks.
    assert series._sealed_points == mem["sealed_points"]
    # 10 blocks + a 13-point head; 7 blocks evicted whole leave 61 points.
    assert len(series) == mem["points"] == 61
    series.detach_stats()
    assert stats.head_points == 0
    assert stats.block_bytes == 0
    assert stats.sealed_points == 0
    assert series.stats is None
    series.detach_stats()  # idempotent


def test_document_roundtrip_preserves_pairs_and_tiers():
    series = TieredSeries(capacity=100, block_size=16)
    pairs = walk(230)
    for offset in range(0, len(pairs), 9):
        series.append_many(pairs[offset:offset + 9])
    doc = series.to_document()
    restored = TieredSeries.from_document(doc)
    assert restored.all_pairs() == series.all_pairs()
    assert restored.capacity == series.capacity
    assert restored.block_size == series.block_size
    # Appends keep working after a re-open, and eviction still evicts whole
    # blocks down to the capacity floor.
    restored.append_many(walk(30, t0=9000.0))
    assert len(restored) == 100


def test_the_document_is_built_once_per_window_version():
    series = TieredSeries(capacity=10, block_size=4)
    versions = []

    def document_after(pairs):
        series.append_many(pairs)
        document = series.to_document()
        assert series.to_document() is document  # until the next write
        assert type(document["blocks"]) is tuple
        assert type(document["head"]) is bytes
        assert TieredSeries.from_document(document).all_pairs() == (
            series.all_pairs()
        )
        versions.append(document)
        return document

    document_after(walk(2))
    document_after(walk(1, t0=2000.0))  # a head append
    assert series.sealed_blocks == 0
    sealed = document_after(walk(1, t0=2001.0))  # the head reaches 4: seal
    assert len(sealed["blocks"]) == 1 and sealed["head"] == b""
    document_after(walk(4, t0=2002.0))
    document_after(walk(4, t0=2006.0))  # 12 points, 8 behind the oldest block
    assert series.sealed_blocks == 3
    evicted = document_after(walk(3, t0=2010.0))  # 15: 11 behind it, evict it
    assert series.sealed_blocks == 2 and len(series) == 11
    # The document is the live blocks, byte for byte (nothing re-sealed),
    # and the head.
    assert evicted["blocks"] == tuple(
        block.as_document() for block in series._blocks
    )
    assert all(
        doc[0] is block.ts_bytes and doc[1] is block.val_bytes
        for doc, block in zip(evicted["blocks"], series._blocks)
    )
    assert len(evicted["head"]) == 3 * 16
    document_after(walk(1, t0=2013.0))  # a head append after an eviction
    assert len({id(document) for document in versions}) == len(versions)


def test_an_empty_batch_keeps_the_document():
    series = TieredSeries(capacity=10, block_size=4)
    series.append_many(walk(3))
    document = series.to_document()
    series.append_many([])
    assert series.to_document() is document


def test_document_restore_registers_stats():
    series = TieredSeries(capacity=100, block_size=16)
    series.append_many(walk(80))
    stats = BlockStats()
    restored = TieredSeries.from_document(series.to_document(), stats)
    mem = restored.memory_stats()
    assert len(restored) == mem["points"] == 80
    assert stats.head_points == mem["head_points"]
    assert stats.sealed_points == mem["sealed_points"]
    assert stats.block_bytes == mem["block_bytes"]


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        TieredSeries(capacity=0)
    with pytest.raises(ValueError):
        TieredSeries(block_size=-1)
