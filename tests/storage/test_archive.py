"""Unit tests for the append-only archive log."""

import math

import pytest

from repro.storage import ArchiveLog, ArchiveRecord


@pytest.fixture
def log():
    return ArchiveLog()


def test_append_and_read_range(log):
    for ts in [1.0, 2.0, 3.0, 4.0]:
        log.append("chan-1", ts, ts * 10)
    records = log.read_range("chan-1", 2.0, 4.0)
    assert [r.timestamp for r in records] == [2.0, 3.0]


def test_range_is_half_open(log):
    log.append("s", 1.0, 0.5)
    log.append("s", 2.0, 1.5)
    records = log.read_range("s", 1.0, 2.0)
    assert [r.payload for r in records] == [0.5]


def test_out_of_order_append_rejected(log):
    log.append("s", 5.0, 0.5)
    with pytest.raises(ValueError):
        log.append("s", 4.0, 1.5)


def test_nan_timestamp_is_rejected_as_out_of_order(log):
    # ``nan < last`` is False: a less-than check lets NaN in, after which
    # anything passes and the stream is no longer sorted for read_range.
    log.append("s", 1.0, 1.5)
    log.append("s", 2.0, 2.5)
    with pytest.raises(ValueError, match="older"):
        log.append("s", math.nan, 3.5)
    with pytest.raises(ValueError, match="older"):
        log.append("s", 0.5, 4.5)
    assert [r.timestamp for r in log.read_range("s", 0.0, 10.0)] == [1.0, 2.0]
    with pytest.raises(ValueError, match="older"):
        log.append("fresh", math.nan, 1.0)  # an empty stream too
    log.append("fresh", -math.inf, 1.0)  # any real timestamp may come first


def test_equal_timestamps_allowed(log):
    log.append("s", 1.0, 0.5)
    log.append("s", 1.0, 1.5)
    assert [r.payload for r in log.read_range("s", 1.0, 1.5)] == [0.5, 1.5]


def test_streams_are_independent(log):
    log.append("a", 10.0, 1)
    log.append("b", 1.0, 2)  # older than stream a's head: fine
    assert log.streams() == ["a", "b"]
    assert len(log) == 2


def test_sequence_numbers_are_global_and_increasing(log):
    log.append("a", 1.0, 0.5)
    log.append("b", 1.0, 0.5)
    (first,), (second,) = log.export("a"), log.export("b")
    assert second.sequence == first.sequence + 1


def test_tail(log):
    for ts in range(5):
        log.append("s", float(ts), ts)
    assert [r.payload for r in log.tail("s", 2)] == [3, 4]
    assert log.tail("s", 0) == []
    assert [r.payload for r in log.tail("s", 99)] == [0, 1, 2, 3, 4]
    with pytest.raises(ValueError):
        log.tail("s", -1)


def test_extend_appends_many(log):
    assert log.extend("s", [(1.0, 0.5), (2.0, 1.5)]) == 2
    assert len(log) == 2


def test_extend_is_all_or_nothing(log):
    log.extend("s", [(1.0, 0.5)])
    with pytest.raises(ValueError, match="older"):
        log.extend("s", [(2.0, 1.5), (3.0, 2.5), (2.5, 3.5)])
    with pytest.raises(ValueError, match="not a number"):
        log.extend("s", [(2.0, 1.5), (3.0, "x")])
    assert len(log) == 1
    log.append("s", 2.0, 1.5)  # the rejected runs took no sequence numbers
    assert [r.sequence for r in log.export("s")] == [1, 2]


def test_non_numeric_payload_is_rejected(log):
    for payload in ("event", {"v": 1.0}, None, [1.0]):
        with pytest.raises(ValueError, match="not a number"):
            log.append("s", 1.0, payload)
    assert len(log) == 0 and log.streams() == []
    log.append("s", 1.0, 7)  # an int is a number, archived as a float
    (record,) = log.export("s")
    assert record.payload == 7.0 and type(record.payload) is float


def test_export_missing_stream_is_empty(log):
    assert log.export("nothing") == []


def test_read_range_missing_stream_is_empty(log):
    assert log.read_range("nothing", 0, 100) == []


# -- the block-compressed tier -------------------------------------------------


def test_numeric_head_seals_into_blocks():
    log = ArchiveLog(block_size=8)
    for ts in range(20):
        log.append("s", float(ts), ts * 0.5)
    assert log.blocks_sealed == 2
    assert log.sealed_records == 16
    assert log.block_bytes > 0
    records = log.read_range("s", 0.0, 20.0)
    assert [r.timestamp for r in records] == [float(t) for t in range(20)]
    assert [r.payload for r in records] == [t * 0.5 for t in range(20)]


def test_sealing_preserves_global_sequences():
    log = ArchiveLog(block_size=4)
    expected = []
    for ts in range(10):
        stream = "a" if ts % 2 == 0 else "b"
        log.append(stream, float(ts), 1.0)
        expected.append((stream, ts + 1))  # sequences count from 1
    assert log.blocks_sealed == 2
    for stream in ("a", "b"):
        got = [r.sequence for r in log.read_range(stream, 0.0, 100.0)]
        assert got == [seq for s, seq in expected if s == stream]


def test_append_block_archives_without_decoding():
    from repro.storage import SealedBlock

    log = ArchiveLog(block_size=64)
    pairs = [(float(i), i * 0.25) for i in range(32)]
    count = log.append_block("s", SealedBlock.seal(pairs))
    assert count == 32
    assert log.records_decoded == 0  # archived compressed, never decoded
    assert len(log) == 32
    records = log.read_range("s", 0.0, 100.0)
    assert [(r.timestamp, r.payload) for r in records] == pairs
    sequences = [r.sequence for r in records]
    assert sequences == list(range(sequences[0], sequences[0] + 32))


def test_append_block_sequence_column_bytes():
    # A contiguous run first..first+n-1 is the 64-bit first value, one dod
    # of +1 ('10' + zigzag 2 in 7 bits) and n-2 zero dods, padded to a byte.
    from repro.storage import SealedBlock

    log = ArchiveLog()
    for i in range(5):
        log.append("other", float(i), 1.0)  # advance the global sequence
    pairs = [(float(i), 1.0) for i in range(256)]
    log.append_block("s", SealedBlock.seal(pairs))
    (seq_bytes,) = log._streams["s"].seqs
    bits = 64 + 9 + 254
    pad = -bits % 8
    expected = ((6 << 9 | 0b10_0000010) << (254 + pad)).to_bytes(41, "big")
    assert seq_bytes == expected


def test_append_block_seals_pending_head_first():
    from repro.storage import SealedBlock

    log = ArchiveLog(block_size=64)
    log.append("s", 1.0, 0.5)
    log.append("s", 2.0, 0.75)
    log.append_block("s", SealedBlock.seal([(3.0, 1.0), (4.0, 1.25)]))
    assert log.blocks_sealed == 1  # the 2-record head was sealed
    records = log.read_range("s", 0.0, 100.0)
    assert [r.timestamp for r in records] == [1.0, 2.0, 3.0, 4.0]
    assert [r.sequence for r in records] == sorted(
        r.sequence for r in records
    )


def test_append_block_out_of_order_rejected():
    from repro.storage import SealedBlock

    log = ArchiveLog()
    log.append("s", 10.0, 1.0)
    with pytest.raises(ValueError):
        log.append_block("s", SealedBlock.seal([(5.0, 1.0)]))


def test_range_reads_skip_non_overlapping_blocks():
    log = ArchiveLog(block_size=10)
    for ts in range(100):
        log.append("s", float(ts), 1.0)
    log.records_decoded = 0
    records = log.read_range("s", 42.0, 44.0)
    assert [r.timestamp for r in records] == [42.0, 43.0]
    assert log.records_decoded == 10  # exactly one block decoded


def test_range_cuts_on_block_edges_and_duplicate_timestamps():
    log = ArchiveLog(block_size=4)
    # Three sealed blocks of four, then one head point.
    stamps = [1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 3.0, 4.0, 4.0, 5.0, 5.0, 5.0, 6.0]
    log.extend("s", [(t, float(i)) for i, t in enumerate(stamps)])
    records = [ArchiveRecord("s", t, float(i), i + 1) for i, t in enumerate(stamps)]
    assert log.blocks_sealed == 3
    for start in (0.0, 1.0, 2.0, 2.5, 4.0, 5.0, 6.0, 7.0):
        for end in (1.0, 2.0, 3.0, 4.0, 5.0, 5.5, 6.0, 7.0, math.inf):
            expected = [r for r in records if start <= r.timestamp < end]
            assert log.read_range("s", start, end) == expected, (start, end)
    # A NaN bound selects nothing, in every tier alike.
    assert log.read_range("s", math.nan, 7.0) == []
    assert log.read_range("s", 0.0, math.nan) == []


def test_tail_and_export_keep_infinite_timestamps():
    log = ArchiveLog(block_size=2)
    for ts in (1.0, 2.0, math.inf, math.inf):
        log.append("s", ts, 0.5)
    assert log.blocks_sealed == 2
    assert [r.timestamp for r in log.export("s")] == [1.0, 2.0, math.inf, math.inf]
    assert [r.timestamp for r in log.tail("s", 3)] == [2.0, math.inf, math.inf]


def test_tail_and_export_cross_tiers():
    log = ArchiveLog(block_size=8)
    for ts in range(20):
        log.append("s", float(ts), float(ts))
    assert [r.timestamp for r in log.tail("s", 6)] == [
        14.0, 15.0, 16.0, 17.0, 18.0, 19.0,
    ]
    assert [r.timestamp for r in log.export("s")] == [float(t) for t in range(20)]
