"""The tsblocks byte format is frozen, and so is the codec's cost shape.

``golden_tsblocks.json`` holds inputs (as bit patterns) and the bytes the
original per-bit encoder produced for them, recorded before the one-pass
codec replaced it.  Any encoder must reproduce those bytes exactly and any
decoder must invert them bit for bit — stored blocks live in state
documents, the redo journal and the archive, so a one-bit drift is data
loss, not a compression regression.

The call-count guards pin the other half of the contract: a block is
decoded and sealed by a handful of Python-level calls, not one per bit.
"""

import json
import math
import struct
import sys
from pathlib import Path

import pytest

from repro.storage import ArchiveLog, SealedBlock, TieredSeries
from repro.storage.tsblocks import (
    BlockSummary,
    decode_floats,
    decode_uints,
    decode_values,
    encode_floats,
    encode_uints,
    encode_values,
)

GOLDEN = json.loads(
    (Path(__file__).parent / "golden_tsblocks.json").read_text()
)
ENCODERS = {"uints": encode_uints, "floats": encode_floats, "values": encode_values}
DECODERS = {"uints": decode_uints, "floats": decode_floats, "values": decode_values}


def words(text):
    return [int(text[i:i + 16], 16) for i in range(0, len(text), 16)]


def floats_of(text):
    return [struct.unpack(">d", struct.pack(">Q", w))[0] for w in words(text)]


def bits_of(values):
    return [struct.unpack(">Q", struct.pack(">d", v))[0] for v in values]


def same_float(got, hex_word):
    if hex_word is None:
        return got is None
    (expected,) = floats_of(hex_word)
    if math.isnan(expected):  # arithmetic NaNs differ in sign across platforms
        return math.isnan(got)
    return bits_of([got]) == words(hex_word)


@pytest.mark.parametrize("case", GOLDEN["columns"], ids=lambda c: c["name"])
def test_column_bytes_are_frozen(case):
    codec = case["codec"]
    raw = words(case["input"])
    values = raw if codec == "uints" else floats_of(case["input"])
    assert len(values) == case["count"]
    encoded = bytes.fromhex(case["encoded"])
    assert ENCODERS[codec](values) == encoded
    decoded = DECODERS[codec](encoded, case["count"])
    assert (decoded if codec == "uints" else bits_of(decoded)) == raw


@pytest.mark.parametrize("case", GOLDEN["blocks"], ids=lambda c: c["name"])
def test_sealed_block_bytes_and_summary_are_frozen(case):
    pairs = list(zip(floats_of(case["timestamps"]), floats_of(case["values"])))
    assert len(pairs) == case["count"]
    block = SealedBlock.seal(pairs)
    assert block.ts_bytes == bytes.fromhex(case["ts_bytes"])
    assert block.val_bytes == bytes.fromhex(case["val_bytes"])
    expected = case["summary"]
    assert block.summary.count == expected["count"]
    for field in ("t_first", "t_last", "v_min", "v_max", "v_sum"):
        assert same_float(getattr(block.summary, field), expected[field]), field
    # Decode from the recorded bytes, not from what seal() just produced.
    stored = SealedBlock(
        bytes.fromhex(case["ts_bytes"]),
        bytes.fromhex(case["val_bytes"]),
        BlockSummary(case["count"], 0.0, 0.0, None, None, 0.0),
    )
    decoded = stored.decode()
    assert bits_of(p[0] for p in decoded) == words(case["timestamps"])
    assert bits_of(p[1] for p in decoded) == words(case["values"])


def test_golden_file_covers_the_lengths_and_buckets_it_claims():
    lengths = {c["count"] for c in GOLDEN["columns"] + GOLDEN["blocks"]}
    assert {0, 1, 2, 255, 256, 300} <= lengths
    every_bucket = next(
        c for c in GOLDEN["columns"] if c["name"] == "uints_every_dod_bucket"
    )
    values = words(every_bucket["input"])
    deltas = [b - a for a, b in zip(values, values[1:])]
    dods = [b - a for a, b in zip([0] + deltas, deltas)]
    zigzag = [(d << 1) if d >= 0 else ((-d) << 1) - 1 for d in dods]
    for width in (7, 12, 20, 32):  # both edges of every bounded bucket
        assert (1 << width) - 1 in zigzag and (1 << width) in zigzag
    assert 0 in zigzag


# -- cost shape ----------------------------------------------------------------


def ledger_block():
    case = next(
        c for c in GOLDEN["blocks"] if c["name"] == "block_ledger_shape_256"
    )
    return list(zip(floats_of(case["timestamps"]), floats_of(case["values"])))


def python_calls(function, *args):
    """Python-level function entries made while running ``function(*args)``."""
    calls = []

    def profiler(frame, event, _arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    sys.setprofile(profiler)
    try:
        function(*args)
    finally:
        sys.setprofile(None)
    return calls


def test_decoding_a_block_is_a_handful_of_python_calls():
    # A per-bit codec makes ~1,500 calls here (the original: 1,498) and a
    # per-point helper 256+; the one-pass codec makes 6.  The ceiling
    # leaves room for refactors, not for either of those.
    block = SealedBlock.seal(ledger_block())
    calls = python_calls(block.decode)
    assert len(calls) <= 40, calls


def test_sealing_a_block_is_a_handful_of_python_calls():
    # The original per-bit codec: 1,527 calls; one pass: 15.
    pairs = ledger_block()
    calls = python_calls(SealedBlock.seal, pairs)
    assert len(calls) <= 40, calls


# -- entry points the perf ledger attributes by --------------------------------


@pytest.fixture
def codec_calls(monkeypatch):
    """Count entries into ``SealedBlock.decode`` / ``SealedBlock.seal``."""
    seen = {"decode": 0, "seal": 0}
    real_decode = SealedBlock.decode
    real_seal = SealedBlock.seal.__func__

    def decode(self):
        seen["decode"] += 1
        return real_decode(self)

    def seal(cls, pairs):
        seen["seal"] += 1
        return real_seal(cls, pairs)

    monkeypatch.setattr(SealedBlock, "decode", decode)
    monkeypatch.setattr(SealedBlock, "seal", classmethod(seal))
    return seen


def test_series_reads_and_seals_go_through_the_sealed_block_entry_points(
    codec_calls,
):
    series = TieredSeries(capacity=1000, block_size=16)
    series.append_many([(float(i), i * 0.5) for i in range(40)])
    assert codec_calls == {"decode": 0, "seal": 2}  # head overflowed twice
    assert len(series.range(3.0, 9.0)) == 6  # cold: cuts into block 0
    assert codec_calls["decode"] == 1


def test_archive_reads_and_seals_go_through_the_sealed_block_entry_points(
    codec_calls,
):
    log = ArchiveLog(block_size=8)
    for i in range(20):
        log.append("s", float(i), i * 0.5)
    assert codec_calls == {"decode": 0, "seal": 2}
    assert len(log.read_range("s", 3.0, 6.0)) == 3
    assert codec_calls["decode"] == 1
