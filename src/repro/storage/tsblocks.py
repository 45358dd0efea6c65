"""Compressed, tiered time-series blocks (the TritanDB direction).

Per-sensor history in actor state was raw ``DataPoint`` objects — ~300
bytes of Python per 16 bytes of information — so history depth, not CPU,
capped experiment scale.  This module is the storage engine that fixes
that: each stream keeps a small mutable *hot head*, and points evicted
from the head are sealed into immutable compressed blocks.

The codec is the classic time-series pair (pure Python, bit-level):

- **Timestamps** — delta-of-delta.  Floats are first mapped through the
  IEEE-754 total-order bijection to ``uint64`` (sign bit set for
  positives, all bits flipped for negatives), so the integer arithmetic
  is *exact* — any float sequence round-trips bit-identically, and
  monotone sequences (the only kind windows accept) produce small,
  compressible deltas.  A regular-interval stream costs one bit per
  point.
- **Values** — Gorilla-style XOR: each value's bits are XORed with the
  previous value's; a zero XOR costs one bit, otherwise only the
  meaningful (non-zero) window is stored, reusing the previous window
  when it fits.  NaN payloads, infinities and ``-0.0`` all round-trip
  exactly because nothing ever leaves bit space.

Every sealed block carries a :class:`BlockSummary` (count / first & last
timestamp / min / max / sum), so range queries skip non-overlapping
blocks without decompression and aggregate folds over fully-covered
blocks are answered from the summary alone.

:class:`TieredSeries` is the engine: a bounded-window surface
(append / range / tail / eviction-on-capacity) whose interior is
head + blocks.  Blocks are plain ``bytes`` + floats, so they ride the
ordinary actor-state path — group-commit flushes, fencing, the redo
journal and live migration all hold with no special cases.
"""

from __future__ import annotations

import bisect
import struct
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "BlockSummary",
    "BlockStats",
    "SealedBlock",
    "TieredSeries",
    "decode_floats",
    "decode_uints",
    "encode_floats",
    "encode_uints",
    "summarize",
]

_MASK64 = (1 << 64) - 1
_SIGN = 1 << 63

_pack_d = struct.Struct(">d").pack
_unpack_d = struct.Struct(">d").unpack


def _float_to_ordered(x: float) -> int:
    """Map a float to a uint64 preserving IEEE-754 total order."""
    bits = struct.unpack(">Q", _pack_d(x))[0]
    if bits & _SIGN:
        return bits ^ _MASK64
    return bits | _SIGN


def _ordered_to_float(i: int) -> float:
    bits = (i ^ _SIGN) if (i & _SIGN) else (i ^ _MASK64)
    return _unpack_d(struct.pack(">Q", bits))[0]


class _BitWriter:
    """Append bits MSB-first; flushes whole bytes out of the accumulator."""

    __slots__ = ("_acc", "_nbits", "_chunks")

    def __init__(self) -> None:
        self._acc = 0
        self._nbits = 0
        self._chunks = bytearray()

    def write(self, value: int, nbits: int) -> None:
        self._acc = (self._acc << nbits) | (value & ((1 << nbits) - 1))
        self._nbits += nbits
        if self._nbits >= 1024:
            keep = self._nbits & 7
            flush_bits = self._nbits - keep
            self._chunks += (self._acc >> keep).to_bytes(flush_bits // 8, "big")
            self._acc &= (1 << keep) - 1
            self._nbits = keep

    def getvalue(self) -> bytes:
        pad = (-self._nbits) % 8
        acc, nbits = self._acc << pad, self._nbits + pad
        tail = acc.to_bytes(nbits // 8, "big") if nbits else b""
        return bytes(self._chunks) + tail


class _BitReader:
    """Read bits MSB-first from a bytes buffer."""

    __slots__ = ("_acc", "_total", "_pos")

    def __init__(self, data: bytes) -> None:
        self._acc = int.from_bytes(data, "big")
        self._total = len(data) * 8
        self._pos = 0

    def read(self, nbits: int) -> int:
        shift = self._total - self._pos - nbits
        self._pos += nbits
        return (self._acc >> shift) & ((1 << nbits) - 1)


def _zigzag(v: int) -> int:
    return (v << 1) if v >= 0 else ((-v) << 1) - 1


def _unzigzag(n: int) -> int:
    return (n >> 1) if not (n & 1) else -((n + 1) >> 1)


def _write_dod(writer: _BitWriter, dod: int) -> None:
    # Bucketed variable-length encoding; the final bucket is 68 bits
    # because a dod of two uint64 deltas spans up to ±2^65, which
    # zigzags into 67 bits.
    n = _zigzag(dod)
    if n == 0:
        writer.write(0b0, 1)
    elif n < (1 << 7):
        writer.write(0b10, 2)
        writer.write(n, 7)
    elif n < (1 << 12):
        writer.write(0b110, 3)
        writer.write(n, 12)
    elif n < (1 << 20):
        writer.write(0b1110, 4)
        writer.write(n, 20)
    elif n < (1 << 32):
        writer.write(0b11110, 5)
        writer.write(n, 32)
    else:
        writer.write(0b11111, 5)
        writer.write(n, 68)


def _read_dod(reader: _BitReader) -> int:
    if reader.read(1) == 0:
        return 0
    if reader.read(1) == 0:
        return _unzigzag(reader.read(7))
    if reader.read(1) == 0:
        return _unzigzag(reader.read(12))
    if reader.read(1) == 0:
        return _unzigzag(reader.read(20))
    if reader.read(1) == 0:
        return _unzigzag(reader.read(32))
    return _unzigzag(reader.read(68))


def encode_uints(values: Sequence[int]) -> bytes:
    """Delta-of-delta encode a sequence of non-negative integers."""
    if not values:
        return b""
    writer = _BitWriter()
    writer.write(values[0], 64)
    prev = values[0]
    prev_delta = 0
    for value in values[1:]:
        delta = value - prev
        _write_dod(writer, delta - prev_delta)
        prev, prev_delta = value, delta
    return writer.getvalue()


def decode_uints(data: bytes, count: int) -> list[int]:
    """Inverse of :func:`encode_uints` for ``count`` integers."""
    if count == 0:
        return []
    reader = _BitReader(data)
    value = reader.read(64)
    out = [value]
    delta = 0
    for _ in range(count - 1):
        delta += _read_dod(reader)
        value += delta
        out.append(value)
    return out


def encode_floats(values: Sequence[float]) -> bytes:
    """Delta-of-delta encode floats via the total-order uint64 mapping.

    Exact for *any* float sequence (the mapping is a bijection and the
    delta arithmetic is integer), but sized for monotone timestamps:
    a fixed-interval stream costs ~1 bit per point after the header.
    """
    return encode_uints([_float_to_ordered(v) for v in values])


def decode_floats(data: bytes, count: int) -> list[float]:
    """Inverse of :func:`encode_floats`."""
    return [_ordered_to_float(i) for i in decode_uints(data, count)]


def encode_values(values: Sequence[float]) -> bytes:
    """Gorilla XOR-encode a sequence of float values."""
    if not values:
        return b""
    writer = _BitWriter()
    prev = struct.unpack(">Q", _pack_d(values[0]))[0]
    writer.write(prev, 64)
    prev_leading = -1
    prev_meaningful = 0
    for value in values[1:]:
        bits = struct.unpack(">Q", _pack_d(value))[0]
        xor = bits ^ prev
        prev = bits
        if xor == 0:
            writer.write(0b0, 1)
            continue
        leading = 64 - xor.bit_length()
        if leading > 31:
            leading = 31
        trailing = (xor & -xor).bit_length() - 1
        meaningful = 64 - leading - trailing
        if (
            prev_leading >= 0
            and leading >= prev_leading
            and 64 - prev_leading - prev_meaningful <= trailing
        ):
            # Fits the previous window: '10' + bits in that window.
            writer.write(0b10, 2)
            prev_trailing = 64 - prev_leading - prev_meaningful
            writer.write(xor >> prev_trailing, prev_meaningful)
        else:
            writer.write(0b11, 2)
            writer.write(leading, 5)
            writer.write(meaningful - 1, 6)
            writer.write(xor >> trailing, meaningful)
            prev_leading = leading
            prev_meaningful = meaningful
    return writer.getvalue()


def decode_values(data: bytes, count: int) -> list[float]:
    """Inverse of :func:`encode_values` for ``count`` floats."""
    if count == 0:
        return []
    reader = _BitReader(data)
    bits = reader.read(64)
    out = [_unpack_d(struct.pack(">Q", bits))[0]]
    leading = 0
    meaningful = 64
    for _ in range(count - 1):
        if reader.read(1):
            if reader.read(1):
                leading = reader.read(5)
                meaningful = reader.read(6) + 1
            trailing = 64 - leading - meaningful
            bits ^= reader.read(meaningful) << trailing
        out.append(_unpack_d(struct.pack(">Q", bits))[0])
    return out


# -- summaries -----------------------------------------------------------------


@dataclass(frozen=True)
class BlockSummary:
    """Per-block fold: what a range/aggregate query can answer decode-free.

    ``v_min``/``v_max`` are ``None`` when every value in the block is NaN
    (NaN readings count toward ``count`` and poison ``v_sum``, matching a
    straight fold over the decoded points — see :func:`summarize`).
    """

    count: int
    t_first: float
    t_last: float
    v_min: float | None
    v_max: float | None
    v_sum: float

    def as_tuple(self) -> tuple:
        return (
            self.count, self.t_first, self.t_last,
            self.v_min, self.v_max, self.v_sum,
        )

    @classmethod
    def from_tuple(cls, doc: tuple) -> "BlockSummary":
        return cls(*doc)


def summarize(pairs: Sequence[tuple[float, float]]) -> BlockSummary:
    """Fold ``(timestamp, value)`` pairs into a :class:`BlockSummary`.

    This is *the* fold algebra: seal-time summaries and query-time folds
    over decoded points both call it, so summary-answered aggregates are
    consistent with decompress-and-fold by construction.
    """
    if not pairs:
        raise ValueError("cannot summarize an empty block")
    v_min: float | None = None
    v_max: float | None = None
    v_sum = 0.0
    for _ts, value in pairs:
        v_sum += value
        if value == value:  # skip NaN for extents
            if v_min is None or value < v_min:
                v_min = value
            if v_max is None or value > v_max:
                v_max = value
    return BlockSummary(
        count=len(pairs),
        t_first=pairs[0][0],
        t_last=pairs[-1][0],
        v_min=v_min,
        v_max=v_max,
        v_sum=v_sum,
    )


def merge_folds(folds: Iterable[BlockSummary]) -> dict:
    """Combine block folds into one aggregate dict (commutative monoid)."""
    count = 0
    v_min: float | None = None
    v_max: float | None = None
    v_sum = 0.0
    for fold in folds:
        count += fold.count
        v_sum += fold.v_sum
        if fold.v_min is not None and (v_min is None or fold.v_min < v_min):
            v_min = fold.v_min
        if fold.v_max is not None and (v_max is None or fold.v_max > v_max):
            v_max = fold.v_max
    return {
        "count": count,
        "min": v_min,
        "max": v_max,
        "sum": v_sum,
        "mean": (v_sum / count) if count else None,
    }


# -- sealed blocks -------------------------------------------------------------


@dataclass(frozen=True)
class SealedBlock:
    """An immutable compressed run of points with its summary.

    Contents are plain ``bytes`` + scalars, so a block is serializable
    as-is into actor state documents, the redo journal and the archive.
    """

    ts_bytes: bytes
    val_bytes: bytes
    summary: BlockSummary

    @classmethod
    def seal(cls, pairs: Sequence[tuple[float, float]]) -> "SealedBlock":
        """Compress a time-ordered run of ``(timestamp, value)`` pairs."""
        summary = summarize(pairs)
        return cls(
            ts_bytes=encode_floats([p[0] for p in pairs]),
            val_bytes=encode_values([p[1] for p in pairs]),
            summary=summary,
        )

    @property
    def count(self) -> int:
        return self.summary.count

    @property
    def t_first(self) -> float:
        return self.summary.t_first

    @property
    def t_last(self) -> float:
        return self.summary.t_last

    @property
    def nbytes(self) -> int:
        """Compressed payload size (the memory the block actually holds)."""
        return len(self.ts_bytes) + len(self.val_bytes)

    def decode(self) -> list[tuple[float, float]]:
        """Decompress back to the exact ``(timestamp, value)`` pairs."""
        count = self.summary.count
        timestamps = decode_floats(self.ts_bytes, count)
        values = decode_values(self.val_bytes, count)
        return list(zip(timestamps, values))

    def as_document(self) -> tuple:
        """A flat, picklable representation for state documents."""
        return (self.ts_bytes, self.val_bytes) + self.summary.as_tuple()

    @classmethod
    def from_document(cls, doc: tuple) -> "SealedBlock":
        return cls(
            ts_bytes=doc[0],
            val_bytes=doc[1],
            summary=BlockSummary.from_tuple(tuple(doc[2:])),
        )


# -- shared counters -----------------------------------------------------------

#: Nominal live-memory cost of one raw buffered point: the pair tuple, two
#: float objects and the parallel bisect stamp.  Measured once per process
#: so the head-memory probes track real CPython layout.
RAW_POINT_BYTES = (
    sys.getsizeof((0.0, 0.0)) + 2 * sys.getsizeof(0.0) + sys.getsizeof(0.0)
)


class BlockStats:
    """Cluster-wide tsblocks counters, exported as ``storage.*`` probes.

    One instance per runtime (``runtime.tsblock_stats``); every
    :class:`TieredSeries` the runtime's actors create feeds it, so the
    probes aggregate across all sensors like the other storage metrics.
    """

    __slots__ = (
        "blocks_sealed", "blocks_evicted", "blocks_decoded",
        "blocks_skipped", "blocks_considered", "summary_answers",
        "block_bytes", "sealed_points", "head_points",
    )

    def __init__(self) -> None:
        self.blocks_sealed = 0
        self.blocks_evicted = 0
        self.blocks_decoded = 0
        self.blocks_skipped = 0
        self.blocks_considered = 0
        self.summary_answers = 0
        self.block_bytes = 0
        self.sealed_points = 0
        self.head_points = 0

    @property
    def head_bytes(self) -> int:
        """Estimated live memory of all mutable hot heads."""
        return self.head_points * RAW_POINT_BYTES

    @property
    def compression_ratio(self) -> float:
        """Raw wire bytes (16/point) over compressed bytes, sealed tier."""
        if self.block_bytes == 0:
            return 0.0
        return (16.0 * self.sealed_points) / self.block_bytes

    @property
    def block_skip_rate(self) -> float:
        """Fraction of blocks range queries skipped without decoding."""
        if self.blocks_considered == 0:
            return 0.0
        return self.blocks_skipped / self.blocks_considered

    def register_metrics(self, registry) -> None:
        """Export the tsblocks probes on a metrics registry."""
        registry.register_probe("storage.block_bytes", lambda: self.block_bytes)
        registry.register_probe("storage.head_bytes", lambda: self.head_bytes)
        registry.register_probe("storage.blocks_sealed", lambda: self.blocks_sealed)
        registry.register_probe(
            "storage.blocks_evicted", lambda: self.blocks_evicted
        )
        registry.register_probe(
            "storage.blocks_decoded", lambda: self.blocks_decoded
        )
        registry.register_probe(
            "storage.compression_ratio", lambda: self.compression_ratio
        )
        registry.register_probe(
            "storage.block_skip_rate", lambda: self.block_skip_rate
        )
        registry.register_probe(
            "storage.summary_answers", lambda: self.summary_answers
        )


# -- the tiered engine ---------------------------------------------------------


class TieredSeries:
    """A bounded, time-ordered series tiered into hot head + sealed blocks.

    The contract is that of a bounded raw window —
    appends must be non-decreasing in time, ``capacity`` bounds the total
    retained points, and whatever falls off the old end is returned from
    ``append_many`` so callers can archive it — but the interior is
    tiered: the newest ``< block_size`` points stay raw (the mutable hot
    head); each time the head reaches ``block_size`` its points are
    sealed into an immutable compressed block.

    Capacity eviction is *point-exact* (so a capacity-15 series retains
    exactly 15 points, like the raw window): whole blocks are evicted
    as :class:`SealedBlock` objects — callers archive them without a
    decode — and when the boundary falls inside a block, that block is
    decoded once into a small "old side" buffer that serves subsequent
    evictions and reads until drained.

    ``block_size=0`` disables sealing entirely, degenerating to a raw
    pair window (the A-side of the tsbench A/B).
    """

    #: Shared empty-eviction result; treat as read-only.
    _NO_EVICTIONS: list = []

    def __init__(
        self,
        capacity: int = 4096,
        block_size: int = 256,
        stats: BlockStats | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("series capacity must be >= 1")
        if block_size < 0:
            raise ValueError("block_size must be >= 0")
        self.capacity = capacity
        self.block_size = block_size
        self.stats = stats
        # Oldest → newest: _old (decoded remainder of a part-evicted
        # block) → _blocks → head.
        self._old: list[tuple[float, float]] = []
        self._blocks: list[SealedBlock] = []
        self._block_last: list[float] = []  # parallel t_last, for bisect
        self._head: list[tuple[float, float]] = []
        self._head_stamps: list[float] = []
        self.total_appended = 0
        # Single-slot decode cache: recent-range queries that cross into
        # the newest sealed block decode it once, not per query.
        self._cache_block: SealedBlock | None = None
        self._cache_pairs: list[tuple[float, float]] | None = None

    def __len__(self) -> int:
        return (
            len(self._old)
            + sum(block.count for block in self._blocks)
            + len(self._head)
        )

    @property
    def sealed_blocks(self) -> int:
        return len(self._blocks)

    @property
    def last_timestamp(self) -> float | None:
        if self._head:
            return self._head_stamps[-1]
        if self._blocks:
            return self._blocks[-1].t_last
        if self._old:
            return self._old[-1][0]
        return None

    # -- writes ----------------------------------------------------------------

    def append(self, timestamp: float, value: float) -> list:
        """Add one point; returns evicted items (pairs and/or blocks)."""
        return self.append_many([(timestamp, value)])

    def append_many(self, pairs: Sequence[tuple[float, float]]) -> list:
        """Append a time-ordered batch; returns everything evicted.

        The result interleaves raw ``(timestamp, value)`` pairs and whole
        :class:`SealedBlock` objects, oldest first — a block appears
        whenever the eviction boundary swallowed it entirely, so archival
        never decodes what it is about to recompress.
        """
        if not pairs:
            return self._NO_EVICTIONS
        last = self.last_timestamp
        for pair in pairs:
            timestamp = pair[0]
            if last is not None and timestamp < last:
                raise ValueError(
                    f"out-of-order point: {timestamp} after {last}"
                )
            last = timestamp
        self._head.extend(pairs)
        self._head_stamps.extend(pair[0] for pair in pairs)
        self.total_appended += len(pairs)
        stats = self.stats
        if stats is not None:
            stats.head_points += len(pairs)
        if self.block_size:
            while len(self._head) >= self.block_size:
                self._seal_head_prefix(self.block_size)
        if len(self) <= self.capacity:
            return self._NO_EVICTIONS
        return self._evict(len(self) - self.capacity)

    def _seal_head_prefix(self, count: int) -> None:
        run = self._head[:count]
        del self._head[:count]
        del self._head_stamps[:count]
        block = SealedBlock.seal(run)
        self._blocks.append(block)
        self._block_last.append(block.t_last)
        stats = self.stats
        if stats is not None:
            stats.blocks_sealed += 1
            stats.block_bytes += block.nbytes
            stats.sealed_points += block.count
            stats.head_points -= block.count

    def _evict(self, need: int) -> list:
        evicted: list = []
        stats = self.stats
        while need > 0:
            if self._old:
                take = min(need, len(self._old))
                evicted.extend(self._old[:take])
                del self._old[:take]
                need -= take
                if stats is not None:
                    stats.head_points -= take
            elif self._blocks:
                block = self._blocks[0]
                if block.count <= need:
                    evicted.append(block)
                    del self._blocks[0]
                    del self._block_last[0]
                    need -= block.count
                    if stats is not None:
                        stats.blocks_evicted += 1
                        stats.block_bytes -= block.nbytes
                        stats.sealed_points -= block.count
                else:
                    # Boundary falls inside the oldest block: decode it
                    # once; its remainder becomes the old-side buffer.
                    self._old = self._decode(block)
                    del self._blocks[0]
                    del self._block_last[0]
                    if stats is not None:
                        stats.blocks_evicted += 1
                        stats.block_bytes -= block.nbytes
                        stats.sealed_points -= block.count
                        stats.head_points += block.count
            else:
                take = min(need, len(self._head))
                evicted.extend(self._head[:take])
                del self._head[:take]
                del self._head_stamps[:take]
                need -= take
                if stats is not None:
                    stats.head_points -= take
        return evicted

    def _decode(self, block: SealedBlock) -> list[tuple[float, float]]:
        if block is self._cache_block:
            return list(self._cache_pairs)
        pairs = block.decode()
        if self.stats is not None:
            self.stats.blocks_decoded += 1
        self._cache_block = block
        self._cache_pairs = pairs
        return list(pairs)

    # -- reads -----------------------------------------------------------------

    def latest(self) -> tuple[float, float] | None:
        """The most recent ``(timestamp, value)``, or None when empty."""
        if self._head:
            return self._head[-1]
        if self._blocks:
            return self._decode(self._blocks[-1])[-1]
        if self._old:
            return self._old[-1]
        return None

    def range(self, start: float, end: float) -> list[tuple[float, float]]:
        """Pairs with start <= timestamp < end, stitched across tiers.

        Blocks whose summary window misses ``[start, end)`` are skipped
        without decoding (counted in the block-skip-rate probe).
        """
        if end <= start:
            return []
        out: list[tuple[float, float]] = []
        if self._old and self._old[-1][0] >= start and self._old[0][0] < end:
            out.extend(p for p in self._old if start <= p[0] < end)
        blocks = self._blocks
        if blocks:
            stats = self.stats
            # First block that can overlap: t_last >= start.
            lo = bisect.bisect_left(self._block_last, start)
            hi = lo
            while hi < len(blocks) and blocks[hi].t_first < end:
                hi += 1
            if stats is not None:
                stats.blocks_considered += len(blocks)
                stats.blocks_skipped += len(blocks) - (hi - lo)
            for block in blocks[lo:hi]:
                if start <= block.t_first and block.t_last < end:
                    out.extend(self._decode(block))
                else:
                    out.extend(
                        p for p in self._decode(block) if start <= p[0] < end
                    )
        stamps = self._head_stamps
        lo = bisect.bisect_left(stamps, start)
        hi = bisect.bisect_left(stamps, end, lo)
        out.extend(self._head[lo:hi])
        return out

    def tail(self, count: int) -> list[tuple[float, float]]:
        """The most recent ``count`` pairs (head-resident when possible)."""
        if count <= 0:
            return []
        if count <= len(self._head):
            return self._head[len(self._head) - count:]
        out = list(self._head)
        need = count - len(out)
        for block in reversed(self._blocks):
            if need <= 0:
                break
            pairs = self._decode(block)
            take = pairs[-need:] if need < len(pairs) else pairs
            out = take + out
            need -= len(take)
        if need > 0 and self._old:
            out = self._old[-need:] + out
        return out

    def all_pairs(self) -> list[tuple[float, float]]:
        """Every retained pair, oldest first (decodes every block)."""
        out = list(self._old)
        for block in self._blocks:
            out.extend(self._decode(block))
        out.extend(self._head)
        return out

    def aggregate(self, start: float, end: float) -> dict:
        """Fold count/min/max/sum/mean over [start, end).

        Blocks fully inside the range contribute their summary without
        decompression (counted in ``storage.summary_answers``); partially
        overlapping blocks decode and fold only the matching points, via
        the same :func:`summarize` algebra — so the answer is identical
        to folding the decoded range.
        """
        folds: list[BlockSummary] = []
        edges: list[tuple[float, float]] = []
        if end > start:
            if self._old and self._old[-1][0] >= start and self._old[0][0] < end:
                edges.extend(p for p in self._old if start <= p[0] < end)
            blocks = self._blocks
            if blocks:
                stats = self.stats
                lo = bisect.bisect_left(self._block_last, start)
                hi = lo
                while hi < len(blocks) and blocks[hi].t_first < end:
                    hi += 1
                if stats is not None:
                    stats.blocks_considered += len(blocks)
                    stats.blocks_skipped += len(blocks) - (hi - lo)
                for block in blocks[lo:hi]:
                    if start <= block.t_first and block.t_last < end:
                        folds.append(block.summary)
                        if stats is not None:
                            stats.summary_answers += 1
                    else:
                        edges.extend(
                            p for p in self._decode(block)
                            if start <= p[0] < end
                        )
            stamps = self._head_stamps
            lo = bisect.bisect_left(stamps, start)
            hi = bisect.bisect_left(stamps, end, lo)
            edges.extend(self._head[lo:hi])
        if edges:
            folds.append(summarize(edges))
        return merge_folds(folds)

    # -- accounting & persistence ----------------------------------------------

    def memory_stats(self) -> dict:
        """Live-memory accounting of this series (estimated bytes)."""
        head_points = len(self._head) + len(self._old)
        block_bytes = sum(block.nbytes for block in self._blocks)
        sealed_points = sum(block.count for block in self._blocks)
        raw_equivalent = RAW_POINT_BYTES * (head_points + sealed_points)
        live = head_points * RAW_POINT_BYTES + block_bytes
        return {
            "points": head_points + sealed_points,
            "head_points": head_points,
            "sealed_points": sealed_points,
            "blocks": len(self._blocks),
            "block_bytes": block_bytes,
            "live_bytes": live,
            "raw_equivalent_bytes": raw_equivalent,
            "compression_ratio": (
                (16.0 * sealed_points) / block_bytes if block_bytes else 0.0
            ),
        }

    def detach_stats(self) -> None:
        """Unregister this series from the shared :class:`BlockStats`.

        Called when the owning actor deactivates (or migrates away): the
        cluster-wide probes must stop counting a series whose points are
        about to be re-counted by the re-opened copy on another silo.
        """
        stats = self.stats
        if stats is None:
            return
        stats.head_points -= len(self._head) + len(self._old)
        for block in self._blocks:
            stats.block_bytes -= block.nbytes
            stats.sealed_points -= block.count
        self.stats = None

    def to_document(self) -> dict:
        """Serialize for an actor-state document.

        A partially-evicted old side is re-sealed into a (smaller) head
        block so the document is always ``blocks + head`` — immutable
        compressed runs plus the raw hot head.
        """
        blocks = [block.as_document() for block in self._blocks]
        if self._old:
            blocks.insert(0, SealedBlock.seal(self._old).as_document())
        return {
            "capacity": self.capacity,
            "block_size": self.block_size,
            "blocks": blocks,
            "head": list(self._head),
        }

    @classmethod
    def from_document(
        cls, doc: dict, stats: BlockStats | None = None
    ) -> "TieredSeries":
        """Re-open a series from its document (e.g. after migration)."""
        series = cls(
            capacity=doc.get("capacity", 4096),
            block_size=doc.get("block_size", 256),
            stats=stats,
        )
        for block_doc in doc.get("blocks", ()):
            block = SealedBlock.from_document(tuple(block_doc))
            series._blocks.append(block)
            series._block_last.append(block.t_last)
            if stats is not None:
                stats.block_bytes += block.nbytes
                stats.sealed_points += block.count
        head = [tuple(pair) for pair in doc.get("head", ())]
        series._head.extend(head)
        series._head_stamps.extend(pair[0] for pair in head)
        if stats is not None:
            stats.head_points += len(head)
        return series
