"""Compressed, tiered time-series blocks (the TritanDB direction).

Per-sensor history in actor state was raw ``DataPoint`` objects — ~300
bytes of Python per 16 bytes of information — so history depth, not CPU,
capped experiment scale.  This module is the storage engine that fixes
that: each stream keeps a small mutable *hot head*, and points evicted
from the head are sealed into immutable compressed blocks.

The codec is the classic time-series pair, in pure Python:

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

Each column is coded in one pass over local variables — no per-bit or
per-point calls.  A decoder turns the payload into a ``'0'``/``'1'`` string
once, swallows runs of zero fields with one ``find`` (a regular cadence
becomes a single ``range``) and parses every other field with one slice;
an encoder folds each field into a local accumulator with one shift-or;
floats cross ``struct`` once per column.

**The byte format is frozen.**  Blocks live in actor state documents, the
redo journal and the archive, so a changed bit is lost data.  The bytes
are pinned by ``tests/storage/golden_tsblocks.json`` (recorded from the
original bit-at-a-time implementation; ``test_tsblocks_format.py`` requires
encoders to reproduce it and decoders to invert it exactly) and by the byte
totals ``bench tsblocks`` gates.  Speed the codec up freely; never re-tune
a bucket, a header or the padding.

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
import math
import struct
import sys
from dataclasses import dataclass
from itertools import chain, compress
from operator import sub
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

#: Encoders spill whole bytes out of their accumulator past this many bits,
#: so each shift-or stays a few machine words however long the block is.
_SPILL_BITS = 512

#: Payload widths of the four bounded delta-of-delta buckets, by how many
#: one-bits precede the zero in their prefix (10 / 110 / 1110 / 11110).  The
#: all-ones prefix 11111 carries 68 bits: the dod of two uint64 deltas spans
#: up to +-2**65, which zigzags into 67 bits.
_DOD_WIDTHS = (0, 7, 12, 20, 32)


def _bit_string(data: bytes) -> str:
    """The payload as one string of '0'/'1', closed by a stop field.

    One base-2 conversion (exempt from the int<->str digit limit) replaces
    a whole-block shift per field.  The trailing ``11`` ends every zero run
    and opens, in either codec, the widest field with nothing behind it: a
    decoder asked for more than the bytes hold raises in ``int('', 2)``
    (or, cut inside its last field, on the final position check) rather
    than looping or inventing values.
    """
    return bin(int.from_bytes(data, "big") | (1 << (len(data) * 8)))[3:] + "11"


def _spill(chunks: bytearray, acc: int, nbits: int) -> tuple[int, int]:
    """Move the accumulator's whole bytes into ``chunks``; return the rest."""
    keep = nbits & 7
    chunks += (acc >> keep).to_bytes(nbits >> 3, "big")
    return acc & ((1 << keep) - 1), keep


def _finish(chunks: bytearray, acc: int, nbits: int) -> bytes:
    """Spill everything, zero-padded to a whole byte."""
    pad = -nbits & 7
    _spill(chunks, acc << pad, nbits + pad)
    return bytes(chunks)


def _encode_dods(values: Sequence[int], bias: int) -> bytes:
    """Delta-of-delta encode ``value + bias`` for each of ``values``."""
    deltas = list(map(sub, values[1:], values))
    dods = list(map(sub, deltas, [0] + deltas))
    chunks = bytearray()
    acc, nbits = (values[0] + bias) & _MASK64, 64
    written = 0
    # Only the non-zero dods are visited; the zero runs between them (one
    # bit each) ride along as extra shift, so a regular cadence is one shift.
    for index in compress(range(len(dods)), dods):
        dod = dods[index]
        n = (dod << 1) if dod > 0 else ((-dod) << 1) - 1  # zigzag
        if n < (1 << 7):
            width, field = 9, 0b10 << 7 | n
        elif n < (1 << 12):
            width, field = 15, 0b110 << 12 | n
        elif n < (1 << 20):
            width, field = 24, 0b1110 << 20 | n
        elif n < (1 << 32):
            width, field = 37, 0b11110 << 32 | n
        else:
            width, field = 73, 0b11111 << 68 | n
        width += index - written
        acc = acc << width | field
        nbits += width
        written = index + 1
        if nbits >= _SPILL_BITS:
            acc, nbits = _spill(chunks, acc, nbits)
    zeros = len(dods) - written
    return _finish(chunks, acc << zeros, nbits + zeros)


def _decode_dods(data: bytes, count: int, bias: int) -> list[int]:
    """Inverse of :func:`_encode_dods`: ``count`` values, ``bias`` removed."""
    bits = _bit_string(data)
    find = bits.find
    value = int(bits[:64], 2) - bias
    out = [value]
    append = out.append
    delta = 0
    pos = 64
    need = count - 1
    while need:
        if bits[pos] == "0":
            # A run of zero dods: the delta holds, so the values are an
            # arithmetic progression.
            one = find("1", pos)
            run = min(one - pos, need)
            if delta:
                out.extend(range(value + delta, value + delta * (run + 1), delta))
                value += delta * run
            else:
                out.extend([value] * run)
            pos = one
            need -= run
            continue
        zero = find("0", pos + 1, pos + 5)
        if zero < 0:
            start, pos = pos + 5, pos + 73
        else:
            start = zero + 1
            pos = start + _DOD_WIDTHS[zero - pos]
        n = int(bits[start:pos], 2)
        delta += (n >> 1) ^ -(n & 1)  # unzigzag
        value += delta
        append(value)
        need -= 1
    if pos > len(bits) - 2:
        raise ValueError("delta-of-delta payload ends inside a field")
    return out


def encode_uints(values: Sequence[int]) -> bytes:
    """Delta-of-delta encode a sequence of non-negative integers."""
    return _encode_dods(values, 0) if values else b""


def decode_uints(data: bytes, count: int) -> list[int]:
    """Inverse of :func:`encode_uints` for ``count`` integers."""
    return _decode_dods(data, count, 0) if count else []


def encode_floats(values: Sequence[float]) -> bytes:
    """Delta-of-delta encode floats via the total-order uint64 mapping.

    Exact for *any* float sequence (the mapping is a bijection and the
    delta arithmetic is integer), but sized for monotone timestamps:
    a fixed-interval stream costs ~1 bit per point after the header.
    """
    if not values:
        return b""
    count = len(values)
    words = struct.unpack(">%dQ" % count, struct.pack(">%dd" % count, *values))
    if max(words) < _SIGN:
        # All non-negative: the mapping is ``bits + 2**63``, and a constant
        # offset is invisible to deltas.
        return _encode_dods(words, _SIGN)
    return _encode_dods(
        [w ^ _MASK64 if w & _SIGN else w | _SIGN for w in words], 0
    )


def decode_floats(data: bytes, count: int) -> list[float]:
    """Inverse of :func:`encode_floats`."""
    if count == 0:
        return []
    # Decoded with the positive floats' 2**63 offset already removed, a
    # column without negative floats is its own bit patterns.
    words = _decode_dods(data, count, _SIGN)
    if min(words) < 0:
        words = [w if w >= 0 else (w + _SIGN) ^ _MASK64 for w in words]
    return list(
        struct.unpack(">%dd" % count, struct.pack(">%dQ" % count, *words))
    )


def encode_values(values: Sequence[float]) -> bytes:
    """Gorilla XOR-encode a sequence of float values."""
    if not values:
        return b""
    count = len(values)
    words = struct.unpack(">%dQ" % count, struct.pack(">%dd" % count, *values))
    chunks = bytearray()
    acc = prev = words[0]
    nbits = 64
    zeros = 0  # pending one-bit "same value" fields
    # The open window: an XOR fits when it is below ``limit`` (enough leading
    # zeros) and clear under ``low`` (enough trailing zeros).  None open yet.
    limit = low = trailing = width = tag = 0
    for word in words[1:]:
        xor = word ^ prev
        if not xor:
            zeros += 1
            continue
        prev = word
        if zeros:
            acc <<= zeros
            nbits += zeros
            zeros = 0
        if xor < limit and not xor & low:
            # Fits the open window: '10' + the bits in that window.
            acc = acc << width | tag | xor >> trailing
            nbits += width
        else:
            # New window: '11', 5 bits of leading zeros (saturating at 31),
            # 6 bits of length - 1, then the bits in the window.
            leading = min(64 - xor.bit_length(), 31)
            trailing = (xor & -xor).bit_length() - 1
            meaningful = 64 - leading - trailing
            limit, low = 1 << (64 - leading), (1 << trailing) - 1
            width, tag = meaningful + 2, 0b10 << meaningful
            header = 0b11 << 11 | leading << 6 | (meaningful - 1)
            acc = acc << (13 + meaningful) | header << meaningful | xor >> trailing
            nbits += 13 + meaningful
        if nbits >= _SPILL_BITS:
            acc, nbits = _spill(chunks, acc, nbits)
    return _finish(chunks, acc << zeros, nbits + zeros)


def decode_values(data: bytes, count: int) -> list[float]:
    """Inverse of :func:`encode_values` for ``count`` floats."""
    if count == 0:
        return []
    bits = _bit_string(data)
    find = bits.find
    word = int(bits[:64], 2)
    words = [word]
    append = words.append
    meaningful, trailing = 64, 0
    pos = 64
    need = count - 1
    while need:
        if bits[pos] == "0":  # '0' fields: the value repeats
            one = find("1", pos)
            run = min(one - pos, need)
            words.extend([word] * run)
            pos = one
            need -= run
            continue
        if bits[pos + 1] == "0":  # '10': the open window
            start = pos + 2
        else:  # '11': a new window
            meaningful = int(bits[pos + 7:pos + 13], 2) + 1
            trailing = 64 - int(bits[pos + 2:pos + 7], 2) - meaningful
            start = pos + 13
        pos = start + meaningful
        word ^= int(bits[start:pos], 2) << trailing
        append(word)
        need -= 1
    if pos > len(bits) - 2:
        raise ValueError("XOR payload ends inside a field")
    return list(
        struct.unpack(">%dd" % count, struct.pack(">%dQ" % count, *words))
    )


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
        timestamps, values = zip(*pairs)
        return cls(
            ts_bytes=encode_floats(timestamps),
            val_bytes=encode_values(values),
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

#: Nominal live-memory cost of one raw buffered point, priced as the pair
#: tuple and three float objects.  A head point holds two floats; the third
#: stays because the committed ``bench tsblocks`` byte totals are priced with
#: this figure.  Measured once per process.
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


def cut_bounds(
    pairs: list[tuple[float, float]], start: float, end: float
) -> tuple[int, int]:
    """Index bounds of start <= timestamp < end in a time-sorted run of pairs.

    ``(t,)`` sorts before every ``(t, value)``, so bisecting on the 1-tuple
    lands on the first pair stamped ``t`` without comparing any value.
    """
    lo = bisect.bisect_left(pairs, (start,))
    return lo, bisect.bisect_left(pairs, (end,), lo)


def _cut(
    pairs: list[tuple[float, float]], start: float, end: float
) -> list[tuple[float, float]]:
    lo, hi = cut_bounds(pairs, start, end)
    return pairs[lo:hi]


def overlapping(
    blocks: Sequence[SealedBlock], block_last: Sequence[float],
    start: float, end: float, stats: BlockStats | None = None,
) -> tuple[int, int]:
    """Index bounds of the time-ordered blocks that can hold [start, end).

    ``block_last`` is the blocks' parallel ``t_last`` column; with ``stats``
    the scan feeds the block-skip-rate probe.
    """
    lo = bisect.bisect_left(block_last, start)
    hi = lo
    while hi < len(blocks) and blocks[hi].t_first < end:
        hi += 1
    if stats is not None:
        stats.blocks_considered += len(blocks)
        stats.blocks_skipped += len(blocks) - (hi - lo)
    return lo, hi


def checked_points(
    pairs: Sequence[tuple[float, float]], last: float
) -> Sequence[tuple[float, float]]:
    """The point rule of every series write, applied before anything is stored.

    Timestamps and values must be numbers, and timestamps may not fall below
    ``last`` or each other; any fault raises ``ValueError``.  Returns
    ``pairs`` itself when each is already a ``(float, float)`` tuple,
    otherwise a copy in that shape: a series never holds the caller's
    containers, and an ``int`` reads back as the ``float`` a sealed block or
    a stored document would return.
    """
    clean = True
    for pair in pairs:
        timestamp = pair[0]
        if type(timestamp) is not float:
            timestamp = _as_number(timestamp, "timestamp")
            clean = False
        # Not ``timestamp < last``: that is False for NaN, which would slip
        # through and break the sortedness every read bisects on.
        if not timestamp >= last:
            raise ValueError(f"out-of-order point: {timestamp} is older than {last}")
        last = timestamp
        if type(pair) is not tuple or type(pair[1]) is not float:
            clean = False
    return pairs if clean else [_as_point(pair) for pair in pairs]


def _as_number(number: object, what: str) -> float:
    if isinstance(number, (int, float)):
        try:
            return float(number)
        except OverflowError:  # an int past the float range is no number here
            pass
    raise ValueError(f"point {what} {number!r} is not a number")


def _as_point(pair: Sequence) -> tuple[float, float]:
    timestamp, value = pair
    if type(timestamp) is not float:
        timestamp = float(timestamp)
    if type(value) is not float:
        value = _as_number(value, "value")
    return (timestamp, value)


class TieredSeries:
    """A bounded, time-ordered series tiered into hot head + sealed blocks.

    The contract is that of a bounded window — appends must be
    non-decreasing in time, ``capacity`` is the floor of what is retained,
    and whatever falls off the old end is returned from ``append_many`` so
    callers can archive it — but the interior is tiered: the newest
    ``< block_size`` points stay raw (the mutable hot head); each time the
    head reaches ``block_size`` its points are sealed into an immutable
    compressed block.

    The sealed block is the unit of eviction: the oldest block leaves,
    whole and never decoded, while the points behind it still number at
    least ``capacity``.  Once ``capacity`` points have arrived, a series
    therefore retains between ``capacity`` and ``capacity + block_size - 1``
    of the newest points.

    A series without blocks is a raw pair window that evicts point by point
    and retains exactly ``capacity``: ``block_size=0`` (the A-side of the
    tsbench A/B), or a ``block_size`` above ``capacity``, which never seals
    because no such block could be retained whole.

    Every channel actor owns one and most sit idle, so a column list is
    allocated by its first write; until then it is the shared empty tuple,
    which every read treats as an empty column.  Stored pairs are always
    ``(timestamp, value)`` tuples: a read returns the same shape from every
    tier, and the head bisects on ``(t,)`` like blocks do.
    """

    __slots__ = (
        "capacity", "block_size", "stats", "_blocks", "_block_last",
        "_head", "_sealed_points", "total_appended", "_cache_block",
        "_cache_pairs", "_document",
    )

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
        # Oldest → newest: _blocks → head; each is () until its first write.
        self._blocks: list[SealedBlock] | tuple = ()
        self._block_last: list[float] | tuple = ()  # parallel t_last, for bisect
        self._head: list[tuple[float, float]] | tuple = ()
        self._sealed_points = 0  # running sum of block.count over _blocks
        self.total_appended = 0
        # Single-slot decode cache: recent-range queries that cross into
        # the newest sealed block decode it once, not per query.
        self._cache_block: SealedBlock | None = None
        self._cache_pairs: list[tuple[float, float]] | None = None
        # This version's state document: built by the first ``to_document``
        # after a write, dropped by the next write.
        self._document: dict | None = None

    def __len__(self) -> int:
        return self._sealed_points + len(self._head)

    @property
    def sealed_blocks(self) -> int:
        return len(self._blocks)

    @property
    def last_timestamp(self) -> float | None:
        if self._head:
            return self._head[-1][0]
        if self._blocks:
            return self._blocks[-1].t_last
        return None

    # -- writes ----------------------------------------------------------------

    def append(self, timestamp: float, value: float) -> list:
        """Add one point; returns the evicted runs (see ``append_many``)."""
        return self.append_many([(timestamp, value)])

    def append_many(self, pairs: Sequence[tuple[float, float]]) -> list:
        """Append a time-ordered batch; returns everything evicted.

        The batch passes :func:`checked_points` first, so an out-of-order
        timestamp or a non-numeric value raises ``ValueError`` and stores
        nothing.

        The result is a list of runs, oldest first: each evicted block as
        the :class:`SealedBlock` itself, never decoded, or — only in a
        series without blocks — one list of ``(timestamp, value)`` pairs
        sliced off the head.
        """
        if not pairs:
            return self._NO_EVICTIONS
        last = self.last_timestamp
        pairs = checked_points(pairs, -math.inf if last is None else last)
        # Every seal and eviction happens below: one new window version.
        self._document = None
        if self._head:
            self._head.extend(pairs)
        else:
            self._head = list(pairs)
        self.total_appended += len(pairs)
        stats = self.stats
        if stats is not None:
            stats.head_points += len(pairs)
        if 0 < self.block_size <= self.capacity:
            while len(self._head) >= self.block_size:
                self._seal_head_prefix(self.block_size)
        if len(self) <= self.capacity:
            return self._NO_EVICTIONS
        return self._evict()

    def _seal_head_prefix(self, count: int) -> None:
        run = self._head[:count]
        del self._head[:count]
        block = SealedBlock.seal(run)
        if self._blocks:
            self._blocks.append(block)
            self._block_last.append(block.t_last)
        else:
            self._blocks = [block]
            self._block_last = [block.t_last]
        self._sealed_points += block.count
        stats = self.stats
        if stats is not None:
            stats.blocks_sealed += 1
            stats.block_bytes += block.nbytes
            stats.sealed_points += block.count
            stats.head_points -= block.count

    def _evict(self) -> list:
        evicted: list = []
        stats = self.stats
        blocks = self._blocks
        while blocks and len(self) - blocks[0].count >= self.capacity:
            block = blocks.pop(0)
            del self._block_last[0]
            self._sealed_points -= block.count
            evicted.append(block)
            if block is self._cache_block:
                # Gone for good: the slot would only pin its decoded pairs.
                self._cache_block = self._cache_pairs = None
            if stats is not None:
                stats.blocks_evicted += 1
                stats.block_bytes -= block.nbytes
                stats.sealed_points -= block.count
        if not blocks:
            take = len(self._head) - self.capacity
            if take > 0:
                evicted.append(self._head[:take])
                del self._head[:take]
                if stats is not None:
                    stats.head_points -= take
        return evicted

    def _decode(self, block: SealedBlock) -> list[tuple[float, float]]:
        """The block's pairs, shared with the cache slot: read, never mutate."""
        if block is self._cache_block:
            return self._cache_pairs
        pairs = block.decode()
        if self.stats is not None:
            self.stats.blocks_decoded += 1
        self._cache_block = block
        self._cache_pairs = pairs
        return pairs

    # -- reads -----------------------------------------------------------------

    def latest(self) -> tuple[float, float] | None:
        """The most recent ``(timestamp, value)``, or None when empty."""
        if self._head:
            return self._head[-1]
        if self._blocks:
            return self._decode(self._blocks[-1])[-1]
        return None

    def range(self, start: float, end: float) -> list[tuple[float, float]]:
        """Pairs with start <= timestamp < end, stitched across tiers.

        Blocks whose summary window misses ``[start, end)`` are skipped
        without decoding (counted in the block-skip-rate probe).
        """
        if not end > start:  # empty, or a NaN bound
            return []
        out = []
        lo, hi = overlapping(self._blocks, self._block_last, start, end, self.stats)
        for block in self._blocks[lo:hi]:
            out.extend(_cut(self._decode(block), start, end))
        out.extend(_cut(self._head, start, end))
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
        return out

    def all_pairs(self) -> list[tuple[float, float]]:
        """Every retained pair, oldest first (decodes every block)."""
        out = []
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
            stats = self.stats
            lo, hi = overlapping(self._blocks, self._block_last, start, end, stats)
            for block in self._blocks[lo:hi]:
                if start <= block.t_first and block.t_last < end:
                    folds.append(block.summary)
                    if stats is not None:
                        stats.summary_answers += 1
                else:
                    edges.extend(_cut(self._decode(block), start, end))
            edges.extend(_cut(self._head, start, end))
        if edges:
            folds.append(summarize(edges))
        return merge_folds(folds)

    # -- accounting & persistence ----------------------------------------------

    def memory_stats(self) -> dict:
        """Live-memory accounting of this series (estimated bytes)."""
        head_points = len(self._head)
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
        stats.head_points -= len(self._head)
        for block in self._blocks:
            stats.block_bytes -= block.nbytes
            stats.sealed_points -= block.count
        self.stats = None

    def to_document(self) -> dict:
        """This window version's actor-state document, built once.

        The first call after a write (append, seal or eviction) builds it;
        every later call returns the identical object until the next write,
        so an unchanged window costs the redo pump, a flush and the store
        nothing to re-serialize.  Treat it as read-only.  It shares no
        mutable container with the live tiers: ``blocks`` is a tuple of
        block documents, ``head`` one ``bytes`` column of interleaved float64
        ``t, v`` values in native byte order (``array('d')`` layout, 16 B
        per point): exactly the live ``blocks + head``, nothing re-sealed.
        """
        document = self._document
        if document is None:
            document = self._document = {
                "capacity": self.capacity,
                "block_size": self.block_size,
                "blocks": tuple(block.as_document() for block in self._blocks),
                "head": struct.pack(
                    "%dd" % (2 * len(self._head)), *chain.from_iterable(self._head)
                ),
            }
        return document

    @classmethod
    def from_document(
        cls, doc: dict, stats: BlockStats | None = None
    ) -> "TieredSeries":
        """Re-open a series from a :meth:`to_document` document."""
        series = cls(doc["capacity"], doc["block_size"], stats=stats)
        blocks = [SealedBlock.from_document(block_doc) for block_doc in doc["blocks"]]
        if blocks:
            series._blocks = blocks
            series._block_last = [block.t_last for block in blocks]
            series._sealed_points = sum(block.count for block in blocks)
            if stats is not None:
                stats.block_bytes += sum(block.nbytes for block in blocks)
                stats.sealed_points += series._sealed_points
        column = doc["head"]
        if column:
            flat = iter(struct.unpack("%dd" % (len(column) // 8), column))
            series._head = list(zip(flat, flat))
            if stats is not None:
                stats.head_points += len(series._head)
        return series
