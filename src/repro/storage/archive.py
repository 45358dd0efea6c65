"""Block-compressed, append-only archive log for historical data export.

The paper's architecture (§5) exports data recorded in cloud storage into an
analytical database (star schema) for historical queries, which it declares
out of scope.  We keep the boundary honest: platforms *append* immutable
records here (sensor windows evicted from actor state, supply-chain events),
and a minimal query surface supports the kind of time-range retrieval a
downstream warehouse loader would perform.

Since the tsblocks engine landed, the cold path is no longer a stub holding
raw per-record lists: numeric streams tier into sealed
:class:`~repro.storage.tsblocks.SealedBlock` runs (delta-of-delta timestamps
+ XOR-compressed values, plus a compressed sequence-number column so decoded
records keep their exact global sequence), with a small raw head per stream
that seals every ``block_size`` appends.  Sensor channels hand whole evicted
blocks over via :meth:`ArchiveLog.append_block` — eviction never decodes
what it is about to archive.  Streams with non-float payloads (supply-chain
events, test fixtures) keep the legacy raw-record representation.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from .tsblocks import SealedBlock, cut_bounds, decode_uints, encode_uints


@dataclass(frozen=True)
class ArchiveRecord:
    """One immutable archived record."""

    stream: str
    timestamp: float
    payload: Any
    sequence: int


@dataclass
class _Stream:
    """One stream's tiers: sealed compressed runs plus a raw head."""

    #: (block, compressed global-sequence column) pairs, oldest first.
    sealed: list[tuple[SealedBlock, bytes]] = field(default_factory=list)
    sealed_last: list[float] = field(default_factory=list)
    head: list[ArchiveRecord] = field(default_factory=list)
    head_stamps: list[float] = field(default_factory=list)
    #: Set once a non-float payload arrives; the stream then stays raw.
    raw_only: bool = False
    last_ts: float = float("-inf")
    count: int = 0


class ArchiveLog:
    """Per-stream append-only logs with time-range reads.

    Records within a stream must be appended with non-decreasing timestamps
    (enforced), which is what makes binary-searched range reads — and the
    per-block summary skipping — valid.
    """

    def __init__(self, block_size: int = 512) -> None:
        if block_size < 0:
            raise ValueError("block_size must be >= 0")
        self.block_size = block_size
        self._streams: dict[str, _Stream] = {}
        self._sequence = 0
        self.blocks_sealed = 0
        self.records_decoded = 0

    # -- writes ----------------------------------------------------------------

    def append(self, stream: str, timestamp: float, payload: Any) -> ArchiveRecord:
        """Append one record; timestamps per stream must not go backwards."""
        entry = self._streams.setdefault(stream, _Stream())
        # Not ``timestamp < last_ts``: that is False for NaN, which would slip
        # through and break the sortedness range reads bisect on.
        if not timestamp >= entry.last_ts:
            raise ValueError(
                f"archive stream {stream!r}: timestamp {timestamp} is older "
                f"than last appended {entry.last_ts}"
            )
        self._sequence += 1
        record = ArchiveRecord(stream, timestamp, payload, self._sequence)
        entry.head.append(record)
        entry.head_stamps.append(timestamp)
        entry.last_ts = timestamp
        entry.count += 1
        if not entry.raw_only and type(payload) is not float:
            entry.raw_only = True
        if (
            not entry.raw_only
            and self.block_size
            and len(entry.head) >= self.block_size
        ):
            self._seal_head(entry)
        return record

    def _seal_head(self, entry: _Stream) -> None:
        records = entry.head
        block = SealedBlock.seal([(r.timestamp, r.payload) for r in records])
        seq_bytes = encode_uints([r.sequence for r in records])
        entry.sealed.append((block, seq_bytes))
        entry.sealed_last.append(block.t_last)
        entry.head = []
        entry.head_stamps = []
        self.blocks_sealed += 1

    def append_block(self, stream: str, block: SealedBlock) -> int:
        """Archive a whole sealed block (e.g. a window-evicted run).

        The block's points get a fresh contiguous run of global sequence
        numbers.  A pending raw head is sealed first (numeric streams) or
        the block is unrolled into records (raw-fallback streams), so the
        oldest-to-newest tier order always holds.
        """
        entry = self._streams.setdefault(stream, _Stream())
        if not block.t_first >= entry.last_ts:
            raise ValueError(
                f"archive stream {stream!r}: block starting {block.t_first} "
                f"is older than last appended {entry.last_ts}"
            )
        if entry.raw_only:
            for timestamp, value in block.decode():
                self.append(stream, timestamp, value)
            return block.count
        if entry.head:
            self._seal_head(entry)
        first_seq = self._sequence + 1
        self._sequence += block.count
        seq_bytes = encode_uints(list(range(first_seq, self._sequence + 1)))
        entry.sealed.append((block, seq_bytes))
        entry.sealed_last.append(block.t_last)
        entry.last_ts = block.t_last
        entry.count += block.count
        return block.count

    def extend(
        self, stream: str, items: Iterable[tuple[float, Any]]
    ) -> list[ArchiveRecord]:
        """Append many (timestamp, payload) pairs; returns the records."""
        return [self.append(stream, ts, payload) for ts, payload in items]

    # -- accounting ------------------------------------------------------------

    def streams(self) -> list[str]:
        """Names of all streams with at least one record."""
        return sorted(name for name, s in self._streams.items() if s.count)

    def __len__(self) -> int:
        return sum(entry.count for entry in self._streams.values())

    @property
    def block_bytes(self) -> int:
        """Total compressed bytes across all sealed archive blocks."""
        return sum(
            block.nbytes + len(seq)
            for entry in self._streams.values()
            for block, seq in entry.sealed
        )

    @property
    def sealed_records(self) -> int:
        """How many records live in sealed (compressed) blocks."""
        return sum(
            block.count
            for entry in self._streams.values()
            for block, _seq in entry.sealed
        )

    # -- reads -----------------------------------------------------------------

    def _decode(
        self,
        stream: str,
        block: SealedBlock,
        seq_bytes: bytes,
        start: float | None = None,
        end: float | None = None,
    ) -> list[ArchiveRecord]:
        """The block's records; with a range, only start <= timestamp < end."""
        pairs = block.decode()
        sequences = decode_uints(seq_bytes, block.count)
        self.records_decoded += block.count
        if start is not None:  # records outside the cut are never built
            lo, hi = cut_bounds(pairs, start, end)
            pairs, sequences = pairs[lo:hi], sequences[lo:hi]
        return [
            ArchiveRecord(stream, timestamp, value, sequence)
            for (timestamp, value), sequence in zip(pairs, sequences)
        ]

    def read_range(
        self, stream: str, start: float, end: float
    ) -> list[ArchiveRecord]:
        """Records in ``stream`` with start <= timestamp < end.

        Sealed blocks whose summary window misses the range are skipped
        without decompression.
        """
        entry = self._streams.get(stream)
        if entry is None or not end > start:  # empty, or a NaN bound
            return []
        out: list[ArchiveRecord] = []
        if entry.sealed:
            lo = bisect.bisect_left(entry.sealed_last, start)
            for block, seq_bytes in entry.sealed[lo:]:
                if block.t_first >= end:
                    break
                out.extend(self._decode(stream, block, seq_bytes, start, end))
        lo = bisect.bisect_left(entry.head_stamps, start)
        hi = bisect.bisect_left(entry.head_stamps, end, lo)
        out.extend(entry.head[lo:hi])
        return out

    def tail(self, stream: str, count: int) -> list[ArchiveRecord]:
        """The most recent ``count`` records of a stream."""
        if count < 0:
            raise ValueError("count must be >= 0")
        entry = self._streams.get(stream)
        if count == 0 or entry is None:
            return []
        if count <= len(entry.head):
            return entry.head[len(entry.head) - count:]
        out = list(entry.head)
        need = count - len(out)
        for block, seq_bytes in reversed(entry.sealed):
            if need <= 0:
                break
            records = self._decode(stream, block, seq_bytes)
            take = records[-need:] if need < len(records) else records
            out = take + out
            need -= len(take)
        return out

    def export(
        self,
        stream: str,
        transform: Callable[[ArchiveRecord], Any] | None = None,
    ) -> list[Any]:
        """Export a full stream, optionally mapping each record.

        This is the hook a star-schema loader would use; the default
        transform returns the records unchanged.
        """
        entry = self._streams.get(stream)
        if entry is None:
            return []
        records: list[ArchiveRecord] = []
        for block, seq_bytes in entry.sealed:
            records.extend(self._decode(stream, block, seq_bytes))
        records.extend(entry.head)
        if transform is None:
            return records
        return [transform(record) for record in records]
