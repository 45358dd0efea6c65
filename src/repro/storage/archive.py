"""Block-compressed, append-only archive log for historical data export.

The paper's architecture (§5) exports data recorded in cloud storage into an
analytical database (star schema) for historical queries, which it declares
out of scope.  We keep the boundary honest: sensor channels append the
points their windows evict here, and a minimal query surface supports the
kind of time-range retrieval a downstream warehouse loader would perform.

A stream has the window's shape (:class:`~repro.storage.tsblocks.TieredSeries`):
sealed blocks, then a raw head of ``(timestamp, value)`` tuples that seals
every ``block_size`` points.  A sealed block is kept as its document
(:meth:`~repro.storage.tsblocks.SealedBlock.as_document`), a flat tuple of
bytes and numbers: the collector stops tracking such a tuple, so an archived
block costs no tracked object however long the archive grows.  Reads bisect
on the documents' timestamp fields and re-open a ``SealedBlock`` only for a
block they decode.  Each point keeps its global sequence number, in a
compressed column per block and an ``array('q')`` beside the head.  A
channel hands over each eviction run in one call.  A tiered window evicts
only whole blocks, which are kept as they come
(:meth:`ArchiveLog.append_block`): nothing is decoded and nothing
re-compressed.  A raw window (no blocks) evicts pair runs, which seal here
at the archive's own boundaries (:meth:`ArchiveLog.extend`).  Records exist
only in what reads return.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from .tsblocks import (
    SealedBlock, checked_points, cut_bounds, decode_uints, doc_count, doc_nbytes,
    doc_t_first, doc_t_last, encode_uints, overlapping,
)


@dataclass(frozen=True)
class ArchiveRecord:
    """One archived point, as reads return it."""

    stream: str
    timestamp: float
    payload: float
    sequence: int


def _records(stream: str, pairs: Sequence, sequences: Sequence[int]) -> list:
    """Records of parallel pairs and sequence numbers (every read's builder)."""
    return [ArchiveRecord(stream, t, v, seq) for (t, v), seq in zip(pairs, sequences)]


class _Stream:
    """One stream's tiers: block documents, oldest first, then a raw head."""

    __slots__ = ("blocks", "seqs", "head", "head_seqs")

    def __init__(self) -> None:
        self.blocks: list[tuple] = []  # SealedBlock.as_document() tuples
        self.seqs: list[bytes] = []  # compressed global sequences, per block
        self.head: list[tuple[float, float]] = []
        self.head_seqs = array("q")

    @property
    def last_ts(self) -> float:
        if self.head:
            return self.head[-1][0]
        return doc_t_last(self.blocks[-1]) if self.blocks else -math.inf

    def add_block(self, block: SealedBlock, sequences: Sequence[int]) -> None:
        self.blocks.append(block.as_document())
        self.seqs.append(encode_uints(sequences))


class ArchiveLog:
    """Per-stream append-only logs with time-range reads.

    Points within a stream must be appended with non-decreasing timestamps
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

    def append(self, stream: str, timestamp: float, payload: float) -> int:
        """Append one point: :meth:`extend` of a single pair."""
        return self.extend(stream, ((timestamp, payload),))

    def extend(self, stream: str, pairs: Sequence[tuple[float, float]]) -> int:
        """Append a time-ordered run of pairs; returns how many were stored.

        The run passes the window's point rule
        (:func:`~repro.storage.tsblocks.checked_points`): an out-of-order
        timestamp or a non-numeric timestamp or value raises ``ValueError``
        and stores nothing.  The head seals every ``block_size`` points.
        """
        entry = self._streams.get(stream)
        pairs = checked_points(pairs, -math.inf if entry is None else entry.last_ts)
        if not pairs:
            return 0
        if entry is None:
            entry = self._streams[stream] = _Stream()
        first = self._sequence + 1
        self._sequence += len(pairs)
        entry.head.extend(pairs)
        entry.head_seqs.extend(range(first, self._sequence + 1))
        while self.block_size and len(entry.head) >= self.block_size:
            self._seal_head(entry, self.block_size)
        return len(pairs)

    def _seal_head(self, entry: _Stream, count: int) -> None:
        entry.add_block(SealedBlock.seal(entry.head[:count]), entry.head_seqs[:count])
        del entry.head[:count]
        del entry.head_seqs[:count]
        self.blocks_sealed += 1

    def append_block(self, stream: str, block: SealedBlock) -> int:
        """Archive a whole sealed block (a run a window evicted whole).

        Its points get a fresh contiguous run of global sequence numbers.  A
        pending head is sealed first, so the tiers stay in time order.
        """
        entry = self._streams.get(stream)
        last = -math.inf if entry is None else entry.last_ts
        if not block.t_first >= last:
            raise ValueError(
                f"archive stream {stream!r}: block starting {block.t_first} "
                f"is older than last appended {last}"
            )
        if entry is None:
            entry = self._streams[stream] = _Stream()
        elif entry.head:
            self._seal_head(entry, len(entry.head))
        first = self._sequence + 1
        self._sequence += block.count
        entry.add_block(block, range(first, self._sequence + 1))
        return block.count

    # -- accounting ------------------------------------------------------------

    def streams(self) -> list[str]:
        """Names of all streams with at least one point."""
        return sorted(self._streams)

    def __len__(self) -> int:
        return self.sealed_records + sum(len(e.head) for e in self._streams.values())

    @property
    def block_bytes(self) -> int:
        """Total compressed bytes across all sealed archive blocks."""
        return sum(
            doc_nbytes(doc) + len(seqs)
            for entry in self._streams.values()
            for doc, seqs in zip(entry.blocks, entry.seqs)
        )

    @property
    def sealed_records(self) -> int:
        """How many points live in sealed (compressed) blocks."""
        return sum(
            doc_count(doc) for entry in self._streams.values() for doc in entry.blocks
        )

    # -- reads -----------------------------------------------------------------

    def _tier(self, entry: _Stream, index: int) -> tuple[list, Sequence[int]]:
        """Pairs and sequences of block ``index``; the head one past the last."""
        if index == len(entry.blocks):
            return entry.head, entry.head_seqs
        block = SealedBlock.from_document(entry.blocks[index])
        self.records_decoded += block.count
        return block.decode(), decode_uints(entry.seqs[index], block.count)

    def read_range(self, stream: str, start: float, end: float) -> list[ArchiveRecord]:
        """Records in ``stream`` with start <= timestamp < end.

        Sealed blocks whose summary window misses the range are skipped
        without decompression.
        """
        entry = self._streams.get(stream)
        if entry is None or not end > start:  # empty, or a NaN bound
            return []
        lo, hi = overlapping(
            entry.blocks, start, end, t_first=doc_t_first, t_last=doc_t_last
        )
        out: list[ArchiveRecord] = []
        for index in [*range(lo, hi), len(entry.blocks)]:
            pairs, sequences = self._tier(entry, index)
            cut = slice(*cut_bounds(pairs, start, end))
            out.extend(_records(stream, pairs[cut], sequences[cut]))
        return out

    def tail(self, stream: str, count: int) -> list[ArchiveRecord]:
        """The most recent ``count`` records of a stream."""
        if count < 0:
            raise ValueError("count must be >= 0")
        entry = self._streams.get(stream)
        index = -1 if entry is None else len(entry.blocks)
        out: list[ArchiveRecord] = []
        while len(out) < count and index >= 0:
            pairs, sequences = self._tier(entry, index)
            take = count - len(out)
            out[:0] = _records(stream, pairs[-take:], sequences[-take:])
            index -= 1
        return out

    def export(
        self, stream: str, transform: Callable[[ArchiveRecord], Any] | None = None
    ) -> list[Any]:
        """Export a full stream, optionally mapping each record.

        This is the hook a star-schema loader would use; the default
        transform returns the records unchanged.
        """
        entry = self._streams.get(stream)
        records: list[ArchiveRecord] = []
        for index in range(0 if entry is None else len(entry.blocks) + 1):
            records.extend(_records(stream, *self._tier(entry, index)))
        if transform is None:
            return records
        return [transform(record) for record in records]
