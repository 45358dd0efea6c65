"""Per-silo write-ahead redo journal: bounded-loss durability for lazy writers.

The paper's benchmarked ``ON_DEACTIVATE`` policy (and the cheaper
``INTERVAL`` policy) trade durability for write capacity: a crash loses
everything since the last flush.  The :class:`RedoJournal` turns that
unbounded window into a configurable one — a background pump snapshots
dirty durable actors every ``redo_lag`` virtual seconds and appends their
state documents here, and :class:`~repro.runtime.persistence.StateCell`
replays the journal suffix on re-activation.

Replay is *fenced*: each record carries the appending activation's fence
token and the etag its document was based on, and a successor only applies
a record when

- ``base_etag`` matches the etag it just loaded from the store (the record
  really is the missing suffix, not a stale divergent branch), and
- the record's fence is not newer than the successor's own (a record from
  the future would mean the journal outlived a later activation — apply
  nothing rather than guess).

Journal appends ride the existing group-commit path when a writer is
supplied, so WAL traffic coalesces with state flushes instead of doubling
round trips.  The in-memory index is authoritative for replay (a redo log
is only read after a failure, and this simulation's "disk" is the process);
durable copies land under the ``wal/`` key prefix for inspection.  A record's
document is snapshotted once, at append, and never mutated afterwards, so
the durable copy *shares* it: the payload travels as
:class:`~repro.storage.serde.Frozen` and the store keeps it by identity
(same bytes charged, one copy instead of two).  Records are truncated on
successful state flush; garbage-collecting the durable copies is
deliberately out of scope (real systems recycle segments).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any

from .serde import Frozen, snapshot

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..kernel.scheduler import Scheduler
    from .groupcommit import GroupCommitWriter
    from .kv import KeyValueStore

__all__ = ["RedoJournal", "RedoRecord"]


@dataclass(frozen=True)
class RedoRecord:
    """One journaled state document: enough to redo a lost flush."""

    key: str
    seq: int
    fence: int | None
    base_etag: int
    document: Any
    appended_at: float


class RedoJournal:
    """An append-only redo log indexed by grain storage key."""

    def __init__(
        self,
        scheduler: "Scheduler",
        store: "KeyValueStore | None" = None,
        writer: "GroupCommitWriter | None" = None,
    ) -> None:
        self._scheduler = scheduler
        self._store = store
        self._writer = writer
        self._records: dict[str, list[RedoRecord]] = {}
        self._seq = 0
        self._fence_floors: dict[str, int] = {}
        self.appends = 0
        self.skipped_appends = 0
        self.replayed_records = 0
        self.truncated_records = 0

    # -- writing -------------------------------------------------------------

    async def append(
        self, key: str, document: Any, base_etag: int, fence: int | None = None
    ) -> RedoRecord | None:
        """Journal one dirty state document; returns the record, or None.

        Consecutive identical documents are deduplicated (the pump runs on a
        timer, not on change notifications, so an idle-but-dirty actor would
        otherwise re-journal the same bytes every tick).
        """
        floor = self._fence_floors.get(key)
        if fence is not None and floor is not None and fence < floor:
            # A successor already took over this grain; the zombie's journal
            # entry must not become its resurrection vector.
            self.skipped_appends += 1
            return None
        tail = self._records.get(key)
        if tail and tail[-1].document == document and tail[-1].fence == fence:
            self.skipped_appends += 1
            return None
        self._seq += 1
        record = RedoRecord(
            key=key,
            seq=self._seq,
            fence=fence,
            base_etag=base_etag,
            document=snapshot(document),
            appended_at=self._scheduler.now,
        )
        self._records.setdefault(key, []).append(record)
        self.appends += 1
        recorder = self._scheduler.recorder
        if recorder is not None:
            recorder.storage.record("wal-append", key, record.seq)
        await self._persist(record)
        return record

    async def _persist(self, record: RedoRecord) -> None:
        # The payload is fresh and ``record.document`` is the journal's own
        # snapshot, never mutated after append: the store keeps it as is.
        payload = Frozen(
            {
                "key": record.key,
                "seq": record.seq,
                "fence": record.fence,
                "base_etag": record.base_etag,
                "document": record.document,
                "appended_at": record.appended_at,
            }
        )
        wal_key = f"wal/{record.key}/{record.seq}"
        if self._writer is not None:
            await self._writer.put(wal_key, payload)
        elif self._store is not None:
            await self._store.put(wal_key, payload)

    # -- recovery ------------------------------------------------------------

    def advance_fence(self, key: str, fence: int | None) -> None:
        """Raise the journal's fence floor for ``key`` (successor took over)."""
        if fence is None:
            return
        floor = self._fence_floors.get(key)
        if floor is None or fence > floor:
            self._fence_floors[key] = fence

    def replay_for(
        self, key: str, stored_etag: int, fence: int | None
    ) -> RedoRecord | None:
        """The newest record a re-activating cell may safely apply.

        ``stored_etag`` is the etag the cell just loaded (0 when the key is
        absent); ``fence`` is the successor's own token.  Records based on a
        different etag are stale branches; records fenced *newer* than the
        caller are from a later activation and are never applied.
        """
        best: RedoRecord | None = None
        for record in self._records.get(key, ()):
            if record.base_etag != stored_etag:
                continue
            if fence is not None and record.fence is not None and record.fence > fence:
                continue
            if best is None or record.seq > best.seq:
                best = record
        if best is not None:
            self.replayed_records += 1
            recorder = self._scheduler.recorder
            if recorder is not None:
                recorder.storage.record("wal-replay", key, best.seq)
        return best

    @property
    def last_seq(self) -> int:
        """The sequence number of the newest record appended (0 before any)."""
        return self._seq

    def truncate(self, key: str, upto_seq: int, base_etag: int) -> int:
        """Drop ``key``'s records up to ``upto_seq`` (a flush covered them).

        Newer records stay: one journaled while the flush's put was in flight
        may hold a document newer than the one that landed.  They are
        re-based onto ``base_etag``, the etag the flush landed at, which is
        what a crash now re-loads and :meth:`replay_for` matches against.
        """
        records = self._records.get(key, ())
        kept = [
            replace(record, base_etag=base_etag)
            for record in records
            if record.seq > upto_seq
        ]
        dropped = len(records) - len(kept)
        if kept:
            self._records[key] = kept
        else:
            self._records.pop(key, None)
        self.truncated_records += dropped
        if dropped:
            recorder = self._scheduler.recorder
            if recorder is not None:
                recorder.storage.record("wal-truncate", key, dropped)
        return dropped

    def pending_records(self, key: str | None = None) -> int:
        """Journal depth, overall or for one key (introspection helper)."""
        if key is not None:
            return len(self._records.get(key, ()))
        return sum(len(records) for records in self._records.values())

    def register_metrics(self, registry: "object") -> None:
        """Export journal counters as pull-probes on ``registry``."""
        registry.register_probe("wal.appends", lambda: self.appends)
        registry.register_probe("wal.skipped_appends", lambda: self.skipped_appends)
        registry.register_probe(
            "wal.replayed_records", lambda: self.replayed_records
        )
        registry.register_probe(
            "wal.truncated_records", lambda: self.truncated_records
        )
        registry.register_probe("wal.pending_records", self.pending_records)
