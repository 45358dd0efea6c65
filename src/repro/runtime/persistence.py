"""Actor-state persistence policies.

Orleans lets the developer decide when grain state reaches storage (§5 of
the paper: write on every request, batch a window, or only on deactivation).
The same spectrum is offered here as :class:`WritePolicy`, chosen per actor
class:

- ``WRITE_THROUGH``: persist after every state-mutating method;
- ``INTERVAL``: persist at most every ``write_interval_seconds`` (a timer
  flushes dirty state);
- ``ON_DEACTIVATE``: persist only when the activation is collected or the
  silo shuts down (the configuration the paper benchmarks);
- ``MANUAL``: only when the actor itself calls ``write_state()``.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any

from ..errors import FencedWriteError
from ..storage.kv import KeyValueStore
from ..storage.serde import snapshot
from .key import ActorKey

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..kernel.scheduler import Scheduler
    from ..storage.groupcommit import GroupCommitWriter
    from ..storage.wal import RedoJournal


class WritePolicy(enum.Enum):
    """When an actor's state document is flushed to grain storage."""

    WRITE_THROUGH = "write_through"
    INTERVAL = "interval"
    ON_DEACTIVATE = "on_deactivate"
    MANUAL = "manual"


class StateCell:
    """The persistent-state holder attached to a durable actor.

    Wraps a plain dict document plus the etag observed at load time, so
    writes are conditional: if another activation of the same grain wrote
    concurrently (which the single-activation guarantee should prevent),
    the conditional check fails loudly instead of silently losing data.
    The cell stamps every flush with its fence, so it is also where a fence
    bounce is logged, whichever store layer raised it: in the ``storage``
    ring of the flight recorder attached to ``clock`` (the runtime's
    scheduler), if any.
    """

    __slots__ = (
        "_key", "_storage_key", "_store", "_writer", "fence", "_journal",
        "_clock", "document", "_etag", "dirty", "loads", "flushes", "replayed",
    )

    def __init__(
        self,
        key: ActorKey,
        store: KeyValueStore,
        clock: "Scheduler",
        writer: "GroupCommitWriter | None" = None,
        fence: int | None = None,
        journal: "RedoJournal | None" = None,
    ) -> None:
        self._key = key
        # The storage key is a pure function of the actor key; format it
        # once instead of per load/flush.
        self._storage_key = key.storage_key()
        self._store = store
        # Optional group-commit path: flushes join a commit window instead
        # of paying their own storage round trip.  Durability is identical —
        # flush() still returns only after the write landed.
        self._writer = writer
        # Fence token acquired by this activation at load time; stamped on
        # every flush so the store rejects writes from older activations.
        self.fence = fence
        # Optional redo journal: load() replays its fenced suffix so a
        # crash between flushes loses at most one redo_lag window.
        self._journal = journal
        self._clock = clock
        self.document: dict[str, Any] = {}
        self._etag = 0
        self.dirty = False
        self.loads = 0
        self.flushes = 0
        self.replayed = 0

    @property
    def etag(self) -> int:
        """The etag this cell's next conditional write is based on."""
        return self._etag

    async def load(self) -> bool:
        """Read the document from storage; returns True if it existed.

        With a fence, first raises the store's (and journal's) fence floor —
        from this point a zombie predecessor's in-flight flush is rejected
        even if it lands before this activation's first write.  With a
        journal, the fenced redo suffix is then replayed over the loaded
        document: the recovered state is dirty (it has not been flushed) but
        no longer lost.
        """
        storage_key = self._storage_key
        if self.fence is not None:
            await self._store.advance_fence(storage_key, self.fence)
            if self._journal is not None:
                self._journal.advance_fence(storage_key, self.fence)
        item = await self._store.try_get(storage_key)
        self.loads += 1
        if item is None:
            self.document = {}
            self._etag = 0
        else:
            self.document = dict(item.value)
            self._etag = item.etag
        self.dirty = False
        if self._journal is not None:
            record = self._journal.replay_for(storage_key, self._etag, self.fence)
            if record is not None:
                # The journal's record outlives this activation (the next
                # append is deduplicated against it, a later replay reads
                # it again), so the live document must share no container
                # with it.
                self.document = snapshot(record.document)
                self.dirty = True
                self.replayed += 1
        return item is not None

    async def flush(self, *, direct: bool = False) -> None:
        """Write the document if dirty (no-op otherwise).

        ``direct=True`` bypasses the group-commit writer — used by the
        quarantine "scram flush", which must not sit in a commit window
        while the silo is being fenced off.
        """
        if not self.dirty:
            return
        storage_key = self._storage_key
        target = self._store if direct or self._writer is None else self._writer
        journal = self._journal
        # What this put covers: the records journaled before it is issued.
        covered = 0 if journal is None else journal.last_seq
        try:
            self._etag = await target.put(
                storage_key, self.document, expected_etag=self._etag, fence=self.fence
            )
        except FencedWriteError:
            recorder = self._clock.recorder
            if recorder is not None:
                recorder.storage.record("fenced-bounce", storage_key, self.fence)
            raise
        self.flushes += 1
        if journal is None:
            self.dirty = False
        else:
            journal.truncate(storage_key, covered, self._etag)
            # A record journaled while the put was in flight survives, re-based
            # onto the landed etag, and the cell stays dirty until a later
            # flush covers it.
            self.dirty = journal.pending_records(storage_key) > 0

    async def clear(self) -> None:
        """Delete the stored document (actor-level hard delete)."""
        await self._store.delete(self._storage_key)
        self.document = {}
        self._etag = 0
        self.dirty = False
