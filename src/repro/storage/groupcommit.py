"""Group-commit write-behind: coalesce state flushes into one round trip.

Under ingestion load many activations flush state within the same scheduler
window; each flush is an independent :meth:`KeyValueStore.put` round trip.
The :class:`GroupCommitWriter` sits between a durable activation and the
store: puts issued within a bounded window (``max_delay`` virtual seconds,
``max_batch`` entries) collapse into a single :meth:`put_many` call — one
storage round trip for N writes (TritanDB's write batching; the classic WAL
group commit).

Durability semantics are *unchanged*: a caller's future resolves only after
the batch landed in the store, so a write-through ack still means durable,
and under ``crash_silo`` an unflushed write is lost exactly like a write the
crashed silo never issued (the caller never got its ack).  Per-entry
conditional-check failures surface on exactly the caller that conflicted.

No task carries a window.  The window is a ``scheduler.sleep`` future whose
only done-callback is the writer's ``_close_window``, and a flush steps its
``put_many`` coroutine eagerly inside the event that sealed the batch: a
store that answers synchronously (``InMemoryKVStore``) costs no task at
all, and one that suspends (a provisioned store's round trip) is handed to
:meth:`Scheduler.adopt`, whose last step settles the tickets.
"""

from __future__ import annotations

from typing import Any

from ..kernel.futures import Future
from ..kernel.scheduler import Scheduler
from .kv import KeyValueStore


class GroupCommitWriter:
    """Coalesces puts issued within a window into one ``put_many`` batch."""

    def __init__(
        self,
        store: KeyValueStore,
        scheduler: Scheduler,
        max_batch: int = 64,
        max_delay: float = 0.0,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_delay < 0:
            raise ValueError("max_delay must be >= 0")
        self.store = store
        self.scheduler = scheduler
        self.max_batch = max_batch
        self.max_delay = max_delay
        self._pending: list[tuple[str, Any, int | None, int | None, Future[int]]] = []
        self._window_open = False
        self.batches = 0
        self.batched_writes = 0
        self.largest_batch = 0
        self.round_trips_saved = 0

    def put(
        self,
        key: str,
        value: Any,
        expected_etag: int | None = None,
        fence: int | None = None,
    ) -> Future[int]:
        """Join the open commit window; resolves with the new etag.

        The returned future rejects with the entry's own error on a
        conditional-check conflict (or a stale ``fence`` rejected by the
        store), or with the batch's error when the whole round trip failed
        (e.g. storage throttling).
        """
        ticket: Future[int] = Future(f"groupcommit:{key}")
        self._pending.append((key, value, expected_etag, fence, ticket))
        if len(self._pending) >= self.max_batch:
            batch = self._pending
            self._pending = []
            self._flush(batch)
        elif not self._window_open:
            self._window_open = True
            # A zero window is still one timer: every flush issued at this
            # same virtual instant (one scheduler turn's worth of writes)
            # joins the batch, and nothing waits longer than "now".
            self.scheduler.sleep(self.max_delay)._cb0 = self._close_window
        return ticket

    def _close_window(self, _window: Future[None]) -> None:
        self._window_open = False
        batch = self._pending
        self._pending = []
        if batch:
            self._flush(batch)

    def _flush(
        self, batch: list[tuple[str, Any, int | None, int | None, Future[int]]]
    ) -> None:
        self.batches += 1
        size = len(batch)
        self.largest_batch = max(self.largest_batch, size)
        recorder = self.scheduler.recorder
        if recorder is not None:
            recorder.storage.record("group-commit", size)
        if size > 1:
            self.batched_writes += size
            self.round_trips_saved += size - 1
        commit = self._commit(batch)
        try:
            yielded = commit.send(None)
        except StopIteration:
            return  # the store answered without waiting
        self.scheduler.adopt(commit, yielded)

    async def _commit(
        self, batch: list[tuple[str, Any, int | None, int | None, Future[int]]]
    ) -> None:
        """One ``put_many`` round trip, then every ticket settled."""
        try:
            results = await self.store.put_many(
                [(key, value, etag, fence) for key, value, etag, fence, _t in batch]
            )
        except BaseException as exc:  # noqa: BLE001 - whole-batch failure
            for *_entry, ticket in batch:
                if not ticket.done():
                    ticket.set_exception(exc)
            return
        for (*_entry, ticket), result in zip(batch, results):
            if ticket.done():
                continue
            if isinstance(result, BaseException):
                ticket.set_exception(result)
            else:
                ticket.set_result(result)

    def register_metrics(self, registry: "object") -> None:
        """Export group-commit counters as pull-probes on ``registry``."""
        registry.register_probe("groupcommit.batches", lambda: self.batches)
        registry.register_probe(
            "groupcommit.batched_writes", lambda: self.batched_writes
        )
        registry.register_probe(
            "groupcommit.largest_batch", lambda: self.largest_batch
        )
        registry.register_probe(
            "groupcommit.round_trips_saved", lambda: self.round_trips_saved
        )
