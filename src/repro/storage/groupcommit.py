"""Group-commit write-behind: coalesce state flushes into one round trip.

Under ingestion load many activations flush state within the same scheduler
window; each flush is an independent :meth:`KeyValueStore.put` round trip.
The :class:`GroupCommitWriter` sits between :class:`StateCell` and the
store: puts issued within a bounded window (``max_delay`` virtual seconds,
``max_batch`` entries) collapse into a single :meth:`put_many` call — one
storage round trip for N writes (TritanDB's write batching; the classic WAL
group commit).

Durability semantics are *unchanged*: a caller's future resolves only after
the batch landed in the store, so a write-through ack still means durable,
and under ``crash_silo`` an unflushed write is lost exactly like a write the
crashed silo never issued (the caller never got its ack).  Per-entry
conditional-check failures surface on exactly the caller that conflicted.
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
        #: Optional flight-recorder ring (duck-typed; obs never imported here).
        self.journal = None

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
            self.scheduler.spawn(self._flush(batch), name="groupcommit-full")
        elif not self._window_open:
            self._window_open = True
            self.scheduler.spawn(self._window(), name="groupcommit-window")
        return ticket

    async def _window(self) -> None:
        if self.max_delay > 0:
            await self.scheduler.sleep(self.max_delay)
        else:
            # One trip through the scheduler: every flush issued at this
            # same virtual instant (one scheduler turn's worth of writes)
            # joins the batch, and nothing waits longer than "now".
            await self.scheduler.sleep(0)
        self._window_open = False
        batch = self._pending
        self._pending = []
        if batch:
            await self._flush(batch)

    async def _flush(
        self, batch: list[tuple[str, Any, int | None, int | None, Future[int]]]
    ) -> None:
        self.batches += 1
        size = len(batch)
        self.largest_batch = max(self.largest_batch, size)
        journal = self.journal
        if journal is not None:
            journal.record("group-commit", size)
        if size > 1:
            self.batched_writes += size
            self.round_trips_saved += size - 1
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
