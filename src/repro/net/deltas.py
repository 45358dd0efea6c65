"""Coalescing delta streams for incremental view maintenance.

Materialized views are maintained by *deltas* flowing from the ingestion
write path to the owning view actor.  Emitting one message per insert per
view would double the write path's message count, so deltas from one source
silo to one view shard coalesce: aggregate deltas are a commutative monoid
(count/sum/min/max merge associatively), so every delta emitted within a
bounded window folds into the open buffer and the whole buffer ships as
**one** ``apply_deltas`` message — which then also rides the envelope
batcher like any other invocation.

Exactly-once folding comes from per-stream sequencing, the same watermark
idea the ingest dedup path uses:

- each (source silo → view shard) stream numbers its flushes with a
  monotonically increasing sequence;
- flushes on one stream are **chained** — the next flush departs only after
  the previous one was acked — so arrivals are in order and the shard's
  per-stream high-water mark suffices to drop duplicated deliveries
  (chaos duplication, at-least-once retry resends) without a dedup set;
- the emitting insert awaits the flush ack, so an insert is only
  acknowledged once every registered view durably observed its delta.
  A lost message surfaces as a retry of the *flush* (idempotent by
  sequence), never as a silently diverged view.

No task carries a flush.  A buffer's window is a ``scheduler.sleep``
future whose only done-callback is the buffer itself: the timer's event
seals it and sends it, a wait on the predecessor's ack is a done-callback
on that ``acked`` future, and the flush's reply settles the tickets from a
done-callback on the future ``send`` returned.

The module is pure mechanism: it knows nothing about actors or view
definitions.  The aodb layer (:mod:`repro.aodb.views`) supplies the
``send`` callable that turns a flush into an actor invocation.
"""

from __future__ import annotations

from typing import Any, Callable

from ..kernel.futures import _PENDING, _RESOLVED, Future, failed
from ..kernel.scheduler import Scheduler

#: One buffered delta row on the wire:
#: ``(group, entity, bucket, count, total, vmin, vmax)``.
DeltaEntry = tuple[str, str, float, int, float, float, float]

#: ``send(shard_id, stream_id, seq, entries)`` delivers one flush and returns
#: a future that resolves when the shard acked the fold (and rejects on
#: definitive failure).
SendFn = Callable[[str, str, int, list[DeltaEntry]], Future[Any]]


class _OpenBuffer:
    """Deltas accumulating toward one shard, keyed for mergeability.

    The buffer is its window timer's done-callback; :meth:`ship` and
    :meth:`settle` are the callbacks of its predecessor's ack and of its
    own flush reply.
    """

    __slots__ = (
        "coalescer", "shard_id", "entries", "members", "departed",
        "raw_deltas", "seq", "previous", "acked",
    )

    def __init__(self, coalescer: "DeltaCoalescer", shard_id: str) -> None:
        self.coalescer = coalescer
        self.shard_id = shard_id
        # (group, entity, bucket) -> [count, total, vmin, vmax]
        self.entries: dict[tuple[str, str, float], list[float]] = {}
        # (ticket, emitted_at) per contributing emit call.
        self.members: list[tuple[Future[int], float]] = []
        self.departed = False
        self.raw_deltas = 0
        # Claimed synchronously at seal time (see DeltaCoalescer._seal), so
        # stream order is fixed before any flush departs.
        self.seq = 0
        self.previous: Future[None] | None = None
        self.acked: Future[None] | None = None

    def __call__(self, _window: Future[None]) -> None:
        """The window closed: seal, unless the key bound already did."""
        if not self.departed:
            self.coalescer._seal(self)
            self.depart()

    def depart(self) -> None:
        """Send now, or once the predecessor flush on the stream is acked."""
        previous = self.previous
        if previous is not None and previous._state is _PENDING:
            # In-order delivery per stream: the shard's watermark dedup is
            # only sound because sequence N+1 never overtakes N.
            previous.add_done_callback(self.ship)
            return
        self.ship(None)

    def ship(self, _previous: Future[None] | None) -> None:
        """Ship the sealed buffer: sequenced, settled by the reply."""
        coalescer = self.coalescer
        entries: list[DeltaEntry] = [
            (group, entity, bucket, int(stats[0]), stats[1], stats[2], stats[3])
            for (group, entity, bucket), stats in sorted(self.entries.items())
        ]
        coalescer._inflight.setdefault(self.shard_id, []).extend(self.members)
        coalescer.flushes += 1
        try:
            reply = coalescer.send(self.shard_id, coalescer.source, self.seq, entries)
        except Exception as exc:  # noqa: BLE001 - a send that cannot start
            reply = failed(exc)
        reply.add_done_callback(self.settle)

    def settle(self, reply: Future[Any]) -> None:
        """The flush was acked (or failed for good): resolve every ticket
        aboard and release the stream's chain."""
        coalescer = self.coalescer
        inflight = coalescer._inflight[self.shard_id]
        for member in self.members:
            inflight.remove(member)
        if reply._state is _RESOLVED:
            self.acked.set_result(None)
            cohort = self.raw_deltas
            for ticket, _emitted_at in self.members:
                if ticket._state is _PENDING:
                    ticket.set_result(cohort)
            return
        coalescer.flush_failures += 1
        try:
            reply.result()
        except Exception as exc:
            for ticket, _emitted_at in self.members:
                if ticket._state is _PENDING:
                    ticket.set_exception(exc)
        self.acked.set_result(None)


class DeltaCoalescer:
    """Merges same-shard view deltas into sequenced, chained flushes."""

    def __init__(
        self,
        scheduler: Scheduler,
        send: SendFn,
        source: str,
        max_delay: float = 0.0005,
        max_keys: int = 128,
    ) -> None:
        if max_delay < 0:
            raise ValueError("max_delay must be >= 0")
        if max_keys < 1:
            raise ValueError("max_keys must be >= 1")
        self.scheduler = scheduler
        self.send = send
        self.source = source
        self.max_delay = max_delay
        self.max_keys = max_keys
        self._open: dict[str, _OpenBuffer] = {}
        # Per-shard FIFO chain: the next flush departs only after the
        # previous flush's ack, so stream sequences arrive in order.
        self._last_acked: dict[str, Future[None]] = {}
        self._sequences: dict[str, int] = {}
        # In-flight members per shard (for the staleness probe).
        self._inflight: dict[str, list[tuple[Future[int], float]]] = {}
        self.deltas_emitted = 0
        self.flushes = 0
        self.flush_failures = 0

    # -- emission --------------------------------------------------------------

    def emit(
        self,
        shard_id: str,
        group: str,
        entity: str,
        bucket: float,
        count: int,
        total: float,
        vmin: float,
        vmax: float,
    ) -> Future[int]:
        """Buffer one delta toward ``shard_id``; resolves on fold ack.

        The returned future carries the flush cohort size (how many raw
        deltas shared the flush), mirroring the envelope batcher's ticket.
        """
        self.deltas_emitted += 1
        ticket: Future[int] = Future("view-delta")
        buffer = self._open.get(shard_id)
        fresh = buffer is None
        if fresh:
            buffer = self._open[shard_id] = _OpenBuffer(self, shard_id)
        buffer.raw_deltas += 1
        key = (group, entity, bucket)
        entry = buffer.entries.get(key)
        if entry is None:
            buffer.entries[key] = [count, total, vmin, vmax]
        else:
            entry[0] += count
            entry[1] += total
            if vmin < entry[2]:
                entry[2] = vmin
            if vmax > entry[3]:
                entry[3] = vmax
        buffer.members.append((ticket, self.scheduler.now))
        if len(buffer.entries) >= self.max_keys:
            # Key bound hit: seal and send now (the window timer, if one
            # started, finds ``departed`` set and does nothing).
            self._seal(buffer)
            buffer.depart()
        elif fresh:
            # A zero window is still one timer, so same-instant emissions
            # coalesce.
            self.scheduler.sleep(self.max_delay)._cb0 = buffer
        return ticket

    def _seal(self, buffer: _OpenBuffer) -> None:
        """Close the buffer and claim its slot in the stream — synchronously,
        so sequence order matches seal order no matter when flushes depart."""
        buffer.departed = True
        shard_id = buffer.shard_id
        if self._open.get(shard_id) is buffer:
            del self._open[shard_id]
        buffer.seq = self._sequences.get(shard_id, 0) + 1
        self._sequences[shard_id] = buffer.seq
        buffer.previous = self._last_acked.get(shard_id)
        buffer.acked = Future("view-flush-acked")
        self._last_acked[shard_id] = buffer.acked

    # -- introspection ---------------------------------------------------------

    def oldest_pending(self) -> float | None:
        """Emit time of the oldest unacked delta (None when drained)."""
        oldest: float | None = None
        for buffer in self._open.values():
            for _ticket, emitted_at in buffer.members:
                if oldest is None or emitted_at < oldest:
                    oldest = emitted_at
        for members in self._inflight.values():
            for _ticket, emitted_at in members:
                if oldest is None or emitted_at < oldest:
                    oldest = emitted_at
        return oldest

    def pending_deltas(self) -> int:
        """Unacked deltas (buffered plus in flight)."""
        return sum(len(b.members) for b in self._open.values()) + sum(
            len(m) for m in self._inflight.values()
        )
