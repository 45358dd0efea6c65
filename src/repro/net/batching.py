"""Adaptive per-destination delivery batching (the actor-message Nagle).

Every remote invocation pays a per-message cost twice: a latency sample on
the wire and a dispatch charge on the receiving silo.  Under ingestion load
the same (source endpoint, target silo) path carries hundreds of messages
per virtual millisecond, so the fast path coalesces them: messages joining
the batcher within a bounded window ride one *envelope* — one latency
sample, one loss roll, and a dispatch overhead the cohort shares (Reactors'
batched intra-actor execution; TritanDB's write batching).

Correctness properties the runtime relies on (regression-tested):

- **Per-sender FIFO.** Envelopes on one path depart and *land* in FIFO
  order (a flush waits for its predecessor's delivery before releasing its
  members), and members land in join order, so two messages from the
  same sender to the same actor can never reorder.
- **Per-message policies.** The batcher only delays *delivery*; deadlines,
  retries and tracing all stay attached to individual invocations.  A
  deadline that lapses while its message sits in an open envelope fails
  exactly that message.
- **Bounded delay.** An envelope departs after ``max_delay`` virtual
  seconds or at ``max_size`` members, whichever comes first — and the
  window *adapts*: after two consecutive single-message envelopes on a path
  (traffic too sparse to coalesce), further messages depart immediately
  until coalescing resumes, so idle paths pay no batching latency at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..kernel.futures import Future
from ..kernel.scheduler import Scheduler
from .network import Network


@dataclass
class _OpenEnvelope:
    """One forming batch on a (source, target) path."""

    #: ``(member, joined_at)`` in join order.
    members: list[tuple[tuple, float]] = field(default_factory=list)
    opened_at: float = 0.0
    departed: bool = False


#: Consecutive single-message envelopes after which a path is considered
#: sparse and stops paying the batching delay.
SOLO_STREAK_LIMIT = 2

#: On a sparse path, every Nth envelope still holds the full window open (a
#: *probe*).  Without probes, immediate mode would be self-perpetuating:
#: cohort-1 envelopes keep the streak alive, so a path that went sparse once
#: (e.g. during sequential provisioning) could never rediscover coalescing
#: when load arrives.  With probes, at most PROBE_INTERVAL envelopes after
#: traffic picks up, one windowed envelope forms a cohort and the path flips
#: back to batching.
PROBE_INTERVAL = 8


class EnvelopeBatcher:
    """Coalesces same-path deliveries into bounded envelopes."""

    def __init__(
        self,
        network: Network,
        scheduler: Scheduler,
        land: Callable[..., None],
        fail: Callable[..., None],
        max_size: int = 64,
        max_delay: float = 0.0002,
    ) -> None:
        """``land(*member, elapsed, cohort)`` runs once per member when its
        envelope arrives: ``member`` is the tuple of leading arguments the
        member joined with, ``elapsed`` the virtual seconds between join and
        arrival (batch wait plus wire latency) and ``cohort`` the number of
        messages that shared the envelope.  ``fail(*member, error)`` runs
        per member instead when the envelope's target endpoint is unknown."""
        if max_size < 1:
            raise ValueError("max_size must be >= 1")
        if max_delay < 0:
            raise ValueError("max_delay must be >= 0")
        self.network = network
        self.scheduler = scheduler
        self._land = land
        self._fail = fail
        self.max_size = max_size
        self.max_delay = max_delay
        self._open: dict[tuple[str, str], _OpenEnvelope] = {}
        # FIFO chain per path: each flush awaits the previous envelope's
        # delivery before landing its own members.
        self._last_delivered: dict[tuple[str, str], Future[None]] = {}
        self._solo_streak: dict[tuple[str, str], int] = {}
        self.flushes = 0
        self.immediate_flushes = 0
        #: Optional flight-recorder ring (duck-typed; obs never imported here).
        self.journal = None
        #: Optional cohort-size histogram (a MetricsRegistry Histogram the
        #: runtime attaches) — the coalescing-effectiveness distribution.
        self.cohort_histogram = None

    def join(self, source: str, target: str, member: tuple) -> None:
        """Put ``member`` aboard the open envelope on (source, target).

        Nothing waits on the envelope: the batcher hands the member back
        through ``land`` (or ``fail``) when the envelope arrives, and a lost
        envelope hands back nothing.
        """
        pair = (source, target)
        joined_at = self.scheduler.now
        envelope = self._open.get(pair)
        fresh = envelope is None
        if fresh:
            envelope = _OpenEnvelope(opened_at=joined_at)
            self._open[pair] = envelope
        envelope.members.append((member, joined_at))
        if len(envelope.members) >= self.max_size:
            # Size bound hit: seal and ship on a fresh task (the door timer,
            # if one started, finds ``departed`` set and does nothing).
            self._seal(pair, envelope)
            self.scheduler.spawn(
                self._deliver(pair, envelope),
                name=f"envelope-full:{source}->{target}",
            )
        elif fresh:
            delay = self.max_delay
            streak = self._solo_streak.get(pair, 0)
            if (
                streak >= SOLO_STREAK_LIMIT
                and (streak - SOLO_STREAK_LIMIT + 1) % PROBE_INTERVAL != 0
            ):
                # Sparse path: recent envelopes never coalesced, so holding
                # the door open only adds latency.  Depart immediately —
                # except on probe envelopes, which re-test the path.
                delay = 0.0
                self.immediate_flushes += 1
            self.scheduler.spawn(
                self._depart_after(pair, envelope, delay),
                name=f"envelope:{source}->{target}",
            )

    async def _depart_after(
        self, pair: tuple[str, str], envelope: _OpenEnvelope, delay: float
    ) -> None:
        if delay > 0:
            await self.scheduler.sleep(delay)
        else:
            # Round-trip through the scheduler once so every message sent
            # at this same virtual instant still makes the envelope.
            await self.scheduler.sleep(0)
        if not envelope.departed:
            self._seal(pair, envelope)
            await self._deliver(pair, envelope)

    def _seal(self, pair: tuple[str, str], envelope: _OpenEnvelope) -> None:
        """Close the envelope; the next message on this path starts a new one."""
        envelope.departed = True
        if self._open.get(pair) is envelope:
            del self._open[pair]
        if len(envelope.members) <= 1:
            self._solo_streak[pair] = self._solo_streak.get(pair, 0) + 1
        else:
            self._solo_streak[pair] = 0

    async def _deliver(self, pair: tuple[str, str], envelope: _OpenEnvelope) -> None:
        self.flushes += 1
        cohort = len(envelope.members)
        histogram = self.cohort_histogram
        if histogram is not None:
            histogram.observe(cohort)
        journal = self.journal
        if journal is not None:
            journal.record("envelope", pair[1], cohort)
        previous = self._last_delivered.get(pair)
        delivered: Future[None] = Future("delivered")
        self._last_delivered[pair] = delivered
        try:
            delay = self.network.plan_envelope(pair[0], pair[1], cohort)
        except KeyError as exc:
            # The target endpoint vanished (silo torn down mid-flight):
            # surface the routing error on every member instead of hanging.
            for member, _joined_at in envelope.members:
                self._fail(*member, exc)
            delivered.set_result(None)
            return
        if delay is None:
            # The whole envelope was lost on the wire: its members never
            # land (only caller-side deadlines turn that silence into
            # errors), but the path's FIFO chain must stay live so later
            # envelopes keep flowing.
            delivered.set_result(None)
            return
        if delay > 0:
            await self.scheduler.sleep(delay)
        if previous is not None and not previous.done():
            # Keep per-path FIFO even under stochastic latency: never
            # release this envelope before its predecessor delivered.
            await previous
        now = self.scheduler.now
        land = self._land
        for member, joined_at in envelope.members:
            land(*member, now - joined_at, cohort)
        delivered.set_result(None)
