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
  order (a landing waits for its predecessor's delivery before releasing
  its members), and members land in join order, so two messages from the
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

No task carries an envelope.  Its window is a ``scheduler.sleep`` future
whose only done-callback is the envelope itself: the timer's event seals
and plans it, and the wire timer's event lands it.  A wait on the
predecessor is one more done-callback, on its ``delivered`` future, which
lands the envelope in the next ready event so that a long chain of waiting
envelopes never nests.  A windowed envelope with wire delay costs two
kernel events, one per timer, and an exception raised by ``land``
propagates out of the run like one from any other timer.
"""

from __future__ import annotations

from typing import Callable

from ..kernel.futures import _PENDING, Future
from ..kernel.scheduler import Scheduler
from .network import Network


class _Envelope:
    """One batch on a (source, target) path, and every callback it needs.

    It is the done-callback of its window timer (depart), of its wire timer
    (land) and, under latency inversion, of its predecessor's ``delivered``
    (land in a ready event of its own).
    """

    __slots__ = ("batcher", "pair", "members", "departed", "window", "previous",
                 "delivered")

    def __init__(self, batcher: "EnvelopeBatcher", pair: tuple[str, str]) -> None:
        self.batcher = batcher
        self.pair = pair
        #: ``(member, joined_at)`` in join order.
        self.members: list[tuple[tuple, float]] = []
        self.departed = False
        self.window: Future[None] | None = None
        self.previous: Future[None] | None = None
        self.delivered: Future[None] | None = None

    def __call__(self, future: Future[None]) -> None:
        batcher = self.batcher
        if future is self.window:
            # The door closes; after a size-bound seal it finds the envelope
            # gone already and does nothing.
            if not self.departed:
                batcher._seal(self)
                batcher._depart(self)
        elif future is self.previous:
            # The predecessor just landed.  Landing here would nest one
            # stack frame chain per waiting envelope (a long latency
            # inversion queues hundreds), so land in the next ready event.
            batcher.scheduler._call_soon(batcher._land, self)
        else:
            batcher._land(self)


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
        self._land_member = land
        self._fail = fail
        self.max_size = max_size
        self.max_delay = max_delay
        self._open: dict[tuple[str, str], _Envelope] = {}
        # FIFO chain per path: each envelope lands only after the previous
        # envelope's delivery.
        self._last_delivered: dict[tuple[str, str], Future[None]] = {}
        self._solo_streak: dict[tuple[str, str], int] = {}
        self.flushes = 0
        self.immediate_flushes = 0
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
        envelope = self._open.get(pair)
        fresh = envelope is None
        if fresh:
            envelope = self._open[pair] = _Envelope(self, pair)
        envelope.members.append((member, self.scheduler.now))
        if len(envelope.members) >= self.max_size:
            # Size bound hit: seal and ship now (the door timer, if one
            # started, finds ``departed`` set and does nothing).
            self._seal(envelope)
            self._depart(envelope)
        elif fresh:
            delay = self.max_delay
            streak = self._solo_streak.get(pair, 0)
            if (
                streak >= SOLO_STREAK_LIMIT
                and (streak - SOLO_STREAK_LIMIT + 1) % PROBE_INTERVAL != 0
            ):
                # Sparse path: recent envelopes never coalesced, so holding
                # the door open only adds latency.  Depart immediately —
                # except on probe envelopes, which re-test the path.  A zero
                # window is still one timer, so every message sent at this
                # same virtual instant makes the envelope.
                delay = 0.0
                self.immediate_flushes += 1
            envelope.window = window = self.scheduler.sleep(delay)
            window._cb0 = envelope

    def _seal(self, envelope: _Envelope) -> None:
        """Close the envelope; the next message on this path starts a new one."""
        envelope.departed = True
        pair = envelope.pair
        if self._open.get(pair) is envelope:
            del self._open[pair]
        if len(envelope.members) <= 1:
            self._solo_streak[pair] = self._solo_streak.get(pair, 0) + 1
        else:
            self._solo_streak[pair] = 0

    def _depart(self, envelope: _Envelope) -> None:
        """Commit the sealed envelope to the wire; land it when it arrives."""
        self.flushes += 1
        pair = envelope.pair
        cohort = len(envelope.members)
        histogram = self.cohort_histogram
        if histogram is not None:
            histogram.observe(cohort)
        recorder = self.scheduler.recorder
        if recorder is not None:
            recorder.net.record("envelope", pair[1], cohort)
        envelope.previous = self._last_delivered.get(pair)
        envelope.delivered = delivered = Future("delivered")
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
            self.scheduler.sleep(delay)._cb0 = envelope
        else:
            self._land(envelope)

    def _land(self, envelope: _Envelope) -> None:
        """Hand every member back, in join order, once the predecessor has."""
        previous = envelope.previous
        if previous is not None and previous._state is _PENDING:
            # Keep per-path FIFO even under stochastic latency: never
            # release this envelope before its predecessor delivered.
            previous.add_done_callback(envelope)
            return
        now = self.scheduler.now
        members = envelope.members
        cohort = len(members)
        land = self._land_member
        for member, joined_at in members:
            land(*member, now - joined_at, cohort)
        envelope.delivered.set_result(None)
