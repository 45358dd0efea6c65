"""The ingestion gateway: a stateless tier between devices and actors.

The paper (§6.1): "we envision that ingestion of sensor data points will be
based on a REST interface in a production deployment ... As part of data
ingestion, message queues can be employed to accommodate for bursty
behavior in sensor measurements."  This module is that tier:

- :class:`IngestGateway` accepts raw device payloads (any registered
  format), normalizes them through the adapter registry, and enqueues them
  on a bounded message queue;
- a pool of dispatcher tasks drains the queue into sensor actors, limiting
  the concurrency the actor tier sees (back-pressure instead of overload);
- overflow policy is explicit: ``reject`` (surface an error to the device,
  like an HTTP 429) or ``drop_oldest`` (favour fresh telemetry);
- an optional :class:`~repro.runtime.resilience.CircuitBreaker` turns
  backend throttling into bounded behaviour: dispatchers trip the breaker
  on :class:`~repro.errors.ThrottlingError`, re-enqueue the envelope, and
  back off, while :meth:`IngestGateway.submit` sheds new uploads once the
  breaker is open and the queue is past a watermark.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import PlatformError, ThrottlingError
from ..kernel.scheduler import Scheduler, Task
from ..kernel.sync import Queue
from ..obs.trace import Tracer
from ..runtime.resilience import CircuitBreaker
from ..shm.platform import ShmPlatform
from .adapters import AdapterRegistry, NormalizedBatch


class GatewayOverloadedError(PlatformError):
    """The ingest queue is full and the policy is ``reject``."""


@dataclass
class GatewayStats:
    """Operational counters for the gateway."""

    accepted: int = 0
    rejected: int = 0
    dropped: int = 0
    dispatched: int = 0
    parse_errors: int = 0
    shed: int = 0
    throttled: int = 0
    redispatched: int = 0
    max_queue_depth: int = 0
    formats_seen: dict[str, int] = field(default_factory=dict)


@dataclass
class _Envelope:
    sensor_id: str
    batch: NormalizedBatch
    received_at: float


class IngestGateway:
    """Bounded-queue ingestion front door for an SHM platform."""

    def __init__(
        self,
        platform: ShmPlatform,
        registry: AdapterRegistry,
        queue_capacity: int = 1024,
        dispatchers: int = 8,
        overflow: str = "reject",
        breaker: CircuitBreaker | None = None,
        shed_watermark: float = 0.5,
    ) -> None:
        if overflow not in ("reject", "drop_oldest"):
            raise ValueError("overflow must be 'reject' or 'drop_oldest'")
        if not 0.0 <= shed_watermark <= 1.0:
            raise ValueError("shed_watermark must be in [0, 1]")
        self.platform = platform
        self.registry = registry
        self.overflow = overflow
        self.breaker = breaker
        self.shed_watermark = shed_watermark
        self.stats = GatewayStats()
        self._scheduler: Scheduler = platform.runtime.scheduler
        self._queue: Queue[_Envelope] = Queue(self._scheduler)
        self._capacity = queue_capacity
        self._dispatcher_count = dispatchers
        self._dispatchers: list[Task] = []
        self._stopping = False
        self._register_metrics()

    def _register_metrics(self) -> None:
        """Export gateway counters on the runtime's metrics registry."""
        # getattr: tests drive the gateway against minimal platform fakes
        # that don't carry the observability substrates.
        registry = getattr(self.platform.runtime, "metrics", None)
        if registry is None:
            return
        stats = self.stats
        for name in (
            "accepted", "rejected", "dropped", "dispatched",
            "parse_errors", "shed", "throttled", "redispatched",
        ):
            registry.register_probe(
                f"ingest.{name}", lambda n=name: getattr(stats, n)
            )
        registry.register_probe("ingest.queue_depth", lambda: len(self._queue))

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Spawn the dispatcher pool (idempotent)."""
        if self._dispatchers:
            return
        self._stopping = False
        self._dispatchers = [
            self._scheduler.spawn(self._dispatch_loop(), name=f"ingest-dispatch-{i}")
            for i in range(self._dispatcher_count)
        ]

    async def stop(self, drain: bool = True) -> None:
        """Stop dispatchers, optionally after draining the queue."""
        self._stopping = True
        if drain:
            while len(self._queue) > 0:
                await self._scheduler.sleep(0.01)
        for task in self._dispatchers:
            task.cancel()
        self._dispatchers = []

    @property
    def queue_depth(self) -> int:
        """Envelopes waiting for a dispatcher."""
        return len(self._queue)

    # -- the device-facing surface ----------------------------------------------

    def submit(self, sensor_id: str, format_name: str, payload: object) -> bool:
        """Accept one device upload (the REST POST equivalent).

        Parses synchronously (fail fast back to the device), then enqueues.
        Returns True if accepted; raises :class:`GatewayOverloadedError`
        under ``reject`` overflow, returns True after evicting the oldest
        envelope under ``drop_oldest``.  With a circuit breaker configured,
        uploads are shed (429) once the breaker is open and the queue is
        past ``shed_watermark`` of capacity — bounded queueing instead of
        piling work onto a throttled backend.
        """
        if (
            self.breaker is not None
            and not self.breaker.allow()
            and len(self._queue) >= self.shed_watermark * self._capacity
        ):
            self.stats.shed += 1
            raise GatewayOverloadedError(
                "backend throttled (circuit open) and queue past watermark; "
                "shedding load"
            )
        try:
            batch = self.registry.parse(format_name, payload)
        except PlatformError:
            self.stats.parse_errors += 1
            raise
        self.stats.formats_seen[format_name] = (
            self.stats.formats_seen.get(format_name, 0) + 1
        )
        if len(self._queue) >= self._capacity:
            if self.overflow == "reject":
                self.stats.rejected += 1
                raise GatewayOverloadedError(
                    f"ingest queue full ({self._capacity}); retry later"
                )
            self._queue.get()  # drop_oldest: evict the head
            self.stats.dropped += 1
        envelope = _Envelope(sensor_id, batch, self._scheduler.now)
        self._queue.put_nowait(envelope)
        self.stats.accepted += 1
        self.stats.max_queue_depth = max(self.stats.max_queue_depth, len(self._queue))
        return True

    # -- dispatchers ----------------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        tracer = getattr(self.platform.runtime, "tracer", None)
        if tracer is None:
            tracer = Tracer(enabled=False)
        while True:
            envelope = await self._queue.get()
            if self.breaker is not None and not self.breaker.allow():
                # Breaker open: hold the envelope instead of hammering a
                # backend that just throttled us; wake when it half-opens.
                self._requeue(envelope)
                await self._scheduler.sleep(
                    max(0.01, self.breaker.seconds_until_probe())
                )
                continue
            span = None
            if tracer.enabled:
                # Root of the ingest causal tree.  Starting the span at
                # arrival time makes gateway-queue wait part of the trace:
                # it shows up as this span's ``queue`` component.
                now = self._scheduler.now
                span = tracer.begin(
                    f"ingest:{envelope.sensor_id}",
                    "ingest",
                    "gateway",
                    now,
                    start=envelope.received_at,
                )
                if span is not None:
                    span.queue += now - envelope.received_at
            try:
                # Only thread the kwarg when tracing: duck-typed platform
                # fakes in tests implement the bare ingest(sensor_id, batch).
                if span is not None:
                    await self.platform.ingest(
                        envelope.sensor_id, envelope.batch, trace=span
                    )
                else:
                    await self.platform.ingest(envelope.sensor_id, envelope.batch)
            except ThrottlingError as exc:
                self.stats.throttled += 1
                tracer.finish(
                    span, self._scheduler.now, status="error", error=str(exc)
                )
                if self.breaker is not None:
                    self.breaker.record_failure()
                self._requeue(envelope)
                await self._scheduler.sleep(
                    getattr(exc, "retry_after", 0.0) or 0.05
                )
            except PlatformError as exc:
                # A bad sensor id or channel set: count and keep serving.
                self.stats.parse_errors += 1
                tracer.finish(
                    span, self._scheduler.now, status="error", error=str(exc)
                )
            else:
                self.stats.dispatched += 1
                tracer.finish(span, self._scheduler.now)
                if self.breaker is not None:
                    self.breaker.record_success()

    def _requeue(self, envelope: _Envelope) -> None:
        """Put a throttled envelope back at the tail, dropping if full."""
        if len(self._queue) >= self._capacity:
            self.stats.dropped += 1
            return
        self._queue.put_nowait(envelope)
        self.stats.redispatched += 1
