"""Gateway circuit breaker: load shedding and bounded queueing under throttle."""

import pytest

from repro.errors import ThrottledError
from repro.ingest import GatewayOverloadedError, IngestGateway, default_registry
from repro.kernel import Scheduler
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.runtime import CircuitBreaker
from repro.shm import channel_id_for


class FakeRuntime:
    """What the gateway reads off a runtime: clock, tracer, registry."""

    def __init__(self, scheduler):
        self.scheduler = scheduler
        self.tracer = Tracer(enabled=False)
        self.metrics = MetricsRegistry()


class FlakyBackend:
    """Duck-typed platform: throttles every ingest until ``heal_at``."""

    def __init__(self, scheduler, heal_at):
        self.runtime = FakeRuntime(scheduler)
        self.heal_at = heal_at
        self.served = []

    async def ingest(self, sensor_id, batch, trace=None):
        if self.runtime.scheduler.now < self.heal_at:
            raise ThrottledError("backend overloaded", retry_after=0.1)
        self.served.append(sensor_id)


def upload(sensor_id):
    return {
        "channels": {
            channel_id_for(sensor_id, 0): [{"t": 0.0, "v": 1.0}],
        }
    }


def test_breaker_trips_requeues_and_recovers():
    sched = Scheduler()
    backend = FlakyBackend(sched, heal_at=2.0)
    breaker = CircuitBreaker(sched, failure_threshold=3, reset_timeout=1.0)
    gateway = IngestGateway(
        backend, default_registry(), dispatchers=2, breaker=breaker
    )
    gateway.start()

    async def main():
        for i in range(6):
            gateway.submit(f"s-{i}", "json", upload(f"s-{i}"))
        await sched.sleep(10.0)

    sched.run_until_complete(main())
    # Every envelope survived the throttled phase via requeueing and was
    # dispatched once the backend healed and the breaker closed.
    assert sorted(backend.served) == [f"s-{i}" for i in range(6)]
    assert gateway.stats.dispatched == 6
    assert gateway.stats.throttled >= 3
    assert gateway.stats.redispatched >= 3
    assert gateway.stats.dropped == 0
    assert breaker.opens >= 1
    assert breaker.state == CircuitBreaker.CLOSED


def test_open_breaker_sheds_past_watermark():
    sched = Scheduler()
    backend = FlakyBackend(sched, heal_at=100.0)
    breaker = CircuitBreaker(sched, failure_threshold=1, reset_timeout=5.0)
    gateway = IngestGateway(
        backend,
        default_registry(),
        queue_capacity=4,
        shed_watermark=0.5,
        breaker=breaker,
    )
    # No dispatchers: queue depth is fully under the test's control.
    breaker.record_failure()  # trip it open
    assert not breaker.allow()

    gateway.submit("s-0", "json", upload("s-0"))
    gateway.submit("s-1", "json", upload("s-1"))
    # Queue is now at the watermark (2 of 4): new uploads are shed.
    with pytest.raises(GatewayOverloadedError):
        gateway.submit("s-2", "json", upload("s-2"))
    assert gateway.stats.shed == 1
    assert gateway.stats.accepted == 2


def test_closed_breaker_never_sheds():
    sched = Scheduler()
    backend = FlakyBackend(sched, heal_at=0.0)
    breaker = CircuitBreaker(sched, failure_threshold=1, reset_timeout=5.0)
    gateway = IngestGateway(
        backend,
        default_registry(),
        queue_capacity=4,
        shed_watermark=0.0,  # most aggressive watermark
        breaker=breaker,
    )
    for i in range(4):
        gateway.submit(f"s-{i}", "json", upload(f"s-{i}"))
    assert gateway.stats.shed == 0
    assert gateway.stats.accepted == 4


def test_shed_watermark_validated():
    sched = Scheduler()
    backend = FlakyBackend(sched, heal_at=0.0)
    with pytest.raises(ValueError):
        IngestGateway(backend, default_registry(), shed_watermark=1.5)
