"""Tests for the ingestion gateway (queueing, overflow, dispatch)."""

import pytest

from repro.aodb import AodbDatabase
from repro.ingest import GatewayOverloadedError, IngestGateway, default_registry
from repro.kernel import Scheduler
from repro.net import ConstantLatency, Network
from repro.runtime import AodbRuntime, RuntimeConfig
from repro.shm import ShmPlatform, channel_id_for, sensor_id_for


@pytest.fixture
def sched():
    return Scheduler()


@pytest.fixture
def platform(sched):
    config = RuntimeConfig(default_method_cost=0.0, activation_cost=0.0)
    runtime = AodbRuntime(
        sched, config=config, network=Network(sched, lan=ConstantLatency(0.0005))
    )
    runtime.add_silo("silo-1", cores=4)
    return ShmPlatform(AodbDatabase(runtime))


def json_upload(sensor_id, start=0.0):
    return {
        "channels": {
            channel_id_for(sensor_id, c): [
                {"t": start + i * 0.1, "v": float(c + i)} for i in range(10)
            ]
            for c in (0, 1)
        }
    }


def test_gateway_normalizes_and_dispatches(sched, platform):
    gateway = IngestGateway(platform, default_registry())
    gateway.start()

    async def main():
        await platform.provision(total_sensors=1)
        sensor_id = sensor_id_for("org-0", 0)
        gateway.submit(sensor_id, "json", json_upload(sensor_id))
        gateway.submit(
            sensor_id,
            "csv",
            f"{channel_id_for(sensor_id, 0)},5.0,42.0",
        )
        await sched.sleep(1)
        return await platform.raw_range(channel_id_for(sensor_id, 0), 0.0, 10.0)

    raw = sched.run_until_complete(main())
    assert len(raw) == 11  # 10 json points + 1 csv point
    assert gateway.stats.accepted == 2
    assert gateway.stats.dispatched == 2
    assert gateway.stats.formats_seen == {"json": 1, "csv": 1}


def test_gateway_rejects_bad_payload_synchronously(sched, platform):
    from repro.ingest import AdapterError

    gateway = IngestGateway(platform, default_registry())
    with pytest.raises(AdapterError):
        gateway.submit("s", "json", {"nope": 1})
    assert gateway.stats.parse_errors == 1
    assert gateway.stats.accepted == 0


def test_gateway_reject_overflow_policy(sched, platform):
    gateway = IngestGateway(
        platform, default_registry(), queue_capacity=2, overflow="reject"
    )
    # No dispatchers running: the queue can only fill.

    async def main():
        await platform.provision(total_sensors=1)
        sensor_id = sensor_id_for("org-0", 0)
        gateway.submit(sensor_id, "json", json_upload(sensor_id))
        gateway.submit(sensor_id, "json", json_upload(sensor_id))
        with pytest.raises(GatewayOverloadedError):
            gateway.submit(sensor_id, "json", json_upload(sensor_id))

    sched.run_until_complete(main())
    assert gateway.stats.rejected == 1
    assert gateway.queue_depth == 2


def test_gateway_drop_oldest_overflow_policy(sched, platform):
    gateway = IngestGateway(
        platform, default_registry(), queue_capacity=2, overflow="drop_oldest"
    )

    async def main():
        await platform.provision(total_sensors=1)
        sensor_id = sensor_id_for("org-0", 0)
        for start in (0.0, 1.0, 2.0):
            gateway.submit(sensor_id, "json", json_upload(sensor_id, start))
        # Now drain: start dispatchers late.
        gateway.start()
        await sched.sleep(1)
        return await platform.raw_range(channel_id_for(sensor_id, 0), 0.0, 10.0)

    raw = sched.run_until_complete(main())
    assert gateway.stats.dropped == 1
    # The oldest upload (start=0.0) was evicted; 1.0 and 2.0 survived.
    timestamps = [t for t, _ in raw]
    assert min(timestamps) == pytest.approx(1.0)
    assert len(raw) == 20


def test_gateway_backpressure_absorbs_burst(sched, platform):
    """A burst far above actor-tier throughput drains smoothly."""
    gateway = IngestGateway(
        platform, default_registry(), queue_capacity=500, dispatchers=4
    )
    gateway.start()

    async def main():
        await platform.provision(total_sensors=10)
        # 100 uploads arrive in one instant.
        for wave in range(10):
            for index in range(10):
                sensor_id = sensor_id_for("org-0", index)
                gateway.submit(sensor_id, "json", json_upload(sensor_id, float(wave)))
        depth_at_burst = gateway.queue_depth
        await gateway.stop(drain=True)
        return depth_at_burst

    depth = sched.run_until_complete(main())
    assert depth > 50  # the queue really buffered the burst
    assert gateway.stats.dispatched == 100
    assert gateway.queue_depth == 0


def test_gateway_backlog_dispatches_per_sensor_fifo(sched, platform):
    gateway = IngestGateway(platform, default_registry(), dispatchers=1)

    def upload(sensor_id, t):
        return {"channels": {channel_id_for(sensor_id, 0): [{"t": t, "v": t}]}}

    async def main():
        await platform.provision(total_sensors=2)
        a = sensor_id_for("org-0", 0)
        b = sensor_id_for("org-0", 1)
        # A backlog (a, a, b, a, b, b) greets the single dispatcher: each
        # envelope is its own ingest call, in queue order.
        for i, sensor in enumerate((a, a, b, a, b, b)):
            gateway.submit(sensor, "json", upload(sensor, float(i)))
        gateway.start()
        await sched.sleep(1)
        return (
            await platform.raw_range(channel_id_for(a, 0), 0.0, 10.0),
            await platform.raw_range(channel_id_for(b, 0), 0.0, 10.0),
        )

    points_a, points_b = sched.run_until_complete(main())
    assert [t for t, _v in points_a] == [0.0, 1.0, 3.0]
    assert [t for t, _v in points_b] == [2.0, 4.0, 5.0]
    assert gateway.stats.dispatched == 6


def test_gateway_bad_sensor_id_counted_not_fatal(sched, platform):
    gateway = IngestGateway(platform, default_registry())
    gateway.start()

    async def main():
        await platform.provision(total_sensors=1)
        gateway.submit("org-0/s-99", "csv", "org-0/s-99/c-0,1.0,2.0")
        sensor_id = sensor_id_for("org-0", 0)
        gateway.submit(sensor_id, "json", json_upload(sensor_id))
        await sched.sleep(1)
        return await platform.raw_range(channel_id_for(sensor_id, 0), 0.0, 10.0)

    raw = sched.run_until_complete(main())
    assert len(raw) == 10  # the good upload landed
    assert gateway.stats.parse_errors == 1


def test_gateway_invalid_overflow_rejected(platform):
    with pytest.raises(ValueError):
        IngestGateway(platform, default_registry(), overflow="explode")
