"""Block-backed channel state under migration, drain, and crash.

The tiered window serializes into the ordinary actor-state document
(compressed blocks are plain bytes + scalars), so it must ride every
state-movement path the runtime has — live migration, silo drain, and
crash recovery — with no lost or duplicated points.
"""

from repro.aodb import AodbDatabase
from repro.net import ConstantLatency, Network
from repro.runtime import ActorKey, AodbRuntime, RuntimeConfig
from repro.shm import ShmPlatform, channel_id_for, sensor_id_for
from repro.storage import InMemoryKVStore


def build_platform(sched, silos=2):
    config = RuntimeConfig(
        default_method_cost=0.0,
        activation_cost=0.0,
        idle_timeout=1000.0,
        collection_interval=100.0,
    )
    network = Network(sched, lan=ConstantLatency(0.0))
    runtime = AodbRuntime(
        sched, config=config, network=network,
        grain_storage=InMemoryKVStore(),
    )
    for index in range(1, silos + 1):
        runtime.add_silo(f"silo-{index}", cores=4)
    db = AodbDatabase(runtime)
    return ShmPlatform(db, window_capacity=256, block_size=16)


def ramp(count, t0=0.0):
    return [(t0 + i, 20.0 + (i % 5) * 0.25) for i in range(count)]


async def provision_one(platform):
    await platform.provision(total_sensors=1)
    sensor_id = sensor_id_for("org-0", 0)
    return sensor_id, channel_id_for(sensor_id, 0)


def test_migration_carries_sealed_blocks_exactly(sched):
    platform = build_platform(sched)
    runtime = platform.runtime

    async def main():
        sensor_id, c0 = await provision_one(platform)
        points = ramp(100)
        await platform.ingest(sensor_id, {c0: points})
        key = ActorKey("PhysicalSensorChannel", c0)
        source = runtime.directory.lookup(key)
        target = "silo-2" if source == "silo-1" else "silo-1"
        channel = runtime.ref("PhysicalSensorChannel", c0)
        before = await channel.storage_stats()
        assert await runtime.migrate(key, target) is True
        after = await channel.storage_stats()
        raw = await platform.raw_range(c0, 0.0, 1000.0)
        # The stream stays appendable on the new silo.
        await platform.ingest(sensor_id, {c0: ramp(10, t0=5000.0)})
        depth = await channel.depth()
        return points, before, after, raw, depth

    points, before, after, raw, depth = sched.run_until_complete(main())
    assert raw == points
    assert depth == 110
    # Blocks moved compressed: same tier shape, same compressed bytes.
    assert after["blocks"] == before["blocks"] == 6
    assert after["block_bytes"] == before["block_bytes"]
    assert runtime.stats.migrations == 1


def test_drain_relocates_block_backed_channels(sched):
    platform = build_platform(sched, silos=3)
    runtime = platform.runtime

    async def main():
        await platform.provision(total_sensors=4)
        streams = {}
        for sensor_index in range(4):
            sensor_id = sensor_id_for("org-0", sensor_index)
            c0 = channel_id_for(sensor_id, 0)
            streams[c0] = ramp(60)
            await platform.ingest(sensor_id, {c0: streams[c0]})
        drained = await runtime.drain_silo("silo-1")
        assert drained > 0
        results = {}
        for c0 in streams:
            results[c0] = await platform.raw_range(c0, 0.0, 1000.0)
            key = ActorKey("PhysicalSensorChannel", c0)
            assert runtime.directory.lookup(key) != "silo-1"
        return streams, results

    streams, results = sched.run_until_complete(main())
    for c0, points in streams.items():
        assert results[c0] == points


def test_crash_recovery_replays_journaled_blocks(sched):
    """The redo journal captures the tiered document (compressed blocks
    included) for lazily-flushed channels, so a hard crash recovers the
    whole window from the WAL."""
    platform = build_platform(sched)
    runtime = platform.runtime
    runtime.config.redo_lag = 0.5
    runtime.enable_redo_journal()

    async def main():
        sensor_id, c0 = await provision_one(platform)
        points = ramp(100)
        for offset in range(0, 100, 10):
            await platform.ingest(sensor_id, {c0: points[offset:offset + 10]})
        # Let the redo pump journal the dirty snapshot, then crash hard —
        # no deactivation hooks, no graceful flush.
        await sched.sleep(2.0)
        key = ActorKey("PhysicalSensorChannel", c0)
        victim = runtime.directory.lookup(key)
        runtime.crash_silo(victim)
        # The reactivated channel (on the survivor) re-opens the
        # journaled blocks: nothing lost, nothing duplicated.
        raw = await platform.raw_range(c0, 0.0, 1000.0)
        stats = await runtime.ref(
            "PhysicalSensorChannel", c0
        ).storage_stats()
        assert runtime.directory.lookup(key) != victim
        return points, raw, stats

    points, raw, stats = sched.run_until_complete(main())
    assert raw == points
    assert stats["points"] == 100
    assert stats["blocks"] > 0


def test_crash_without_flush_loses_only_unflushed_points(sched):
    """ON_DEACTIVATE (the paper's benchmark durability setting): a crash
    loses what was never snapshotted, and recovery falls back to the last
    persisted document rather than corrupting the stream."""
    platform = build_platform(sched)
    runtime = platform.runtime

    async def main():
        sensor_id, c0 = await provision_one(platform)
        flushed = ramp(50)
        await platform.ingest(sensor_id, {c0: flushed})
        # Deactivate → the 50-point window (3 sealed blocks + head) is
        # persisted; reactivate and add points that never get flushed.
        await runtime.deactivate("PhysicalSensorChannel", c0)
        await platform.ingest(sensor_id, {c0: ramp(10, t0=5000.0)})
        key = ActorKey("PhysicalSensorChannel", c0)
        victim = runtime.directory.lookup(key)
        runtime.crash_silo(victim)
        raw = await platform.raw_range(c0, 0.0, 10000.0)
        return flushed, raw

    flushed, raw = sched.run_until_complete(main())
    assert raw == flushed
