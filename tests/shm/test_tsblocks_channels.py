"""Channel actors over the tiered (compressed-block) storage engine."""

import pytest

from repro.aodb import AodbDatabase
from repro.kernel import Scheduler
from repro.net import ConstantLatency, Network
from repro.runtime import AodbRuntime, RuntimeConfig
from repro.runtime.key import ActorKey
from repro.shm import ShmPlatform, channel_id_for, sensor_id_for
from repro.storage import ArchiveLog, InMemoryKVStore


@pytest.fixture
def sched():
    return Scheduler()


def build_platform(sched, window_capacity=64, block_size=16, **kwargs):
    config = RuntimeConfig(default_method_cost=0.0, activation_cost=0.0)
    network = Network(sched, lan=ConstantLatency(0.0))
    runtime = AodbRuntime(
        sched, config=config, network=network,
        grain_storage=InMemoryKVStore(),
    )
    runtime.add_silo("silo-1", cores=4)
    db = AodbDatabase(runtime)
    return ShmPlatform(
        db,
        window_capacity=window_capacity,
        block_size=block_size,
        **kwargs,
    )


def ramp(count, t0=0.0, dt=1.0):
    return [(t0 + i * dt, 20.0 + (i % 5) * 0.25) for i in range(count)]


def test_sealed_blocks_survive_deactivation(sched):
    platform = build_platform(sched)

    async def main():
        await platform.provision(total_sensors=1)
        sensor_id = sensor_id_for("org-0", 0)
        c0 = channel_id_for(sensor_id, 0)
        points = ramp(50)
        await platform.ingest(sensor_id, {c0: points})
        channel = platform.runtime.ref("PhysicalSensorChannel", c0)
        before = await channel.storage_stats()
        await platform.runtime.deactivate("PhysicalSensorChannel", c0)
        # Reactivation re-opens the compressed blocks from the document.
        after = await channel.storage_stats()
        raw = await platform.raw_range(c0, 0.0, 100.0)
        return points, before, after, raw

    points, before, after, raw = sched.run_until_complete(main())
    assert before["blocks"] == 3  # 50 points / block_size 16
    assert after["blocks"] == before["blocks"]
    assert after["block_bytes"] == before["block_bytes"]
    assert raw == points


def test_state_document_without_tsdoc_opens_an_empty_window(sched):
    platform = build_platform(sched, window_capacity=8, block_size=4)

    async def main():
        await platform.provision(total_sensors=1)
        sensor_id = sensor_id_for("org-0", 0)
        c0 = channel_id_for(sensor_id, 0)
        await platform.ingest(sensor_id, {c0: ramp(10)})
        await platform.runtime.deactivate("PhysicalSensorChannel", c0)
        # A configured-but-never-snapshotted document: everything except
        # the serialized window (a stray "window" key is not a format).
        key = ActorKey("PhysicalSensorChannel", c0).storage_key()
        item = await platform.runtime.grain_storage.get(key)
        bare = dict(item.value)
        bare.pop("tsdoc")
        bare["window"] = [list(p) for p in ramp(10)]
        await platform.runtime.grain_storage.put(key, bare)
        empty = await platform.raw_range(c0, 0.0, 100.0)
        # The fresh window honours the configured capacity and block size.
        await platform.ingest(sensor_id, {c0: ramp(10, t0=100.0)})
        channel = platform.runtime.ref("PhysicalSensorChannel", c0)
        return empty, await channel.depth(), await channel.storage_stats()

    empty, depth, stats = sched.run_until_complete(main())
    assert empty == []
    assert depth == 8
    assert stats["blocks"] >= 1


def test_aggregate_range_matches_raw_fold(sched):
    platform = build_platform(sched, window_capacity=256)

    async def main():
        await platform.provision(total_sensors=1)
        sensor_id = sensor_id_for("org-0", 0)
        c0 = channel_id_for(sensor_id, 0)
        points = ramp(100)
        await platform.ingest(sensor_id, {c0: points})
        agg = await platform.range_aggregate(c0, 10.0, 90.0)
        return points, agg

    points, agg = sched.run_until_complete(main())
    window = [v for t, v in points if 10.0 <= t < 90.0]
    assert agg["count"] == len(window)
    assert agg["min"] == min(window)
    assert agg["max"] == max(window)
    assert agg["sum"] == pytest.approx(sum(window))
    assert agg["mean"] == pytest.approx(sum(window) / len(window))


def test_whole_block_eviction_reaches_archive_compressed(sched):
    archive = ArchiveLog(block_size=512)
    platform = build_platform(sched, archive=archive)

    async def main():
        await platform.provision(total_sensors=1)
        sensor_id = sensor_id_for("org-0", 0)
        c0 = channel_id_for(sensor_id, 0)
        # Two full-capacity batches: the second evicts the first 64 points
        # as whole sealed blocks, which the archive stores still-compressed.
        await platform.ingest(sensor_id, {c0: ramp(64)})
        await platform.ingest(sensor_id, {c0: ramp(64, t0=1000.0)})
        depth = await platform.runtime.ref(
            "PhysicalSensorChannel", c0
        ).depth()
        return c0, depth

    c0, depth = sched.run_until_complete(main())
    assert depth == 64
    assert archive.sealed_records == 64  # arrived as blocks, not records
    assert archive.records_decoded == 0
    archived = archive.read_range(c0, 0.0, 100.0)
    assert [(r.timestamp, r.payload) for r in archived] == ramp(64)


def test_conservation_across_window_and_archive(sched):
    archive = ArchiveLog(block_size=32)
    platform = build_platform(sched, archive=archive)

    async def main():
        await platform.provision(total_sensors=1)
        sensor_id = sensor_id_for("org-0", 0)
        c0 = channel_id_for(sensor_id, 0)
        points = ramp(200)
        for offset in range(0, 200, 10):
            await platform.ingest(sensor_id, {c0: points[offset:offset + 10]})
        retained = await platform.raw_range(c0, 0.0, 1000.0)
        archived = archive.read_range(c0, 0.0, 1000.0)
        return points, retained, archived

    points, retained, archived = sched.run_until_complete(main())
    assert [(r.timestamp, r.payload) for r in archived] + retained == points


def test_sensor_storage_stats_fans_out(sched):
    platform = build_platform(sched)

    async def main():
        await platform.provision(total_sensors=1)
        sensor_id = sensor_id_for("org-0", 0)
        c0 = channel_id_for(sensor_id, 0)
        c1 = channel_id_for(sensor_id, 1)
        await platform.ingest(
            sensor_id, {c0: ramp(40), c1: ramp(40, t0=0.5)}
        )
        return await platform.storage_stats(sensor_id)

    stats = sched.run_until_complete(main())
    assert stats["channels"] == 3  # two physical + one virtual
    # The virtual channel derives nothing here (timestamps never align),
    # so the totals are the two physical windows.
    assert stats["points"] == 80
    assert stats["blocks"] == 4
    assert stats["live_bytes"] < stats["raw_equivalent_bytes"]


def test_cluster_storage_probes_track_channel_lifecycle(sched):
    platform = build_platform(sched)

    async def main():
        await platform.provision(total_sensors=1)
        sensor_id = sensor_id_for("org-0", 0)
        c0 = channel_id_for(sensor_id, 0)
        await platform.ingest(sensor_id, {c0: ramp(50)})
        live = platform.runtime.metrics.cluster_totals()
        await platform.runtime.deactivate("PhysicalSensorChannel", c0)
        idle = platform.runtime.metrics.cluster_totals()
        # Reactivate: the re-opened window re-registers its points.
        await platform.raw_range(c0, 0.0, 100.0)
        back = platform.runtime.metrics.cluster_totals()
        return live, idle, back

    live, idle, back = sched.run_until_complete(main())
    assert live["storage.blocks_sealed"] == 3.0
    assert live["storage.block_bytes"] > 0.0
    assert live["storage.compression_ratio"] > 1.0
    # Deactivation detaches the series from the probes (no double count
    # when it re-opens, possibly on another silo).
    assert idle["storage.block_bytes"] == 0.0
    assert back["storage.block_bytes"] == live["storage.block_bytes"]


def test_configure_block_size_zero_disables_tiering(sched):
    platform = build_platform(sched, block_size=0)

    async def main():
        await platform.provision(total_sensors=1)
        sensor_id = sensor_id_for("org-0", 0)
        c0 = channel_id_for(sensor_id, 0)
        await platform.ingest(sensor_id, {c0: ramp(50)})
        channel = platform.runtime.ref("PhysicalSensorChannel", c0)
        stats = await channel.storage_stats()
        raw = await platform.raw_range(c0, 0.0, 100.0)
        return stats, raw

    stats, raw = sched.run_until_complete(main())
    assert stats["blocks"] == 0
    assert stats["head_points"] == 50
    assert raw == ramp(50)
