"""Channel actors over the tiered (compressed-block) storage engine."""

import gc
import types

import pytest

from repro.aodb import AodbDatabase
from repro.kernel import Scheduler
from repro.net import ConstantLatency, Network
from repro.runtime import AodbRuntime, RuntimeConfig, WritePolicy
from repro.runtime.key import ActorKey
from repro.shm import (
    PhysicalSensorChannel,
    ShmPlatform,
    channel_id_for,
    sensor_id_for,
)
from repro.storage import ArchiveLog, ArchiveRecord, InMemoryKVStore
from repro.storage.tsblocks import TieredSeries


@pytest.fixture
def sched():
    return Scheduler()


def build_platform(
    sched, window_capacity=64, block_size=16, copy_messages=True, **kwargs
):
    config = RuntimeConfig(
        default_method_cost=0.0, activation_cost=0.0, copy_messages=copy_messages
    )
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
        # The fresh window honours the configured capacity and block size:
        # 13 points seal 3 blocks, and the oldest leaves with 9 behind it.
        await platform.ingest(sensor_id, {c0: ramp(13, t0=100.0)})
        channel = platform.runtime.ref("PhysicalSensorChannel", c0)
        return empty, await channel.depth(), await channel.storage_stats()

    empty, depth, stats = sched.run_until_complete(main())
    assert empty == []
    assert depth == 9
    assert stats["blocks"] == 2 and stats["head_points"] == 1


FLUSHING_POLICIES = {
    "interval": {"write_policy": WritePolicy.INTERVAL, "write_interval_seconds": 1.0},
    "write_through": {"write_policy": WritePolicy.WRITE_THROUGH},
}


@pytest.mark.parametrize("policy", sorted(FLUSHING_POLICIES))
def test_a_flushed_channel_document_holds_its_window(sched, monkeypatch, policy):
    """Every flush of a live channel writes the window as it is now, not
    only deactivation, the redo pump or a scram flush."""
    for name, value in FLUSHING_POLICIES[policy].items():
        monkeypatch.setattr(PhysicalSensorChannel, name, value)
    platform = build_platform(sched)
    store = platform.runtime.grain_storage

    async def main():
        await platform.provision(total_sensors=1)
        sensor_id = sensor_id_for("org-0", 0)
        c0 = channel_id_for(sensor_id, 0)
        await platform.ingest(sensor_id, {c0: ramp(10)})
        await sched.sleep(5.0)
        key = ActorKey("PhysicalSensorChannel", c0).storage_key()
        return (await store.get(key)).value, store.writes

    document, writes = sched.run_until_complete(main())
    assert writes >= 2
    assert TieredSeries.from_document(document["tsdoc"]).all_pairs() == ramp(10)
    assert document["change"]["count"] == 10


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


def tracked_reach(root):
    """How many GC-tracked objects ``root`` reaches (classes excluded)."""
    opaque = (type, types.ModuleType, types.FunctionType)
    seen = {id(root)}
    frontier = [root]
    tracked = 0
    while frontier:
        for referent in gc.get_referents(frontier.pop()):
            if id(referent) in seen or isinstance(referent, opaque):
                continue
            seen.add(id(referent))
            frontier.append(referent)
            tracked += gc.is_tracked(referent)
    return tracked


#: GC-tracked objects the archive gains per block a window hands it: the
#: ``SealedBlock`` and its ``BlockSummary`` (bytes and floats are untracked).
TRACKED_PER_ARCHIVED_BLOCK = 2


def wave_census(window_capacity, block_size):
    """Feed one sensor 10-point waves, 20 and then 20 more, with no reads.

    Returns the runtime, the archive and a census after each half:
    ``(archived points, tracked objects the archive reaches, tracked objects
    the three channel windows reach)``.
    """
    archive = ArchiveLog(block_size=512)
    platform = build_platform(
        Scheduler(), window_capacity=window_capacity, block_size=block_size,
        archive=archive,
    )
    runtime = platform.runtime
    sensor_id = sensor_id_for("org-0", 0)
    channels = [channel_id_for(sensor_id, 0), channel_id_for(sensor_id, 1)]

    async def waves(first, count):
        for wave in range(first, first + count):
            batch = ramp(10, t0=wave * 10.0)
            await platform.ingest(sensor_id, {c: batch for c in channels})

    def census():
        gc.collect()
        windows = tuple(
            activation.instance.window
            for activation in runtime.silo("silo-1").activations()
            if "SensorChannel" in activation.key.type_name
        )
        assert len(windows) == 3  # both channels and the virtual one
        return len(archive), tracked_reach(archive), tracked_reach(windows)

    runtime.scheduler.run_until_complete(platform.provision(total_sensors=1))
    runtime.scheduler.run_until_complete(waves(0, 20))
    first = census()
    runtime.scheduler.run_until_complete(waves(20, 20))
    return runtime, archive, first, census()


def test_archive_keeps_no_object_per_evicted_point():
    # 10-point waves into 64-point windows of 16-point blocks: windows evict
    # whole blocks, and the archive keeps each as it came, never re-sealed.
    _runtime, archive, (points_n, objects_n, _), (points_2n, objects_2n, _) = (
        wave_census(window_capacity=64, block_size=16)
    )
    assert len(archive.streams()) == 3
    assert points_2n > points_n > 0
    assert archive.blocks_sealed == 0
    assert archive.sealed_records == points_2n  # every point came compressed
    blocks_added = 39
    assert points_2n - points_n == 16 * blocks_added
    assert objects_2n - objects_n == TRACKED_PER_ARCHIVED_BLOCK * blocks_added
    assert not any(type(obj) is ArchiveRecord for obj in gc.get_objects())


def test_steady_state_eviction_never_decodes():
    # The fig deployments' shape, scaled down: window capacity == block size,
    # so every eviction falls on a block edge only if blocks leave whole.
    runtime, archive, first, second = wave_census(window_capacity=16, block_size=16)
    assert runtime.tsblock_stats.blocks_decoded == 0
    for activation in runtime.silo("silo-1").activations():
        if "SensorChannel" in activation.key.type_name:
            # No decoded tier: what is raw is the hot head, under one block.
            assert activation.instance.window.memory_stats()["head_points"] <= 15
    assert archive.blocks_sealed == 0
    assert archive.sealed_records == second[0]
    blocks_added = 39
    assert second[0] - first[0] == 16 * blocks_added
    # Window + archive grow by the per-block constant, not per point: the
    # windows reach as many objects after 40 waves as after 20.
    assert second[1] - first[1] == TRACKED_PER_ARCHIVED_BLOCK * blocks_added
    assert second[2] == first[2]


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


@pytest.mark.parametrize("copy_messages", [True, False])
def test_list_shaped_points_are_stored_as_tuples(sched, copy_messages):
    # Points that arrive as lists read back as tuples from the head, from
    # sealed blocks and after a reload alike, and the window keeps none of
    # the caller's lists (which copy_messages=False hands over as they are).
    platform = build_platform(
        sched, window_capacity=8, block_size=4, copy_messages=copy_messages
    )
    sensor_id = sensor_id_for("org-0", 0)
    c0 = channel_id_for(sensor_id, 0)
    expected = [(1.0, 10.0), (2.0, 11.0), (3.0, 12.0), (4.0, 13.0), (5.0, 14.0)]

    async def main():
        await platform.provision(total_sensors=1)
        first = [[1.0, 10.0], [2.0, 11.0]]
        await platform.ingest(sensor_id, {c0: first})
        head_only = await platform.raw_range(c0, 0.0, 100.0)
        await platform.ingest(
            sensor_id, {c0: [[3.0, 12.0], [4.0, 13.0], [5.0, 14.0]]}
        )
        first[0][1] = -1.0  # the caller reuses its rows
        mixed = await platform.raw_range(c0, 0.0, 100.0)
        await platform.runtime.deactivate("PhysicalSensorChannel", c0)
        reloaded = await platform.raw_range(c0, 0.0, 100.0)
        return head_only, mixed, reloaded

    head_only, mixed, reloaded = sched.run_until_complete(main())
    assert head_only == expected[:2]
    assert mixed == reloaded == expected
    for pairs in (head_only, mixed, reloaded):
        assert all(type(pair) is tuple for pair in pairs)


def test_a_channel_activation_builds_one_window(sched, monkeypatch):
    platform = build_platform(sched)
    built = []
    init = TieredSeries.__init__

    def counting_init(series, *args, **kwargs):
        built.append(series)
        init(series, *args, **kwargs)

    async def main():
        await platform.provision(total_sensors=1)
        sensor_id = sensor_id_for("org-0", 0)
        c0 = channel_id_for(sensor_id, 0)
        await platform.ingest(sensor_id, {c0: ramp(20)})
        await platform.runtime.deactivate("PhysicalSensorChannel", c0)
        monkeypatch.setattr(TieredSeries, "__init__", counting_init)
        # A fresh activation (no stored document) and a reactivation that
        # restores its window from the document.
        fresh = platform.runtime.ref("PhysicalSensorChannel", "fresh")
        await fresh.storage_stats()
        await platform.runtime.ref("PhysicalSensorChannel", c0).storage_stats()

    sched.run_until_complete(main())
    assert len(built) == 2
