"""Ingest dedup under message duplication: exactly-once storage counts."""

import random

from repro.aodb import AodbDatabase
from repro.net import ConstantLatency, Network, NetworkFaultInjector
from repro.runtime import AodbRuntime, RuntimeConfig
from repro.shm import ShmPlatform


def build_platform(sched, dedup_ingest):
    config = RuntimeConfig(default_method_cost=0.0, activation_cost=0.0)
    network = Network(sched, lan=ConstantLatency(0.001))
    runtime = AodbRuntime(sched, config=config, network=network)
    runtime.add_silo("silo-1", cores=4)
    db = AodbDatabase(runtime)
    return ShmPlatform(db, dedup_ingest=dedup_ingest)


def drive(sched, platform, waves=5, points_per_wave=10):
    """Provision one sensor and ingest `waves` batches; return the window."""

    async def main():
        await platform.create_organization("org-1", "Org One")
        await platform.runtime.ref("Organization", "org-1").add_project(
            "proj-1", "Project One"
        )
        summary = await platform.add_sensor(
            "org-1", "proj-1", "sensor-1", physical_channels=1
        )
        channel_id = summary["channels"][0]
        # Arm duplication only now: provisioning asks are idempotent but
        # noisy; the claim under test is about the insert path.
        platform.runtime.network.inject_faults(
            NetworkFaultInjector(random.Random(0), duplication_rate=1.0)
        )
        for wave in range(waves):
            points = [
                (wave * 1.0 + i * 0.01, float(wave * points_per_wave + i))
                for i in range(points_per_wave)
            ]
            await platform.ingest("sensor-1", {channel_id: points})
        await sched.sleep(1.0)  # let duplicated tells land
        window = await platform.raw_range(channel_id, 0.0, 1e9)
        return window

    return sched.run_until_complete(main())


def test_dedup_ingest_keeps_exact_counts_under_duplication(sched):
    platform = build_platform(sched, dedup_ingest=True)
    window = drive(sched, platform)
    timestamps = [t for t, _ in window]
    # Every duplicated delivery was filtered: exactly one copy per reading.
    assert len(timestamps) == 50
    assert len(set(timestamps)) == 50
    assert timestamps == sorted(timestamps)
    assert platform.runtime.network.stats.duplicated_messages > 0


def test_without_dedup_duplication_inflates_the_window(sched):
    # The contrast case proving the test above detects something real: the
    # same chaos with dedup off stores duplicate readings.  Single-point
    # waves make the duplicate land cleanly (an equal timestamp passes the
    # window's out-of-order guard), so the duplicate is *stored*.
    platform = build_platform(sched, dedup_ingest=False)
    window = drive(sched, platform, waves=5, points_per_wave=1)
    timestamps = [t for t, _ in window]
    assert len(timestamps) > len(set(timestamps))


def test_dedup_ingest_keeps_exact_counts_for_single_point_waves(sched):
    # Same duplicate-prone shape as above, dedup on: exactly one copy each.
    platform = build_platform(sched, dedup_ingest=True)
    window = drive(sched, platform, waves=5, points_per_wave=1)
    timestamps = [t for t, _ in window]
    assert len(timestamps) == 5
    assert len(set(timestamps)) == 5
