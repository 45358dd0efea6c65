"""Heterogeneous ingestion and historical analytics.

The paper's architecture (§5) puts two tiers outside the actor database:
ingestion (§6.1: "a REST interface ... message queues can be employed to
accommodate for bursty behavior") and a star-schema warehouse loaded from
the storage system.  The paper leaves both, and the analytical queries,
out of scope; this script sketches each over the library's public API:

1. three device dialects (JSON document, CSV logger lines, packed binary
   radio frame) parse into one normalized form, ``{channel_id: [(t, v)]}``,
   and reach the same sensor actors;
2. a bounded queue drained by a pool of dispatchers absorbs a burst of 300
   uploads with no drops;
3. windows evicted from actor memory land in the archive log; it and the
   live windows load into a fact table, grouped per organization, per
   sensor and into 10 s bucket means.

Run: ``python examples/ingest_and_warehouse.py``
"""

import json
import struct

from repro.aodb import AodbDatabase
from repro.kernel import Queue, Scheduler
from repro.net import ConstantLatency, Network
from repro.runtime import AodbRuntime, RuntimeConfig
from repro.shm import ShmPlatform, channel_id_for

# -- three device dialects, one normalized batch --------------------------------


def parse_json(payload):
    """Document dialect: ``{"channels": {cid: [{"t": ..., "v": ...}]}}``."""
    return {
        channel_id: [(float(r["t"]), float(r["v"])) for r in readings]
        for channel_id, readings in json.loads(payload)["channels"].items()
    }


def parse_csv(text):
    """Logger dialect: one ``channel_id,timestamp,value`` line per reading."""
    batch = {}
    for line in text.splitlines():
        channel_id, timestamp, value = line.split(",")
        batch.setdefault(channel_id, []).append((float(timestamp), float(value)))
    return batch


READING = struct.Struct("!Hdd")  # index into the channel table, t, v


def encode_frame(channel_table, batch):
    """Radio dialect: packed ``(channel index, t, v)`` readings."""
    return b"".join(
        READING.pack(channel_table.index(channel_id), timestamp, value)
        for channel_id, points in batch.items()
        for timestamp, value in points
    )


def parse_frame(channel_table, frame):
    batch = {}
    for index, timestamp, value in READING.iter_unpack(frame):
        batch.setdefault(channel_table[index], []).append((timestamp, value))
    return batch


# -- a bounded queue drained by a dispatcher pool -------------------------------


class Gateway:
    """Uploads wait in a bounded queue; a few dispatchers feed the actors."""

    def __init__(self, scheduler, platform, capacity, dispatchers):
        self.scheduler = scheduler
        self.platform = platform
        self.capacity = capacity
        self.queue = Queue(scheduler)
        self.accepted = self.rejected = self.dispatched = 0
        self.tasks = [scheduler.spawn(self._dispatch()) for _ in range(dispatchers)]

    def submit(self, sensor_id, batch):
        """Enqueue one parsed upload; refuse it (an HTTP 429) when full."""
        if len(self.queue) >= self.capacity:
            self.rejected += 1
            return False
        self.queue.put_nowait((sensor_id, batch))
        self.accepted += 1
        return True

    async def _dispatch(self):
        while (upload := await self.queue.get()) is not None:
            await self.platform.ingest(*upload)
            self.dispatched += 1

    async def stop(self):
        """Drain the queue, then let every dispatcher finish."""
        for _ in self.tasks:
            self.queue.put_nowait(None)
        await self.scheduler.gather(self.tasks)


# -- the warehouse: one fact table, grouped ---------------------------------------


def group_by(facts, key):
    """``{group: (count, mean, min, max)}`` over ``(channel_id, t, v)`` facts."""
    groups = {}
    for fact in facts:
        groups.setdefault(key(fact), []).append(fact[2])
    return {
        group: (len(values), sum(values) / len(values), min(values), max(values))
        for group, values in sorted(groups.items())
    }


async def main(scheduler, platform):
    report = await platform.provision(total_sensors=6)
    sensor_ids = report.sensor_ids
    all_channels = [
        channel_id_for(sensor_id, channel)
        for sensor_id in sensor_ids
        for channel in (0, 1)
    ]
    gateway = Gateway(scheduler, platform, capacity=256, dispatchers=4)

    # -- one upload per dialect ------------------------------------------------
    s0, s1, s2 = sensor_ids[0], sensor_ids[1], sensor_ids[2]
    json_upload = {
        "channels": {
            channel_id_for(s0, 0): [{"t": i * 0.1, "v": 20.0 + i} for i in range(10)],
            channel_id_for(s0, 1): [{"t": i * 0.1, "v": 30.0 + i} for i in range(10)],
        }
    }
    gateway.submit(s0, parse_json(json.dumps(json_upload)))
    csv_upload = "\n".join(
        f"{channel_id_for(s1, 0)},{i * 0.1},{40 + i}" for i in range(10)
    )
    gateway.submit(s1, parse_csv(csv_upload))
    frame = encode_frame(
        all_channels,
        {channel_id_for(s2, 0): [(i * 0.1, 50.0 + i) for i in range(10)]},
    )
    gateway.submit(s2, parse_frame(all_channels, frame))
    await scheduler.sleep(1)
    landed = [
        len(await platform.raw_range(channel_id, 0.0, 1.0))
        for channel_id in (
            channel_id_for(s0, 0),
            channel_id_for(s0, 1),
            channel_id_for(s1, 0),
            channel_id_for(s2, 0),
        )
    ]
    assert gateway.dispatched == 3 and landed == [10, 10, 10, 10], landed
    print(f"three dialects ingested: dispatched={gateway.dispatched}, "
          f"points per channel={landed}")

    # -- a burst absorbed by the queue ---------------------------------------------
    peak = 0
    for wave in range(50):
        # Waves arrive back-to-back; yielding lets dispatchers interleave,
        # exactly like a gateway thread accepting while workers drain.
        await scheduler.sleep(0.01)
        peak = max(peak, len(gateway.queue))
        for sensor_id in sensor_ids:
            gateway.submit(
                sensor_id,
                {
                    channel_id_for(sensor_id, c): [
                        (10.0 + wave + i * 0.1, float(wave + i)) for i in range(10)
                    ]
                    for c in (0, 1)
                },
            )
    peak = max(peak, len(gateway.queue))
    await gateway.stop()
    assert gateway.accepted == gateway.dispatched == 303, gateway.dispatched
    assert gateway.rejected == 0 and peak <= gateway.capacity
    print(f"burst of 300 uploads: peak queue depth {peak}, "
          f"accepted={gateway.accepted}, rejected={gateway.rejected}")

    # -- warehouse export ---------------------------------------------------------
    # Evicted windows are in the archive log; what is still in actor memory
    # comes through the raw query API.  Together they hold every reading.
    archive = platform.archive
    facts = [
        (stream, record.timestamp, float(record.payload))
        for stream in archive.streams()
        for record in archive.export(stream)
    ]
    from_archive = len(facts)
    for stream in sorted(set(archive.streams()) | set(all_channels)):
        virtual = stream.endswith("/vc")
        for timestamp, value in await platform.raw_range(
            stream, 0.0, 1e9, virtual=virtual
        ):
            facts.append((stream, timestamp, value))
    channels = {fact[0] for fact in facts}
    print(f"warehouse loaded {len(facts)} facts "
          f"({from_archive} from archive) across {len(channels)} channels")

    per_org = group_by(facts, lambda fact: fact[0].split("/")[0])
    for org, (count, mean, low, high) in per_org.items():
        print(f"  org {org}: n={count} mean={mean:.1f} min={low:.1f} max={high:.1f}")
    per_sensor = group_by(facts, lambda fact: fact[0].rsplit("/", 1)[0])
    # Every uploaded reading once, whichever tier held it: 1,000 burst
    # readings per sensor plus the dialect uploads; s0 also owns the
    # derived virtual channel.
    derived = sum(1 for fact in facts if fact[0].endswith("/vc"))
    sent = {sensor_id: 1000 for sensor_id in sensor_ids}
    sent[s0] += 20 + derived
    sent[s1] += 10
    sent[s2] += 10
    assert {sensor: stats[0] for sensor, stats in per_sensor.items()} == sent
    assert list(per_org) == ["org-0"] and per_org["org-0"][0] == len(facts)
    busiest = max(per_sensor, key=lambda sensor: per_sensor[sensor][0])
    print(f"busiest sensor: {busiest} with {per_sensor[busiest][0]} readings")
    channel = channel_id_for(s0, 0)
    series = group_by(
        [fact for fact in facts if fact[0] == channel],
        lambda fact: int(fact[1] // 10.0),
    )
    buckets = [(bucket, round(stats[1], 1)) for bucket, stats in series.items()]
    assert buckets[:2] == [(0, 24.5), (1, 9.0)], buckets  # json upload; waves 0-9
    print(f"10s-bucket series for {channel}: {buckets[:5]}")


if __name__ == "__main__":
    scheduler = Scheduler()
    config = RuntimeConfig(default_method_cost=0.0002, activation_cost=0.0002)
    runtime = AodbRuntime(
        scheduler, config=config, network=Network(scheduler, lan=ConstantLatency(0.0005))
    )
    runtime.add_silo("silo-1", cores=2, instance_type="m5.large")
    platform = ShmPlatform(AodbDatabase(runtime), window_capacity=200)
    scheduler.run_until_complete(main(scheduler, platform))
    print("ingest & warehouse example complete")
