"""durable_scaleout — the Fig. 7 shape with durability on.

Three m5.xlarge silos, channels placed ``random`` (most sensor->channel hops
cross silos), a provisioned KV store with a 5 ms round trip and enough WCU
that nothing throttles, ``Sensor`` write-through, channels interval-flushed
every 2 s, group commit, fencing and the redo journal on.  The only workload
on which kv / group commit / WAL / state snapshotting and cross-silo
envelopes carry the ack path.  The client is ``ingest_wave``'s.
"""

from __future__ import annotations

from repro import ActorKey, WritePolicy
from repro.bench.instances import M5_XLARGE
from repro.net import ConstantLatency
from repro.shm import PhysicalSensorChannel, Sensor, VirtualSensorChannel
from repro.storage import ProvisionedKVStore, TieredSeries

from ..deploy import build_shm
from .base import Audit, scaled
from .ingest_wave import POINTS_PER_CHANNEL, IngestWave

SILOS = 3
SENSORS = 300
SENSORS_PER_ORG = 50
WAVES = 10
WINDOW_CAPACITY = 256
STORE_ROUND_TRIP = 0.005
STORE_CAPACITY_UNITS = 20_000.0
CHANNEL_FLUSH_INTERVAL = 2.0
REDO_LAG = 0.5


class DurableScaleout(IngestWave):
    name = "durable_scaleout"
    why = (
        "three silos, random channel placement, write-through + interval flush, "
        "group commit, fencing, WAL: the only ack path through kv and remote hops"
    )

    def setup(self) -> None:
        self.sensors = scaled(SENSORS, self.scale, floor=SILOS * SENSORS_PER_ORG // 2)
        self.waves = scaled(WAVES, self.scale, floor=5)
        channel_classes = (PhysicalSensorChannel, VirtualSensorChannel)
        self._saved = [
            (cls, cls.write_policy, cls.write_interval_seconds, cls.placement)
            for cls in (Sensor, *channel_classes)
        ]
        Sensor.write_policy = WritePolicy.WRITE_THROUGH
        for cls in channel_classes:
            cls.write_policy = WritePolicy.INTERVAL
            cls.write_interval_seconds = CHANNEL_FLUSH_INTERVAL
            cls.placement = "random"

        def make_store(scheduler, rng):
            self.store = ProvisionedKVStore(
                scheduler,
                read_capacity_units=STORE_CAPACITY_UNITS,
                write_capacity_units=STORE_CAPACITY_UNITS,
                latency=ConstantLatency(STORE_ROUND_TRIP),
                on_overload="delay",
                rng=rng,
            )
            return self.store

        def configure(config) -> None:
            config.redo_lag = REDO_LAG

        self.dep = build_shm(
            [M5_XLARGE] * SILOS,
            self.seed,
            window_capacity=WINDOW_CAPACITY,
            block_size=WINDOW_CAPACITY,
            grain_storage_factory=make_store,
            configure=configure,
            tracing=self.tracing,
            profiling=self.profiling,
        )
        self._provision_fleet(SENSORS_PER_ORG)
        self.dep.runtime.start()
        self.acked_waves = dict.fromkeys(self.sensor_ids, 0)

    def teardown(self) -> None:
        for cls, policy, interval, placement in getattr(self, "_saved", ()):
            cls.write_policy = policy
            cls.write_interval_seconds = interval
            cls.placement = placement

    async def _send(self, sensor_id: str, wave: int) -> None:
        await super()._send(sensor_id, wave)
        self.acked_waves[sensor_id] += 1

    def drain(self) -> None:
        # Graceful shutdown flushes every dirty activation through the store.
        self.scheduler.run_until_complete(self.dep.runtime.stop())

    def audit(self) -> list[Audit]:
        runtime = self.dep.runtime
        store = self.store

        async def read_back() -> list[str]:
            broken = []
            for sensor_id in self.sensor_ids:
                expected = self.acked_waves[sensor_id] * POINTS_PER_CHANNEL
                for channel_id in self.channels[sensor_id]:
                    key = ActorKey("PhysicalSensorChannel", channel_id).storage_key()
                    item = await runtime.grain_storage.try_get(key)
                    tsdoc = (item.value or {}).get("tsdoc") if item else None
                    stored = (
                        len(TieredSeries.from_document(tsdoc).all_pairs())
                        if tsdoc else 0
                    )
                    if stored != expected:
                        broken.append(f"{channel_id}: {stored} != {expected}")
            return broken

        broken = self.scheduler.run_until_complete(read_back())
        acks = self.recorder.count("insert")
        pending = runtime.redo_journal.pending_records()
        return [
            Audit("every insert acked", acks == self.sensors * self.waves,
                  f"{acks} of {self.sensors * self.waves}"),
            Audit("inserted == accepted points", self.accepted == self.points,
                  f"accepted {self.accepted}, sent {self.points}"),
            Audit("every acked wave is in the store after stop()", not broken,
                  f"{2 * self.sensors} channels read back; broken: {broken[:3]}"),
            Audit("WAL pending == 0", pending == 0, f"{pending} pending"),
            Audit("0 fenced / throttled writes",
                  store.fenced_writes == 0 and store.throttled_writes == 0,
                  f"fenced {store.fenced_writes}, throttled {store.throttled_writes}"),
        ]
