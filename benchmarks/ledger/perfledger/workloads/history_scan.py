"""history_scan — the storage engine used the other way round.

One m5.xlarge, few sensors, large windows (``window_capacity=4096,
block_size=256``).  Timed phase A backfills every channel through bulk
inserts, so the run is dominated by block seals; phase B runs closed-loop
readers over cold ranges (decode), wide aggregates (summary skipping) and
recent tails (hot head).  ``repro.storage`` is most of the profiled self
time and kernel/runtime little, so codec work shows here and nowhere else.
"""

from __future__ import annotations

from repro.bench.instances import M5_XLARGE
from repro.shm import channel_id_for

from ..deploy import build_shm, ingest, provision_shm, unconserved_channels
from ..loadgen import closed_loop_client, quantized_walk
from ..reference import fold_points
from .base import Audit, RuntimeWorkload, scaled

SENSORS = 30
POINTS_PER_CHANNEL = 2000
BULK_POINTS = 20
WINDOW_CAPACITY = 4096
BLOCK_SIZE = 256
WALK_POOL = 8
READERS = 8
READS_PER_READER = 300
COLD_RANGE = 300
WIDE_RANGE = 1500
RECENT_RANGE = 60
START_STAGGER = 0.005
#: Seeded think times keep arrivals from phase-locking, so latency percentiles
#: are a property of the load level rather than of one seed's alignment.
LOADER_THINK_RANGE = (0.008, 0.016)
THINK_RANGE = (0.002, 0.006)

READ_CYCLE = ("raw_cold", "agg", "raw_recent")


class HistoryScan(RuntimeWorkload):
    name = "history_scan"
    block_size = BLOCK_SIZE
    why = (
        "bulk backfill then cold scans, wide aggregates and recent tails: "
        "repro.storage (codec seal/decode, summary skipping) dominates host time"
    )
    rate_window = None
    write_kinds = ("bulk_insert",)
    read_kinds = READ_CYCLE

    def setup(self) -> None:
        rng = self.rng
        self.sensors = scaled(SENSORS, self.scale, floor=4)
        self.per_channel = scaled(POINTS_PER_CHANNEL, self.scale, floor=800)
        self.bulks = self.per_channel // BULK_POINTS
        self.readers = scaled(READERS, self.scale, floor=2)
        self.reads_per_reader = scaled(READS_PER_READER, self.scale, floor=30)
        shrink = self.per_channel / POINTS_PER_CHANNEL
        self.cold_range = scaled(COLD_RANGE, shrink)
        self.wide_range = scaled(WIDE_RANGE, shrink)
        dep = self.dep = build_shm(
            [M5_XLARGE],
            self.seed,
            window_capacity=WINDOW_CAPACITY,
            block_size=BLOCK_SIZE,
            tracing=self.tracing,
            profiling=self.profiling,
        )
        self.scheduler = dep.scheduler
        provision_shm(dep, self.sensors, self.sensors)
        self.sensor_ids = dep.report.sensor_ids
        self.channels = [
            (channel_id_for(sensor_id, 0), channel_id_for(sensor_id, 1))
            for sensor_id in self.sensor_ids
        ]
        # Inputs: data time ticks once a second, point i at t = i.
        self.walks = [
            quantized_walk(rng, self.per_channel, start=5000 + 300 * index)
            for index in range(WALK_POOL)
        ]
        self.series = [
            tuple((float(i), value) for i, value in enumerate(walk))
            for walk in self.walks
        ]
        self.stagger = [rng.uniform(0.0, START_STAGGER) for _ in self.sensor_ids]
        self.loader_think = [
            [rng.uniform(*LOADER_THINK_RANGE) for _ in range(self.bulks)]
            for _ in self.sensor_ids
        ]
        self.reads = [
            [self._draw_read(rng, n) for n in range(self.reads_per_reader)]
            for _ in range(self.readers)
        ]
        self.accepted = 0
        self.results: list[tuple] = []

    def _draw_read(self, rng, n: int) -> tuple:
        kind = READ_CYCLE[n % len(READ_CYCLE)]
        sensor_index = rng.randrange(self.sensors)
        channel = rng.randrange(2)
        if kind == "raw_cold":
            lo = rng.randrange(0, self.per_channel - self.cold_range - RECENT_RANGE)
            hi = lo + self.cold_range
        elif kind == "agg":
            lo = rng.randrange(0, self.per_channel - self.wide_range)
            hi = lo + self.wide_range
        else:
            lo, hi = self.per_channel - RECENT_RANGE, self.per_channel
        return kind, sensor_index, channel, lo, hi, rng.uniform(*THINK_RANGE)

    def _walk_of(self, sensor_index: int, channel: int) -> int:
        return (2 * sensor_index + channel) % WALK_POOL

    def _loader(self, sensor_index: int):
        first, second = self.channels[sensor_index]
        series_a = self.series[self._walk_of(sensor_index, 0)]
        series_b = self.series[self._walk_of(sensor_index, 1)]
        sensor_id = self.sensor_ids[sensor_index]

        async def issue(n: int) -> str:
            lo = n * BULK_POINTS
            hi = lo + BULK_POINTS
            self.attempted += 1
            self.points += 2 * BULK_POINTS
            stored = await ingest(
                self.dep, sensor_id, {first: series_a[lo:hi], second: series_b[lo:hi]}
            )
            self.accepted += stored
            return "bulk_insert"

        think = self.loader_think[sensor_index]
        return closed_loop_client(
            self.scheduler, self.bulks, issue, lambda n: think[n], self.recorder,
            start_after=self.stagger[sensor_index],
        )

    def _reader(self, reader: int):
        platform = self.dep.platform
        reads = self.reads[reader]

        async def issue(n: int) -> str:
            kind, sensor_index, channel, lo, hi, _think = reads[n]
            channel_id = self.channels[sensor_index][channel]
            if kind == "agg":
                got = await platform.range_aggregate(channel_id, float(lo), float(hi))
            else:
                got = await platform.raw_range(channel_id, float(lo), float(hi))
            self.results.append(
                (kind, self._walk_of(sensor_index, channel), lo, hi, got)
            )
            return kind

        return closed_loop_client(
            self.scheduler, self.reads_per_reader, issue,
            lambda n: reads[n][5], self.recorder,
        )

    def load(self) -> None:
        scheduler = self.scheduler

        async def main() -> None:
            await scheduler.gather(
                [scheduler.spawn(self._loader(i)) for i in range(self.sensors)]
            )
            await scheduler.gather(
                [scheduler.spawn(self._reader(i)) for i in range(self.readers)]
            )

        self._run_load(main())

    def audit(self) -> list[Audit]:
        dep = self.dep
        wrong = 0
        for kind, walk_index, lo, hi, got in self.results:
            expected = self.series[walk_index][lo:hi]
            if kind == "agg":
                reference = fold_points(expected)
                ok = all(got[key] == reference[key]
                         for key in ("count", "min", "max", "sum", "mean"))
            else:
                ok = [tuple(pair) for pair in got] == list(expected)
            wrong += not ok

        broken = unconserved_channels(
            dep, [c for pair in self.channels for c in pair], self.per_channel
        )
        writes = self.recorder.count("bulk_insert")
        reads = sum(self.recorder.count(kind) for kind in READ_CYCLE)
        return [
            Audit("every op completed",
                  writes == self.sensors * self.bulks
                  and reads == self.readers * self.reads_per_reader,
                  f"{writes} writes, {reads} reads"),
            Audit("inserted == accepted points", self.accepted == self.points,
                  f"accepted {self.accepted}, sent {self.points}"),
            Audit("raw_range/range_aggregate == driver reference", wrong == 0,
                  f"{wrong} of {len(self.results)} reads differ"),
            Audit("retained + archived == ingested", not broken,
                  f"{2 * self.sensors} channels audited; broken: {broken[:3]}"),
        ]

