"""dashboard_mix — reads beside writes on one m5.xlarge.

Sensors write one insert per second of quantized values into small windows
(``window_capacity=256, block_size=64``), so blocks seal and evict to the
archive during the run; three standing views (aggregate, window, top-K) are
maintained from the write path; a fixed fleet of closed-loop readers cycles
view reads, live data, recent and cold raw ranges and range aggregates.
Highest aodb (views) and ``net.deltas`` share of the six: the workload on
which a gain for writes that costs reads (or the reverse) shows.
"""

from __future__ import annotations

from repro.aodb import ViewDef
from repro.bench.instances import M5_XLARGE
from repro.shm import channel_id_for

from ..deploy import build_shm, ingest, provision_shm, unconserved_channels
from ..loadgen import closed_loop_client, quantized_walk, sample_every, wave_fleet
from ..reference import fold_points, wave_slice
from ..stats import percentile
from .base import Audit, RuntimeWorkload, scaled

SENSORS = 120
SENSORS_PER_ORG = 10
WAVES = 30
POINTS_PER_CHANNEL = 10
SAMPLE_DT = 0.1
WAVE_JITTER = 0.1
WINDOW_CAPACITY = 256
BLOCK_SIZE = 64
WALK_POOL = 16
READERS = 20
READS_PER_READER = 105
THINK_SECONDS = 0.25
THINK_JITTER = 0.05
STALENESS_INTERVAL = 0.02
STALENESS_BOUND = 0.25
#: Waves of history guaranteed retained while one wave may be in flight:
#: (a + 1) * 10 - 256 <= (a - RETAINED_WAVES) * 10.
RETAINED_WAVES = 24
AUDITED_CHANNELS = 48
PARITY_GROUPS = 4

READ_CYCLE = ("view", "live", "raw_recent", "raw_cold", "agg")


def view_defs() -> list[ViewDef]:
    common = {"source": "Sensor", "group_by": "org_id",
              "staleness_bound": STALENESS_BOUND}
    return [
        ViewDef(name="strain-by-org", kind="aggregate", **common),
        ViewDef(name="rollup-by-org", kind="window", window_seconds=1.0,
                max_buckets=8, **common),
        ViewDef(name="hottest-sensors", kind="topk", k=5, rank_by="mean", **common),
    ]


class DashboardMix(RuntimeWorkload):
    name = "dashboard_mix"
    block_size = BLOCK_SIZE
    why = (
        "reads beside writes with sealing/evicting blocks and three maintained "
        "views: where a write gain that costs reads (or the reverse) shows"
    )
    read_kinds = READ_CYCLE

    def setup(self) -> None:
        rng = self.rng
        self.sensors = scaled(SENSORS, self.scale, floor=2 * SENSORS_PER_ORG)
        self.waves = scaled(WAVES, self.scale, floor=10)
        self.readers = scaled(READERS, self.scale, floor=3)
        self.reads_per_reader = scaled(
            READS_PER_READER, self.waves / WAVES, floor=15
        )
        dep = self.dep = build_shm(
            [M5_XLARGE],
            self.seed,
            window_capacity=WINDOW_CAPACITY,
            block_size=BLOCK_SIZE,
            tracing=self.tracing,
            profiling=self.profiling,
        )
        self.scheduler = dep.scheduler
        provision_shm(dep, self.sensors, SENSORS_PER_ORG)
        for definition in view_defs():
            dep.database.register_view(definition)
        self.sensor_ids = dep.report.sensor_ids
        self.org_ids = dep.report.org_ids
        self.channels = [
            (channel_id_for(sensor_id, 0), channel_id_for(sensor_id, 1))
            for sensor_id in self.sensor_ids
        ]
        # Inputs: a pool of seeded walks; channel k of the fleet carries walk
        # k mod WALK_POOL, pre-cut into per-wave batches.
        count = self.waves * POINTS_PER_CHANNEL
        self.walks = [
            quantized_walk(rng, count, start=5000 + 400 * index)
            for index in range(WALK_POOL)
        ]
        self.batches = [
            [
                wave_slice(walk, wave, wave + 1, POINTS_PER_CHANNEL, SAMPLE_DT)
                for wave in range(self.waves)
            ]
            for walk in self.walks
        ]
        self.jitter = [
            [rng.uniform(0.0, WAVE_JITTER) for _ in self.sensor_ids]
            for _ in range(self.waves)
        ]
        self.choices = [
            [
                (rng.randrange(len(self.sensor_ids)), rng.randrange(2),
                 rng.uniform(-THINK_JITTER, THINK_JITTER))
                for _ in range(self.reads_per_reader)
            ]
            for _ in range(self.readers)
        ]
        self.acked_waves = [0] * len(self.sensor_ids)
        self.sent_points = [0] * len(self.org_ids)
        self.acked_points = [0] * len(self.org_ids)
        self.accepted = 0
        self.range_results: list[tuple] = []
        self.view_results: list[tuple] = []
        self.live_results: list[tuple] = []
        self.staleness: list[float] = []
        self.view_read_asks = 0.0

    def _walk_of(self, sensor_index: int, channel: int) -> int:
        return (2 * sensor_index + channel) % WALK_POOL

    async def _send(self, sensor_index: int, wave: int) -> None:
        first, second = self.channels[sensor_index]
        org = sensor_index // SENSORS_PER_ORG
        self.attempted += 1
        self.points += 2 * POINTS_PER_CHANNEL
        self.sent_points[org] += 2 * POINTS_PER_CHANNEL
        stored = await ingest(
            self.dep,
            self.sensor_ids[sensor_index],
            {
                first: self.batches[self._walk_of(sensor_index, 0)][wave],
                second: self.batches[self._walk_of(sensor_index, 1)][wave],
            },
        )
        self.accepted += stored
        self.acked_points[org] += stored
        self.acked_waves[sensor_index] = wave + 1

    def _reader(self, reader: int):
        platform = self.dep.platform
        database = self.dep.database
        choices = self.choices[reader]
        aggregate = database.view("strain-by-org")
        rollup = database.view("rollup-by-org")
        hottest = database.view("hottest-sensors")

        async def issue(n: int) -> str:
            sensor_index, channel, _think = choices[n]
            org = sensor_index // SENSORS_PER_ORG
            org_id = self.org_ids[org]
            kind = READ_CYCLE[n % len(READ_CYCLE)]
            if kind == "view":
                which = (n // len(READ_CYCLE)) % 3
                if which == 0:
                    floor = self.acked_points[org]
                    summary = await aggregate.get(org_id)
                    self.view_results.append(
                        (org, floor, summary["count"], self.sent_points[org])
                    )
                elif which == 1:
                    await rollup.buckets(org_id)
                else:
                    await hottest.top(org_id)
                return kind
            if kind == "live":
                live = await platform.live_data(org_id)
                self.live_results.append((org, len(live)))
                return kind
            acked = self.acked_waves[sensor_index]
            oldest = max(0, acked - RETAINED_WAVES)
            if kind == "raw_recent":
                lo, hi = max(0, acked - 2), acked
            elif kind == "raw_cold":
                lo, hi = oldest, min(oldest + 3, acked)
            else:
                lo, hi = oldest, acked
            channel_id = self.channels[sensor_index][channel]
            if kind == "agg":
                got = await platform.range_aggregate(channel_id, float(lo), float(hi))
            else:
                got = await platform.raw_range(channel_id, float(lo), float(hi))
            self.range_results.append(
                (kind, self._walk_of(sensor_index, channel), lo, hi, got)
            )
            return kind

        return closed_loop_client(
            self.scheduler,
            self.reads_per_reader,
            issue,
            lambda n: THINK_SECONDS + choices[n][2],
            self.recorder,
            start_after=THINK_SECONDS * reader / self.readers,
        )

    def load(self) -> None:
        scheduler = self.scheduler
        jitter = self.jitter
        views = self.dep.database.views

        async def main() -> None:
            fleet = scheduler.spawn(
                wave_fleet(
                    scheduler,
                    range(len(self.sensor_ids)),
                    self.waves,
                    self._send,
                    lambda wave, index: jitter[wave][index],
                    self.recorder,
                    "insert",
                ),
                name="ledger-fleet",
            )
            scheduler.spawn(
                sample_every(
                    scheduler, STALENESS_INTERVAL, views.staleness_seconds,
                    self.staleness, lambda: not fleet.done(),
                ),
                name="ledger-staleness",
            )
            readers = [
                scheduler.spawn(self._reader(index), name=f"ledger-reader-{index}")
                for index in range(self.readers)
            ]
            await scheduler.gather([fleet, *readers])

        self._run_load(main())

    def drain(self) -> None:
        scheduler = self.scheduler
        runtime = self.dep.runtime
        aggregate = self.dep.database.view("strain-by-org")

        async def quiesce_and_probe() -> list[dict]:
            await scheduler.sleep(1.0)
            before = runtime.stats.asks
            summaries = [await aggregate.get(org_id) for org_id in self.org_ids]
            self.view_read_asks = (runtime.stats.asks - before) / len(self.org_ids)
            return summaries

        self.final_summaries = scheduler.run_until_complete(quiesce_and_probe())

    # -- audits ------------------------------------------------------------------

    def _org_reference(self, org: int) -> dict:
        points: list[tuple[float, float]] = []
        first = org * SENSORS_PER_ORG
        for sensor_index in range(first, min(first + SENSORS_PER_ORG, self.sensors)):
            for channel in (0, 1):
                walk = self.walks[self._walk_of(sensor_index, channel)]
                points.extend((0.0, value) for value in walk)
        return fold_points(points)

    def audit(self) -> list[Audit]:
        dep = self.dep
        scheduler = self.scheduler
        per_channel = self.waves * POINTS_PER_CHANNEL
        audits = [
            Audit("every op completed",
                  self.recorder.count("insert") == self.sensors * self.waves
                  and sum(self.recorder.count(k) for k in READ_CYCLE)
                  == self.readers * self.reads_per_reader),
            Audit("inserted == accepted points", self.accepted == self.points,
                  f"accepted {self.accepted}, sent {self.points}"),
        ]

        wrong = 0
        for kind, walk_index, lo, hi, got in self.range_results:
            expected = wave_slice(
                self.walks[walk_index], lo, hi, POINTS_PER_CHANNEL, SAMPLE_DT
            )
            if kind == "agg":
                reference = fold_points(expected)
                ok = all(got[key] == reference[key]
                         for key in ("count", "min", "max", "sum", "mean"))
            else:
                ok = [tuple(pair) for pair in got] == list(expected)
            wrong += not ok
        audits.append(
            Audit("raw_range/range_aggregate == driver reference", wrong == 0,
                  f"{wrong} of {len(self.range_results)} reads differ")
        )

        bad_views = sum(
            1 for _org, floor, count, ceiling in self.view_results
            if not floor <= count <= ceiling
        )
        audits.append(
            Audit("view reads between acked and sent points", bad_views == 0,
                  f"{bad_views} of {len(self.view_results)}")
        )
        channels_per_org = 2 * SENSORS_PER_ORG + 1
        bad_live = sum(1 for _org, size in self.live_results
                       if size != channels_per_org)
        audits.append(
            Audit("live_data covers every channel of the tenant", bad_live == 0,
                  f"{bad_live} of {len(self.live_results)}")
        )

        totals_ok = True
        for org, summary in enumerate(self.final_summaries):
            reference = self._org_reference(org)
            if summary["count"] != self.acked_points[org] or any(
                summary[mine] != reference[theirs]
                for mine, theirs in (("count", "count"), ("total", "sum"),
                                     ("min", "min"), ("max", "max"))
            ):
                totals_ok = False
        audits.append(Audit("view totals == acked points (driver refold)", totals_ok))

        pull = dep.database.view("ledger-parity", source="Sensor", group_by="org_id")
        step = max(1, len(self.org_ids) // PARITY_GROUPS)

        async def parity() -> bool:
            for org in range(0, len(self.org_ids), step):
                scanned = await pull.get(self.org_ids[org])
                summary = self.final_summaries[org]
                if any(scanned[key] != summary[key]
                       for key in ("count", "total", "min", "max")):
                    return False
            return True

        audits.append(
            Audit("view == pull fold on sampled groups",
                  scheduler.run_until_complete(parity()))
        )

        flat = [c for pair in self.channels for c in pair]
        audited = flat[:: max(1, len(flat) // AUDITED_CHANNELS)]

        broken = unconserved_channels(dep, audited, per_channel)
        audits.append(
            Audit("retained + archived == ingested", not broken,
                  f"{len(audited)} channels audited; broken: {broken[:3]}")
        )
        views = dep.database.views
        audits.append(
            Audit("no failed, duplicate or pending delta flushes",
                  views.failed_flushes == 0 and views.pending_deltas() == 0,
                  f"failed {views.failed_flushes}, pending {views.pending_deltas()}")
        )
        return audits

    # -- results -----------------------------------------------------------------

    def counters(self) -> dict[str, float]:
        return {**super().counters(), "aodb.view_read_asks": self.view_read_asks}

    def virtual_extras(self) -> dict[str, float]:
        return {
            **super().virtual_extras(),
            "view_staleness_p99_ms": percentile(sorted(self.staleness), 0.99) * 1000.0,
        }
