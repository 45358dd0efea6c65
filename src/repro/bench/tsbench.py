"""Tiered time-series storage bench: compression, memory, scan latency.

Two legs, both against the same deterministic quantized-sensor workload
(an ADC-style random walk — values move on a fixed 0.01 grid, which is
what real sensor payloads look like and what XOR compression rewards):

- **engine** — a pure A/B of :class:`~repro.storage.tsblocks.TieredSeries`
  against itself with tiering disabled (``block_size=0`` degenerates to
  the raw pair window).  Measures live memory per sensor, sealed-tier
  compression ratio, append cost, and range-scan latency on recent reads
  (the hot-head path) and cold reads (decode path), while asserting the
  two sides return *identical* query results.
- **platform** — the full stack: an SHM deployment ingesting through
  sensor → channel actors with a small window capacity, so points
  overflow into sealed blocks and whole blocks evict into the
  block-backed :class:`~repro.storage.archive.ArchiveLog`.  Asserts
  end-to-end conservation (retained + archived == ingested, per channel)
  and that every archived point arrived in a window's sealed block, and
  reports the cluster ``storage.*`` probes.

Invariants (raised as :class:`~repro.bench.workload.InvariantError`,
failing CI loudly):
ROADMAP's ≥10× per-sensor memory reclaimed, a ≥4× sealed-tier compression
floor, recent-read latency within 2× of the raw window, and exact query
equivalence.  The committed ``BENCH_tsblocks.json`` is gated by
:func:`gate_tsblocks` — the block format is frozen, so point, block and
*byte* counts must equal the baseline exactly; wall-clock numbers are
reported but only the recent-scan *ratio* is bounded, host-speed drift
cancels out of it.
"""

from __future__ import annotations

import random
import time

from ..storage.tsblocks import RAW_POINT_BYTES, TieredSeries
from .baseline import GatedRun
from .workload import _require

#: ROADMAP item 2's success bar: memory per sensor reclaimed vs raw points.
MEMORY_RECLAIM_FLOOR = 10.0
#: Sealed-tier wire compression floor (16 raw bytes/point vs block bytes).
COMPRESSION_FLOOR = 4.0
#: Recent-data range scans must stay within 2x of the raw window.
RECENT_SCAN_CEILING = 2.0
#: Gate tolerance on the memory ratio: its raw side is ``sys.getsizeof``
#: arithmetic, which moves with the interpreter's object layout.
RATIO_DROP_TOLERANCE = 0.10

BLOCK_SIZE = 256


def quantized_walk(
    seed: int, count: int, t0: float = 1_000_000.0, interval: float = 1.0
) -> list[tuple[float, float]]:
    """A deterministic sensor stream: gridded values, mostly-regular time.

    Values are fixed-point ADC readings — an integer counts walk scaled
    by 1/256, so consecutive floats differ only in a few mantissa bits
    (what XOR compression rewards and what quantized sensors actually
    emit).  Timestamps tick at ``interval`` with occasional skipped
    readings, so both codecs see realistic small irregularities rather
    than a best-case constant stream.
    """
    rng = random.Random(seed)
    pairs: list[tuple[float, float]] = []
    t = t0
    counts = 5000
    for _ in range(count):
        t += interval if rng.random() >= 0.05 else interval * rng.choice((2, 3))
        counts += rng.randint(-5, 5)
        pairs.append((t, counts / 256.0))
    return pairs


def _timed_queries(
    side: list[TieredSeries], queries: list[tuple[float, float]]
) -> tuple[float, list]:
    """Run range queries round-robin; returns (seconds per query, results).

    The batch is timed best-of-3 (fresh round-robin cursor each pass, so
    query → series alignment is identical) because a single GC pause is
    larger than the entire µs-scale timed section.
    """
    results: list = []
    best = float("inf")
    for attempt in range(3):
        series = _RoundRobin(side)
        collect = results if attempt == 0 else None
        started = time.perf_counter()
        for start, end in queries:
            got = series.range(start, end)
            if collect is not None:
                collect.append(got)
        best = min(best, time.perf_counter() - started)
    return best / max(1, len(queries)), results


def _run_engine_leg(sensors: int, points: int, query_count: int) -> dict:
    """The A/B: tiered vs raw TieredSeries over identical streams."""
    capacity = points + 1  # retention is the platform leg's business
    raw_side = [
        TieredSeries(capacity, block_size=0) for _ in range(sensors)
    ]
    tiered_side = [
        TieredSeries(capacity, block_size=BLOCK_SIZE) for _ in range(sensors)
    ]
    streams = [quantized_walk(seed=17 + i, count=points) for i in range(sensors)]

    def _fill(side: list[TieredSeries]) -> float:
        started = time.perf_counter()
        for series, stream in zip(side, streams):
            for offset in range(0, len(stream), 10):  # ingest-sized batches
                series.append_many(stream[offset:offset + 10])
        return time.perf_counter() - started

    raw_fill = _fill(raw_side)
    tiered_fill = _fill(tiered_side)

    raw_bytes = sum(s.memory_stats()["live_bytes"] for s in raw_side)
    tiered_stats = [s.memory_stats() for s in tiered_side]
    tiered_bytes = sum(m["live_bytes"] for m in tiered_stats)
    block_bytes = sum(m["block_bytes"] for m in tiered_stats)
    sealed_points = sum(m["sealed_points"] for m in tiered_stats)

    # Query workload (deterministic): recent reads touch the newest ~2% of
    # the stream (the dashboard pattern); cold reads pick a narrow historic
    # window, which on the tiered side decodes one block and skips the
    # rest; full scans read everything.
    rng = random.Random(99)
    recent_queries, cold_queries = [], []
    for index in range(query_count):
        series = tiered_side[index % sensors]
        t_last = series.last_timestamp
        t_first = streams[index % sensors][0][0]
        recent_queries.append((t_last - 64.0, t_last + 1.0))
        mid = t_first + rng.random() * 0.8 * (t_last - t_first)
        cold_queries.append((mid, mid + 100.0))

    def _ab(queries: list[tuple[float, float]]) -> tuple[float, float]:
        tiered_lat, tiered_results = _timed_queries(tiered_side, queries)
        raw_lat, raw_results = _timed_queries(raw_side, queries)
        for got, expected in zip(tiered_results, raw_results):
            _require(
                got == expected,
                "tiered range() diverged from the raw window on an "
                "identical stream",
            )
        return tiered_lat, raw_lat

    recent_tiered, recent_raw = _ab(recent_queries)
    cold_tiered, cold_raw = _ab(cold_queries)

    # Aggregates: summary-answered folds must match folding the raw pairs.
    for index in (0, sensors - 1):
        t_first = streams[index][0][0]
        t_last = tiered_side[index].last_timestamp
        got = tiered_side[index].aggregate(t_first, t_last + 1.0)
        expected = raw_side[index].aggregate(t_first, t_last + 1.0)
        _require(
            got["count"] == expected["count"]
            and got["min"] == expected["min"]
            and got["max"] == expected["max"]
            and abs(got["sum"] - expected["sum"])
            <= 1e-9 * max(1.0, abs(expected["sum"])),
            "summary-answered aggregate diverged from the raw fold",
        )

    memory_reclaimed = raw_bytes / max(1, tiered_bytes)
    compression = (16.0 * sealed_points) / max(1, block_bytes)
    return {
        "sensors": sensors,
        "points_per_sensor": points,
        "block_size": BLOCK_SIZE,
        "raw_live_bytes": raw_bytes,
        "tiered_live_bytes": tiered_bytes,
        "raw_point_bytes": RAW_POINT_BYTES,
        "block_bytes": block_bytes,
        "sealed_points": sealed_points,
        "blocks_sealed": sum(s.sealed_blocks for s in tiered_side),
        "memory_reclaimed_x": round(memory_reclaimed, 2),
        "compression_ratio": round(compression, 2),
        "bytes_per_point": round(block_bytes / max(1, sealed_points), 3),
        "append_us_per_point_raw": round(
            raw_fill / (sensors * points) * 1e6, 3
        ),
        "append_us_per_point_tiered": round(
            tiered_fill / (sensors * points) * 1e6, 3
        ),
        "recent_scan_us_raw": round(recent_raw * 1e6, 2),
        "recent_scan_us_tiered": round(recent_tiered * 1e6, 2),
        "recent_scan_ratio": round(recent_tiered / max(1e-9, recent_raw), 3),
        "cold_scan_us_raw": round(cold_raw * 1e6, 2),
        "cold_scan_us_tiered": round(cold_tiered * 1e6, 2),
        "cold_scan_ratio": round(cold_tiered / max(1e-9, cold_raw), 3),
    }


class _RoundRobin:
    """Distributes a query list across a fleet of series, round-robin."""

    def __init__(self, side: list[TieredSeries]) -> None:
        self._side = side
        self._next = 0

    def range(self, start: float, end: float) -> list:
        series = self._side[self._next % len(self._side)]
        self._next += 1
        return series.range(start, end)


def _run_platform_leg(sensors: int, waves: int) -> dict:
    """Full-stack run: ingest → channels → sealed blocks → archive."""
    from .instances import M5_LARGE
    from .workload import build_deployment, provision

    capacity = 512
    block_size = 64
    deployment = build_deployment(
        [M5_LARGE],
        seed=23,
        window_capacity=capacity,
        block_size=block_size,
    )
    scheduler = deployment.scheduler
    platform = deployment.platform
    scheduler.run_until_complete(
        provision(deployment, sensors, sensors_per_org=max(1, sensors))
    )
    deployment.runtime.start()
    sensor_ids = deployment.report.sensor_ids
    points_per_wave = 10

    async def drive() -> None:
        walks = {
            sensor_id: {
                channel: quantized_walk(
                    seed=1000 + index * 2 + channel,
                    count=waves * points_per_wave,
                )
                for channel in (0, 1)
            }
            for index, sensor_id in enumerate(sensor_ids)
        }
        from ..shm.platform import channel_id_for

        for wave in range(waves):
            lo = wave * points_per_wave
            for sensor_id in sensor_ids:
                batches = {
                    channel_id_for(sensor_id, channel): walks[sensor_id][
                        channel
                    ][lo:lo + points_per_wave]
                    for channel in (0, 1)
                }
                await platform.ingest(sensor_id, batches)
            await scheduler.sleep(1.0)

    scheduler.run_until_complete(drive())
    total_per_channel = waves * points_per_wave

    # Conservation: every ingested point is either retained in the tiered
    # window or archived — nothing lost, nothing duplicated.
    async def audit() -> dict:
        from ..shm.platform import channel_id_for

        archived = 0
        retained = 0
        for sensor_id in sensor_ids:
            for channel in (0, 1):
                channel_id = channel_id_for(sensor_id, channel)
                depth = await platform.runtime.ref(
                    "PhysicalSensorChannel", channel_id
                ).depth()
                in_archive = len(
                    platform.archive.read_range(
                        channel_id, 0.0, float("inf")
                    )
                )
                _require(
                    depth + in_archive == total_per_channel,
                    f"channel {channel_id}: retained {depth} + archived "
                    f"{in_archive} != ingested {total_per_channel}",
                )
                archived += in_archive
                retained += depth
        stats = await platform.storage_stats(sensor_ids[0])
        return {"archived": archived, "retained": retained, "sensor0": stats}

    audited = scheduler.run_until_complete(audit())
    metrics = deployment.runtime.metrics.cluster_totals()
    scheduler.run_until_complete(deployment.runtime.stop())
    archive = platform.archive
    sensor0 = audited["sensor0"]
    return {
        "sensors": sensors,
        "waves": waves,
        "window_capacity": capacity,
        "block_size": block_size,
        "points_ingested": total_per_channel * 2 * sensors,
        "points_retained": audited["retained"],
        "points_archived": audited["archived"],
        "archive_points": len(archive),  # virtual channels' streams too
        "archive_block_bytes": archive.block_bytes,
        "archive_sealed_records": archive.sealed_records,
        "archive_blocks_sealed": archive.blocks_sealed,
        "sensor_live_bytes": sensor0["live_bytes"],
        "sensor_raw_equivalent_bytes": sensor0["raw_equivalent_bytes"],
        "storage_block_bytes": int(metrics.get("storage.block_bytes", 0.0)),
        "storage_blocks_sealed": int(
            metrics.get("storage.blocks_sealed", 0.0)
        ),
        "storage_compression_ratio": round(
            metrics.get("storage.compression_ratio", 0.0), 2
        ),
    }


def build_tsbench(smoke: bool = False) -> GatedRun:
    """Run both legs (each audits itself as it goes); return the payload."""
    if smoke:
        engine = _run_engine_leg(sensors=8, points=4196, query_count=200)
        platform = _run_platform_leg(sensors=6, waves=80)
    else:
        engine = _run_engine_leg(sensors=32, points=16484, query_count=400)
        platform = _run_platform_leg(sensors=20, waves=150)
    payload = {
        "bench": "tsblocks",
        "mode": "smoke" if smoke else "full",
        "title": "Tiered time-series storage (hot head + compressed blocks)",
        "series": {"engine": engine, "platform": platform},
        "summary": {
            "memory_reclaimed_x": engine["memory_reclaimed_x"],
            "compression_ratio": engine["compression_ratio"],
            "bytes_per_point": engine["bytes_per_point"],
            "recent_scan_ratio": engine["recent_scan_ratio"],
            "cold_scan_ratio": engine["cold_scan_ratio"],
            "archive_sealed_records": platform["archive_sealed_records"],
        },
    }
    return GatedRun(payload)


def check_tsblocks(run: GatedRun) -> list[str]:
    """The storage floors and ceilings, on the two legs' rows."""
    engine = run.payload["series"]["engine"]
    platform = run.payload["series"]["platform"]
    _require(
        engine["memory_reclaimed_x"] >= MEMORY_RECLAIM_FLOOR,
        f"memory reclaimed {engine['memory_reclaimed_x']}x is below the "
        f"{MEMORY_RECLAIM_FLOOR}x floor",
    )
    _require(
        engine["compression_ratio"] >= COMPRESSION_FLOOR,
        f"sealed-tier compression {engine['compression_ratio']}x is below "
        f"the {COMPRESSION_FLOOR}x floor",
    )
    _require(
        engine["recent_scan_ratio"] <= RECENT_SCAN_CEILING,
        f"recent-range scans are {engine['recent_scan_ratio']}x the raw "
        f"window (ceiling {RECENT_SCAN_CEILING}x)",
    )
    _require(
        platform["points_archived"] > 0,
        "platform leg never overflowed into the block-backed archive",
    )
    _require(
        platform["archive_sealed_records"] == platform["archive_points"],
        f"only {platform['archive_sealed_records']} of "
        f"{platform['archive_points']} archived points arrived as sealed "
        f"blocks (windows evict whole blocks)",
    )
    _require(
        platform["storage_compression_ratio"] >= COMPRESSION_FLOOR,
        f"cluster probe compression {platform['storage_compression_ratio']}x "
        f"is below the {COMPRESSION_FLOOR}x floor",
    )
    return []


def gate_tsblocks(fresh: dict, baseline: dict) -> list[str]:
    """CI gate: exact counts and bytes against the committed file.

    The block format is frozen (``tests/storage/golden_tsblocks.json``), so
    a healthy checkout reproduces every sealed byte: counts and byte totals
    must be equal, not merely close.  Wall-clock latencies vary with the
    host, so only the tiered/raw recent-scan *ratio* is bounded (host speed
    cancels); the memory ratio keeps a tolerance because its raw side
    depends on the interpreter's object sizes.
    """
    failures: list[str] = []
    fresh_engine = fresh["series"]["engine"]
    base_engine = baseline["series"]["engine"]
    floor = base_engine["memory_reclaimed_x"] * (1 - RATIO_DROP_TOLERANCE)
    if fresh_engine["memory_reclaimed_x"] < floor:
        failures.append(
            f"engine memory_reclaimed_x {fresh_engine['memory_reclaimed_x']} "
            f"fell below gate {floor:.2f} "
            f"(baseline {base_engine['memory_reclaimed_x']})"
        )
    if fresh_engine["recent_scan_ratio"] > RECENT_SCAN_CEILING:
        failures.append(
            f"engine recent_scan_ratio {fresh_engine['recent_scan_ratio']} "
            f"exceeds the {RECENT_SCAN_CEILING}x ceiling"
        )
    exact = {
        "engine": ("blocks_sealed", "sealed_points", "block_bytes"),
        "platform": (
            "points_ingested", "points_archived", "archive_blocks_sealed",
            "storage_block_bytes", "archive_block_bytes",
        ),
    }
    for leg, keys in exact.items():
        for key in keys:
            got, expected = fresh["series"][leg][key], baseline["series"][leg][key]
            if got != expected:
                failures.append(
                    f"{leg} {key} {got} != baseline {expected} "
                    f"(deterministic sealing drifted)"
                )
    return failures
