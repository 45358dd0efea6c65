"""The benchmarking tool: deployment builder and load generator.

Reproduces the paper's .NET benchmarking client (§6.1):

- **Sensor waves**: every simulated sensor sends one insert request with 20
  data points (10 per physical channel) each second, "repeated each second
  if all sensors have finished their calls" — a global wave barrier.
- **User queries**: per organization, at most one live-data request and one
  raw-data request per second (≈1%/1%/98% mix at 100 sensors/org).
- **Measurement**: windowed means with first/last-window trimming
  (:mod:`repro.bench.metrics`).

Also the plumbing every bench shares: :func:`drive_waves`,
:func:`class_attributes`, :func:`use_short_leases`, :class:`InvariantError`.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Awaitable, Callable, Iterable, Iterator, Sequence

from ..aodb.database import AodbDatabase
from ..kernel.rng import RngRegistry
from ..kernel.scheduler import Scheduler
from ..net.latency import ConstantLatency
from ..net.network import Network
from ..obs.profile import Profiler
from ..obs.trace import Tracer
from ..runtime.key import ActorKey
from ..runtime.runtime import AodbRuntime
from ..shm.platform import ProvisionReport, ShmPlatform, channel_id_for
from ..storage.system_store import SystemStore
from .calibration import LAN_LATENCY_SECONDS, calibrated_config
from .instances import InstanceType
from .metrics import LatencyRecorder, Summary


class InvariantError(RuntimeError):
    """Bench invariants were violated; ``args`` are the violations.

    The one exception every bench raises for a broken invariant, from an
    audit inside its run or from its registered ``check``.
    """


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InvariantError(message)


def violated(claims: dict[str, bool]) -> list[str]:
    """The claims (``claim -> holds``) that do not hold, as violations."""
    return [claim for claim, holds in claims.items() if not holds]


@dataclass
class LoadConfig:
    """One load run's parameters."""

    sensors: int
    duration: float = 12.0
    window_seconds: float = 1.0
    sensors_per_org: int = 100
    with_queries: bool = False
    wave_jitter: float = 0.02
    raw_range_seconds: float = 2.0
    points_per_channel: int = 10
    sample_dt: float = 0.1


@dataclass
class Deployment:
    """A provisioned cluster ready to receive load."""

    scheduler: Scheduler
    runtime: AodbRuntime
    database: AodbDatabase
    platform: ShmPlatform
    rng: RngRegistry
    report: ProvisionReport | None = None


@dataclass
class RunResult:
    """Everything a figure needs from one load run."""

    config: LoadConfig
    recorder: LatencyRecorder
    measure_start: float
    measure_end: float
    utilization: dict[str, float] = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)

    def summary(self, kind: str) -> Summary | None:
        return self.recorder.summarize(
            kind,
            self.config.window_seconds,
            self.measure_start,
            self.measure_end,
        )

    @property
    def insert_throughput(self) -> float:
        summary = self.summary("insert")
        return summary.throughput_mean if summary else 0.0

    @property
    def mean_utilization(self) -> float:
        if not self.utilization:
            return 0.0
        return sum(self.utilization.values()) / len(self.utilization)


def build_deployment(
    silos: list[InstanceType],
    seed: int = 0,
    window_capacity: int = 256,
    enable_aggregation: bool = False,
    scheduler: Scheduler | None = None,
    tracing: bool = False,
    profiling: bool = False,
    fast_path: bool = True,
    grain_storage=None,
    placement_fallback: str | None = None,
    dedup_ingest: bool = False,
    block_size: int | None = None,
) -> Deployment:
    """Assemble runtime + database + SHM platform over simulated servers.

    ``tracing=True`` turns on the causal tracer (spans for every message);
    ``profiling=True`` turns on the continuous per-actor profiler.  Both
    stay off for figure runs so measurements reflect the uninstrumented hot
    path.  The metrics registry is always on — it is pull-based and costs
    nothing until snapshotted.  ``fast_path=False`` disables the ingestion
    fast path (delivery batching, overhead amortization, group commit),
    reproducing the seed operating point for baseline comparisons.
    ``placement_fallback`` overrides the strategy unpinned prefer-local /
    pinned placements fall back to (the elastic bench uses
    ``"power_of_two"`` so fresh activations spread load-aware).
    ``dedup_ingest=True`` provisions sensors and channels with monotonic
    timestamp dedup, making ingestion idempotent under retries and
    duplicated deliveries (the partition bench turns it on).
    """
    scheduler = scheduler or Scheduler()
    rng = RngRegistry(seed)
    config = calibrated_config(seed, fast_path=fast_path)
    if placement_fallback is not None:
        config.placement_fallback = placement_fallback
    network = Network(
        scheduler, rng=rng, lan=ConstantLatency(LAN_LATENCY_SECONDS)
    )
    runtime = AodbRuntime(
        scheduler,
        config=config,
        network=network,
        rng=rng,
        tracer=Tracer(enabled=tracing),
        profiler=Profiler(enabled=profiling),
        grain_storage=grain_storage,
    )
    for index, instance_type in enumerate(silos):
        runtime.add_silo(
            f"silo-{index}",
            cores=instance_type.cores,
            speed=instance_type.speed,
            instance_type=instance_type.name,
        )
    database = AodbDatabase(runtime)
    platform_kwargs = {} if block_size is None else {"block_size": block_size}
    platform = ShmPlatform(
        database,
        window_capacity=window_capacity,
        enable_aggregation=enable_aggregation,
        dedup_ingest=dedup_ingest,
        **platform_kwargs,
    )
    return Deployment(scheduler, runtime, database, platform, rng)


def use_short_leases(deployment: Deployment, lease_seconds: float) -> None:
    """Swap in a short-lease ``SystemStore`` and re-announce the silos.

    For the benches that script lease loss; call before provisioning, so
    fences and leases come from the new store.
    """
    runtime = deployment.runtime
    system_store = SystemStore(deployment.scheduler, lease_seconds=lease_seconds)
    runtime.system_store = system_store
    for silo in runtime.silos():
        system_store.announce(silo.silo_id, instance_type=silo.instance_type)


@contextmanager
def class_attributes(classes: Iterable[type], **attributes: object) -> Iterator[None]:
    """Run a block with ``attributes`` set on every one of ``classes``.

    Durability and placement are class attributes of the SHM actors, so a
    bench that needs another policy patches the classes for the length of
    its run; every attribute is restored on any exit.
    """
    saved = [(cls, name, getattr(cls, name)) for cls in classes for name in attributes]
    try:
        for cls, name, _ in saved:
            setattr(cls, name, attributes[name])
        yield
    finally:
        for cls, name, value in saved:
            setattr(cls, name, value)


async def provision(
    deployment: Deployment,
    total_sensors: int,
    sensors_per_org: int = 100,
) -> ProvisionReport:
    """Provision the paper's structure, partitioning tenants over silos.

    Organizations (and, via prefer-local placement, their whole actor
    subtrees) are pinned round-robin across silos — the paper's "no
    dependencies across organizations" partitioning that makes Figure 7
    scale linearly.
    """
    silo_ids = [silo.silo_id for silo in deployment.runtime.silos()]
    org_count = (total_sensors + sensors_per_org - 1) // sensors_per_org
    pinned = deployment.runtime.pinned_placement
    for org_index in range(org_count):
        silo_id = silo_ids[org_index % len(silo_ids)]
        org_id = f"org-{org_index}"
        pinned.pin(ActorKey("Organization", org_id), silo_id)
        pinned.pin_prefix(f"Sensor/{org_id}/", silo_id)
    report = await deployment.platform.provision(
        total_sensors, sensors_per_org=sensors_per_org
    )
    deployment.report = report
    # Provisioning work must not pollute the measurement: reset both the
    # kernel CPU ledger and the profiler's attribution so they stay in sync
    # (coverage compares the two).
    for silo in deployment.runtime.silos():
        silo.cpu.reset_accounting()
    deployment.runtime.profiler.clear()
    return report


def synth_value(channel_index: int, timestamp: float) -> float:
    """Cheap deterministic signal: per-channel offset plus a slow drift."""
    return channel_index * 10.0 + 0.001 * timestamp


def one_point_batches(sensor_id: str, wave_time: float) -> dict[str, list]:
    """One sample per physical channel: the fault benches' insert payload."""
    return {
        channel_id_for(sensor_id, channel): [
            (wave_time, synth_value(channel, wave_time))
        ]
        for channel in (0, 1)
    }


async def drive_waves(
    scheduler: Scheduler,
    sensor_ids: Sequence[str],
    stop: float,
    insert: Callable[[str, float], Awaitable[None]],
) -> None:
    """The paper's sensor fleet: one synchronized wave a second until ``stop``.

    Each wave spawns ``insert(sensor_id, wave_time)`` for every sensor, in
    order, and waits for all of them — "repeated each second if all sensors
    have finished their calls" — so a slow wave delays the next instead of
    stacking on it.  What an insert sends, counts and tolerates stays with
    the caller; an error it lets through ends the drive.
    """
    while scheduler.now < stop:
        wave_time = scheduler.now
        tasks = [
            scheduler.spawn(insert(sensor_id, wave_time))
            for sensor_id in sensor_ids
        ]
        await scheduler.gather(tasks)
        next_wave = wave_time + 1.0
        if scheduler.now < next_wave:
            await scheduler.sleep(next_wave - scheduler.now)


async def run_load(deployment: Deployment, load: LoadConfig) -> RunResult:
    """Drive the paper's workload and return the measurements."""
    if deployment.report is None:
        raise RuntimeError("call provision() before run_load()")
    scheduler = deployment.scheduler
    platform = deployment.platform
    recorder = LatencyRecorder()
    jitter_rng = deployment.rng.stream("wave-jitter")
    query_rng = deployment.rng.stream("queries")
    start = scheduler.now
    stop = start + load.duration
    sensor_ids = deployment.report.sensor_ids
    org_ids = deployment.report.org_ids
    org_channels = {
        org_id: [
            channel_id_for(sensor_id, channel)
            for sensor_id in sensor_ids
            if sensor_id.startswith(f"{org_id}/")
            for channel in (0, 1)
        ]
        for org_id in org_ids
    }

    # Per-sensor channel ids never change; build the f-strings once instead
    # of twice per sensor per wave.
    sensor_channels = {
        sensor_id: (channel_id_for(sensor_id, 0), channel_id_for(sensor_id, 1))
        for sensor_id in sensor_ids
    }

    @lru_cache(maxsize=1)
    def wave_samples(wave_time: float) -> tuple[tuple, tuple]:
        """Both channels' sample batches for one wave.

        Every sensor sends the same synthetic signal, so the
        ``(timestamp, value)`` pairs depend only on ``(channel, wave_time)``
        — computed once per wave and shared (they are immutable tuples)
        across the whole fleet instead of rebuilt per sensor.  The float
        expressions match the original per-sensor construction exactly, so
        measured values are bit-identical.
        """
        times = [wave_time + i * load.sample_dt for i in range(load.points_per_channel)]
        return (
            tuple((ts, synth_value(0, ts)) for ts in times),
            tuple((ts, synth_value(1, ts)) for ts in times),
        )

    async def one_insert(sensor_id: str, jitter: float, samples: tuple) -> None:
        if jitter > 0:
            await scheduler.sleep(jitter)
        sent = scheduler.now
        channel_ids = sensor_channels[sensor_id]
        batches = {channel_ids[0]: samples[0], channel_ids[1]: samples[1]}
        await platform.ingest(sensor_id, batches)
        recorder.record("insert", sent, scheduler.now - sent)

    def jittered_insert(sensor_id: str, wave_time: float) -> Awaitable[None]:
        # Not a coroutine function: the jitter is drawn here, at spawn time,
        # so the ``wave-jitter`` stream is consumed in sensor order.
        return one_insert(
            sensor_id,
            jitter_rng.uniform(0, load.wave_jitter),
            wave_samples(wave_time),
        )

    async def live_queries(org_id: str) -> None:
        # One user per organization looks at live data once a second; the
        # moment within each second is uniformly random (users are not
        # synchronized with the sensor waves).
        cycle = scheduler.now
        while cycle < stop:
            offset = query_rng.uniform(0, 1.0)
            await scheduler.at(cycle + offset)
            sent = scheduler.now
            await platform.live_data(org_id)
            recorder.record("live", sent, scheduler.now - sent)
            cycle += 1.0
            if scheduler.now < cycle:
                await scheduler.sleep(cycle - scheduler.now)

    async def raw_queries(org_id: str) -> None:
        channels = org_channels[org_id]
        cycle = scheduler.now
        while cycle < stop:
            offset = query_rng.uniform(0, 1.0)
            await scheduler.at(cycle + offset)
            channel_id = channels[query_rng.randrange(len(channels))]
            sent = scheduler.now
            await platform.raw_range(
                channel_id, sent - load.raw_range_seconds, sent
            )
            recorder.record("raw", sent, scheduler.now - sent)
            cycle += 1.0
            if scheduler.now < cycle:
                await scheduler.sleep(cycle - scheduler.now)

    fleet = drive_waves(scheduler, sensor_ids, stop, jittered_insert)
    tasks = [scheduler.spawn(fleet, name="fleet")]
    if load.with_queries:
        for org_id in org_ids:
            tasks.append(scheduler.spawn(live_queries(org_id), name=f"live:{org_id}"))
            tasks.append(scheduler.spawn(raw_queries(org_id), name=f"raw:{org_id}"))

    utilization: dict[str, float] = {}

    async def snapshot_utilization() -> None:
        await scheduler.at(stop)
        for silo in deployment.runtime.silos():
            utilization[silo.silo_id] = silo.cpu.utilization()

    tasks.append(scheduler.spawn(snapshot_utilization(), name="utilization"))
    await scheduler.gather(tasks)
    return RunResult(
        config=load,
        recorder=recorder,
        measure_start=start,
        measure_end=stop,
        utilization=utilization,
        metrics=deployment.runtime.metrics.cluster_totals(),
    )


def execute(deployment: Deployment, load: LoadConfig) -> RunResult:
    """Synchronous convenience wrapper used by benches and the CLI."""
    return deployment.scheduler.run_until_complete(run_load(deployment, load))
