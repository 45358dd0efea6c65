"""Deployment builder for the SHM workloads, from public API only.

Mirrors what ``repro.bench.workload.build_deployment`` assembles, but is
owned by the ledger so a refactor of ``repro.bench`` cannot change what the
ledger measures.  Only the cost model (``repro.bench.calibration`` /
``repro.bench.instances``) is shared.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import AodbDatabase, AodbRuntime, ActorKey, Scheduler
from repro.bench.calibration import LAN_LATENCY_SECONDS, calibrated_config
from repro.bench.instances import InstanceType
from repro.kernel import RngRegistry
from repro.net import ConstantLatency, Network
from repro.obs import Profiler, Tracer
from repro.shm import ProvisionReport, ShmPlatform

# Enough for every span of the largest traced workload; the tracer's default
# cap would silently drop the tail of the run.
TRACE_SPAN_CAP = 4_000_000


@dataclass
class Deployment:
    scheduler: Scheduler
    runtime: AodbRuntime
    database: AodbDatabase
    platform: ShmPlatform
    report: ProvisionReport | None = None


def build_shm(
    silos: list[InstanceType],
    seed: int,
    *,
    window_capacity: int,
    block_size: int,
    grain_storage_factory=None,
    configure=None,
    tracing: bool = False,
    profiling: bool = False,
) -> Deployment:
    """Runtime + database + SHM platform over simulated servers.

    ``grain_storage_factory(scheduler, rng)`` supplies a durable store
    (default: the runtime's in-memory store); ``configure(config)`` edits
    the calibrated fast-path config before the runtime is built.
    """
    scheduler = Scheduler()
    rng = RngRegistry(seed)
    config = calibrated_config(seed, fast_path=True)
    if configure is not None:
        configure(config)
    network = Network(scheduler, rng=rng, lan=ConstantLatency(LAN_LATENCY_SECONDS))
    runtime = AodbRuntime(
        scheduler,
        config=config,
        network=network,
        rng=rng,
        tracer=Tracer(enabled=tracing, max_spans=TRACE_SPAN_CAP),
        profiler=Profiler(enabled=profiling),
        grain_storage=(
            grain_storage_factory(scheduler, rng) if grain_storage_factory else None
        ),
    )
    for index, instance in enumerate(silos):
        runtime.add_silo(
            f"silo-{index}",
            cores=instance.cores,
            speed=instance.speed,
            instance_type=instance.name,
        )
    database = AodbDatabase(runtime)
    platform = ShmPlatform(
        database,
        window_capacity=window_capacity,
        enable_aggregation=False,
        block_size=block_size,
    )
    return Deployment(scheduler, runtime, database, platform)


def provision_shm(deployment: Deployment, sensors: int, sensors_per_org: int) -> None:
    """Provision the paper's tenant structure, organizations pinned
    round-robin over silos ("no dependencies across organizations")."""
    runtime = deployment.runtime
    silo_ids = [silo.silo_id for silo in runtime.silos()]
    org_count = -(-sensors // sensors_per_org)
    for org_index in range(org_count):
        silo_id = silo_ids[org_index % len(silo_ids)]
        org_id = f"org-{org_index}"
        runtime.pinned_placement.pin(ActorKey("Organization", org_id), silo_id)
        runtime.pinned_placement.pin_prefix(f"Sensor/{org_id}/", silo_id)
    deployment.report = deployment.scheduler.run_until_complete(
        deployment.platform.provision(sensors, sensors_per_org=sensors_per_org)
    )
    # Provisioning must not count as load: CPU utilization is read after the run.
    for silo in runtime.silos():
        silo.cpu.reset_accounting()
    runtime.profiler.clear()


async def ingest(deployment: Deployment, sensor_id: str, batches: dict) -> int:
    """One insert request; returns the points the platform accepted.

    With the program's tracer switched on, the request is parented by a
    driver-side root span (kind ``client``), so its spans form one tree.
    """
    tracer = deployment.runtime.tracer
    if not tracer.enabled:
        return await deployment.platform.ingest(sensor_id, batches)
    scheduler = deployment.scheduler
    root = tracer.begin("insert", "client", "client", scheduler.now)
    stored = await deployment.platform.ingest(sensor_id, batches, trace=root)
    tracer.finish(root, scheduler.now)
    return stored


def unconserved_channels(
    deployment: Deployment, channel_ids: list[str], ingested: int
) -> list[str]:
    """Channels whose ``retained + archived`` differs from ``ingested``."""
    archive = deployment.platform.archive

    async def check() -> list[str]:
        broken = []
        for channel_id in channel_ids:
            retained = await deployment.runtime.ref(
                "PhysicalSensorChannel", channel_id
            ).depth()
            archived = len(archive.read_range(channel_id, 0.0, float("inf")))
            if retained + archived != ingested:
                broken.append(f"{channel_id}: {retained}+{archived}")
        return broken

    return deployment.scheduler.run_until_complete(check())
