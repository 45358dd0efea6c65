"""Partition-tolerance bench: scripted netsplits with asserted invariants.

Where the chaos bench measures *recovery speed* after a crash, this bench
checks the *safety* contract under network partitions.  Each scenario runs
the ingestion workload over a three-silo cluster whose third silo hosts one
tenant, splits that silo away from the system store (and, in two scenarios,
from the client) mid-run, heals the split, and then audits grain storage
against the client-side ack ledger:

- **netsplit** — the minority silo self-quarantines when its lease lapses,
  scram-flushes its dirty state and rejoins after the heal.  Invariants:
  every attempted insert eventually succeeds (availability 1.0), and every
  physical channel's stored window holds *exactly* the acked points — zero
  lost updates, zero duplicates, zero dual-writer commits.
- **zombie** — the negative control: self-quarantine disabled, the client
  left able to reach the minority silo.  The stale silo keeps serving its
  tenant after the majority re-placed it, so its flushes bounce off the
  storage fence floors (``storage.fenced_writes`` must be > 0), majority
  tenants stay exact, and the minority tenant's loss is bounded by the
  partition window instead of silent corruption.
- **crash** — the minority silo dies *during* the partition.  The per-silo
  redo journal (``repro.storage.wal``) must bound the loss of
  flush-on-deactivate actors to the configured ``redo_lag``
  (``wal.replayed_records`` > 0, per-channel deficit within the redo
  bound).

Every scenario runs across several seeds; the simulator is deterministic,
so the committed ``BENCH_partition.json`` reproduces bit for bit and the CI
gate replays the smoke sweep.  Invariant violations raise
:class:`~repro.bench.workload.InvariantError`, failing the run loudly.
"""

from __future__ import annotations

from ..errors import ReproError
from ..net.faults import PartitionInjector
from ..runtime.persistence import WritePolicy
from ..shm.platform import channel_id_for
from .baseline import GatedRun
from .chaos import CHAOS_CALL_DEADLINE, CHAOS_RETRY_POLICY
from .instances import M5_LARGE
from .workload import (
    Deployment,
    _require,
    build_deployment,
    class_attributes,
    drive_waves,
    one_point_batches,
    provision,
    use_short_leases,
)

#: Scenario timeline (virtual seconds, relative to the post-provision t0).
PARTITION_START = 6.0
PARTITION_END = 14.0
RUN_DURATION = 24.0
CRASH_AT = 7.0
LEASE_SECONDS = 2.0
REDO_LAG = 1.0

#: The silo split away from the system store; provisioning pins ``org-2``
#: (one third of the tenants) to it.
MINORITY_SILO = "silo-2"
MAJORITY_SILOS = ("silo-0", "silo-1")
MINORITY_ORG = "org-2"

#: Seed sweep: the acceptance bar is deterministic invariants across >= 2
#: seeds.
SEEDS = (101, 202, 303)

SCENARIOS = ("netsplit", "zombie", "crash")

#: Crash-scenario loss bound: the redo journal trails live state by at most
#: one ``redo_lag`` window, plus one wave in flight on either side.
REDO_DEFICIT_BOUND = 3


def run_partition_scenario(
    scenario: str, sensors: int, seed: int
) -> tuple[dict, tuple]:
    """Run one scenario at one seed; returns ``(metrics row, audit)``.

    ``audit`` is the argument tuple of :func:`_check_invariants`: the
    client-side ack ledger against the storage read-back, plus the
    membership and fencing counters the safety contract is stated in.

    All scenarios pin write-through durability on the Sensor (its dedup
    watermark must survive re-placement); channels keep the paper's
    flush-on-deactivate policy — the redo journal is what protects them —
    except the zombie scenario, which switches them to a short interval
    flush so the stale silo keeps writing (and getting fenced) after the
    majority moved on.
    """
    from ..shm.channel import PhysicalSensorChannel, VirtualSensorChannel
    from ..shm.sensor import Sensor

    if scenario not in SCENARIOS:
        raise ValueError(f"unknown partition scenario {scenario!r}")
    flushing = (
        (PhysicalSensorChannel, VirtualSensorChannel)
        if scenario == "zombie"
        else ()
    )
    with (
        class_attributes([Sensor], write_policy=WritePolicy.WRITE_THROUGH),
        class_attributes(
            flushing, write_policy=WritePolicy.INTERVAL, write_interval_seconds=0.5
        ),
    ):
        return _run(scenario, sensors, seed)


def build_netsplit_deployment(
    seed: int, quarantine: bool = True, tracing: bool = False
) -> Deployment:
    """Three silos on short-lease membership with the redo journal on.

    Shared with the incident bench, which attaches its observability stack
    between this and :func:`start_netsplit`.
    """
    deployment = build_deployment(
        [M5_LARGE, M5_LARGE, M5_LARGE],
        seed=seed,
        dedup_ingest=True,
        tracing=tracing,
    )
    use_short_leases(deployment, LEASE_SECONDS)
    runtime = deployment.runtime
    config = runtime.config
    config.default_call_deadline = CHAOS_CALL_DEADLINE
    config.default_retry_policy = CHAOS_RETRY_POLICY
    config.enable_failure_detection = True
    config.failure_detection_interval = 0.5
    config.suspicion_grace = 0.5
    config.quarantine_on_lease_loss = quarantine
    config.redo_lag = REDO_LAG
    runtime.enable_redo_journal()
    return deployment


def start_netsplit(
    deployment: Deployment, sensors: int, client_in_majority: bool = True
) -> float:
    """Provision, start the runtime and script the split; returns ``t0``.

    One third of the tenants land on :data:`MINORITY_SILO`, which is cut
    from the system store (and, with ``client_in_majority``, from the
    client) during ``[t0 + PARTITION_START, t0 + PARTITION_END)``.
    """
    scheduler = deployment.scheduler
    runtime = deployment.runtime
    scheduler.run_until_complete(
        provision(deployment, sensors, sensors_per_org=max(1, sensors // 3))
    )
    runtime.start()
    t0 = scheduler.now
    majority_group = {*MAJORITY_SILOS, "system-store"}
    if client_in_majority:
        majority_group.add("client")
    runtime.network.inject_partitions(
        PartitionInjector(
            [
                (
                    [majority_group, {MINORITY_SILO}],
                    t0 + PARTITION_START,
                    t0 + PARTITION_END,
                )
            ]
        )
    )
    return t0


def _run(scenario: str, sensors: int, seed: int) -> tuple[dict, tuple]:
    # The zombie scenario disables self-quarantine and leaves the client
    # able to reach the minority silo (that is what makes it a zombie: it
    # keeps serving and acking); the other two cut the client off with the
    # rest of the majority side.
    zombie = scenario == "zombie"
    deployment = build_netsplit_deployment(seed, quarantine=not zombie)
    scheduler = deployment.scheduler
    runtime = deployment.runtime
    platform = deployment.platform
    t0 = start_netsplit(deployment, sensors, client_in_majority=not zombie)

    sensor_ids = deployment.report.sensor_ids
    acked_waves = {sensor_id: 0 for sensor_id in sensor_ids}
    counters = {
        "attempted": 0,
        "succeeded": 0,
        "majority_attempted": 0,
        "majority_succeeded": 0,
    }
    errors_by_type: dict[str, int] = {}

    async def one_insert(sensor_id: str, wave_time: float) -> None:
        majority = not sensor_id.startswith(f"{MINORITY_ORG}/")
        counters["attempted"] += 1
        counters["majority_attempted"] += majority
        try:
            await platform.ingest(
                sensor_id, one_point_batches(sensor_id, wave_time)
            )
        except ReproError as exc:
            name = type(exc).__name__
            errors_by_type[name] = errors_by_type.get(name, 0) + 1
        else:
            counters["succeeded"] += 1
            counters["majority_succeeded"] += majority
            acked_waves[sensor_id] += 1

    async def crash() -> None:
        await scheduler.at(t0 + CRASH_AT)
        runtime.crash_silo(MINORITY_SILO, detected=False)

    async def drive() -> None:
        fleet = drive_waves(scheduler, sensor_ids, t0 + RUN_DURATION, one_insert)
        tasks = [scheduler.spawn(fleet, name="partition-fleet")]
        if scenario == "crash":
            tasks.append(scheduler.spawn(crash(), name="partition-crash"))
        await scheduler.gather(tasks)

    scheduler.run_until_complete(drive())
    stats = runtime.stats
    metrics = runtime.metrics.cluster_totals()
    scheduler.run_until_complete(runtime.stop())

    stored = scheduler.run_until_complete(
        _audit_storage(runtime, sensor_ids)
    )
    deficits = [
        acked_waves[sensor_id] - stored[channel_id_for(sensor_id, channel)]
        for sensor_id in sensor_ids
        for channel in (0, 1)
    ]
    row = {
        "majority_availability": round(
            _share(counters["majority_succeeded"], counters["majority_attempted"]),
            4,
        ),
        "max_deficit": max([0, *deficits]),
        "min_deficit": min([0, *deficits]),
        "sensors": sensors,
        "seed": seed,
        "scenario": scenario,
        "throughput_rps": round(counters["succeeded"] / RUN_DURATION, 2),
        "availability": round(
            _share(counters["succeeded"], counters["attempted"]), 4
        ),
        "attempted": counters["attempted"],
        "succeeded": counters["succeeded"],
        "errors": dict(sorted(errors_by_type.items())),
        "fenced_writes": int(metrics.get("storage.fenced_writes", 0.0)),
        "wal_replayed": int(metrics.get("wal.replayed_records", 0.0)),
        "wal_appends": int(metrics.get("wal.appends", 0.0)),
        "partitioned_messages": runtime.network.stats.partitioned_messages,
        "membership_epoch": runtime.system_store.epoch,
        "silos_quarantined": stats.silos_quarantined,
        "silos_rejoined": stats.silos_rejoined,
        "silos_evicted": stats.silos_evicted,
    }
    audit = (
        scenario,
        sensor_ids,
        acked_waves,
        stored,
        counters,
        stats,
        runtime.metrics.cluster_totals(),
        runtime.system_store.epoch,
    )
    return row, audit


def _share(succeeded: int, attempted: int) -> float:
    return succeeded / attempted if attempted else 0.0


async def _audit_storage(runtime, sensor_ids: list[str]) -> dict[str, int]:
    """Read back every physical channel's persisted window after the run.

    Also asserts the no-duplicates half of the lost-update invariant: a
    dual-writer commit or a failed dedup would show up as a repeated
    timestamp inside one window.
    """
    from ..storage.tsblocks import TieredSeries

    stored: dict[str, int] = {}
    for sensor_id in sensor_ids:
        for channel in (0, 1):
            channel_id = channel_id_for(sensor_id, channel)
            item = await runtime.grain_storage.try_get(
                f"state/PhysicalSensorChannel/{channel_id}"
            )
            tsdoc = (item.value or {}).get("tsdoc") if item else None
            window = (
                TieredSeries.from_document(tsdoc).all_pairs() if tsdoc else []
            )
            timestamps = [point[0] for point in window]
            _require(
                len(set(timestamps)) == len(timestamps),
                f"channel {channel_id}: duplicate timestamps persisted "
                "(dual-writer commit or dedup failure)",
            )
            stored[channel_id] = len(window)
    return stored


def _check_invariants(
    scenario: str,
    sensor_ids: list[str],
    acked_waves: dict[str, int],
    stored: dict[str, int],
    counters: dict[str, int],
    stats,
    metrics: dict,
    epoch: int,
) -> list[str]:
    """Assert one scenario run's safety contract on its audit."""
    zombie_bound = int(PARTITION_END - PARTITION_START) + 3
    for sensor_id in sensor_ids:
        minority = sensor_id.startswith(f"{MINORITY_ORG}/")
        for channel in (0, 1):
            channel_id = channel_id_for(sensor_id, channel)
            deficit = acked_waves[sensor_id] - stored[channel_id]
            if not minority or scenario == "netsplit":
                _require(
                    deficit == 0,
                    f"{scenario} channel {channel_id}: stored "
                    f"{stored[channel_id]} points but {acked_waves[sensor_id]} "
                    "waves were acked (lost update or phantom write)",
                )
            elif scenario == "zombie":
                _require(
                    -2 <= deficit <= zombie_bound,
                    f"zombie channel {channel_id}: deficit {deficit} outside "
                    f"the partition-window bound [-2, {zombie_bound}]",
                )
            else:  # crash: loss bounded by the redo lag
                _require(
                    abs(deficit) <= REDO_DEFICIT_BOUND,
                    f"crash channel {channel_id}: deficit {deficit} exceeds "
                    f"the redo-lag bound {REDO_DEFICIT_BOUND}",
                )
    majority_availability = _share(
        counters["majority_succeeded"], counters["majority_attempted"]
    )
    _require(
        majority_availability == 1.0,
        f"{scenario}: majority-side availability {majority_availability:.4f} "
        "< 1.0 (the partition must not take down the majority)",
    )
    availability = _share(counters["succeeded"], counters["attempted"])
    if scenario == "netsplit":
        _require(
            availability == 1.0,
            f"netsplit: availability {availability:.4f} < 1.0 "
            "(every insert must eventually succeed)",
        )
        _require(stats.silos_quarantined >= 1, "netsplit: no silo quarantined")
        _require(stats.silos_rejoined >= 1, "netsplit: no silo rejoined after heal")
        _require(stats.silos_evicted >= 1, "netsplit: majority never evicted")
    elif scenario == "zombie":
        _require(
            int(metrics.get("storage.fenced_writes", 0.0)) > 0,
            "zombie: no fenced writes — stale-writer rejection never fired",
        )
        _require(stats.silos_quarantined == 0, "zombie: quarantine was disabled")
        _require(stats.silos_rejoined >= 1, "zombie: silo never rejoined")
        _require(
            availability >= 0.6,
            f"zombie: availability {availability:.4f} collapsed below 0.6",
        )
    else:  # crash
        _require(
            int(metrics.get("wal.replayed_records", 0.0)) > 0,
            "crash: no redo-journal records replayed",
        )
        _require(stats.silos_evicted >= 1, "crash: dead silo never evicted")
        _require(
            availability >= 0.95,
            f"crash: availability {availability:.4f} below the 0.95 floor",
        )
    _require(
        epoch >= 4,
        f"{scenario}: membership epoch {epoch} never "
        "advanced through the view change",
    )
    return []


def check_partition(run: GatedRun) -> list[str]:
    """Every scenario x seed run kept its safety contract."""
    for audit in run.evidence:
        _check_invariants(*audit)
    return []


def build_partition(smoke: bool = False) -> GatedRun:
    """The ``BENCH_partition.json`` payload: every scenario x seed row.

    Micro-shaped (one row per ``scenario@seed`` variant) so the baseline
    gate compares throughput per variant.  The rows' audits ride along as
    evidence for :func:`check_partition`.
    """
    sensors = 12 if smoke else 36
    series: dict[str, dict] = {}
    audits: list[tuple] = []
    for scenario in SCENARIOS:
        for seed in SEEDS:
            row, audit = run_partition_scenario(scenario, sensors, seed)
            series[f"{scenario}@{seed}"] = row
            audits.append(audit)
    rows = list(series.values())
    payload = {
        "bench": "partition",
        "mode": "smoke" if smoke else "full",
        "title": "Partition tolerance: fenced epochs, quarantine and redo log",
        "series": series,
        "summary": {
            "scenarios": len(SCENARIOS),
            "seeds": len(SEEDS),
            "min_availability": min(row["availability"] for row in rows),
            "netsplit_availability": min(
                row["availability"]
                for row in rows
                if row["scenario"] == "netsplit"
            ),
            "fenced_writes": sum(
                row["fenced_writes"] for row in rows if row["scenario"] == "zombie"
            ),
            "wal_replayed": sum(
                row["wal_replayed"] for row in rows if row["scenario"] == "crash"
            ),
        },
    }
    return GatedRun(payload, evidence=audits)
