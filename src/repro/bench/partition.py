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
:class:`PartitionInvariantError`, failing the run loudly.
"""

from __future__ import annotations

from ..errors import ReproError
from ..net.faults import PartitionInjector
from ..runtime.persistence import WritePolicy
from ..storage.system_store import SystemStore
from .chaos import CHAOS_CALL_DEADLINE, CHAOS_RETRY_POLICY
from .instances import M5_LARGE
from .workload import Deployment, build_deployment, provision, synth_value

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
#: seeds; full mode adds a third.
FULL_SEEDS = (101, 202, 303)
SMOKE_SEEDS = (101, 202, 303)

SCENARIOS = ("netsplit", "zombie", "crash")

#: Crash-scenario loss bound: the redo journal trails live state by at most
#: one ``redo_lag`` window, plus one wave in flight on either side.
REDO_DEFICIT_BOUND = 3


class PartitionInvariantError(RuntimeError):
    """A partition-tolerance safety invariant was violated."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise PartitionInvariantError(message)


def run_partition_scenario(scenario: str, sensors: int, seed: int) -> dict:
    """Run one scenario at one seed and return its audited metrics row.

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
    saved = [
        (cls, cls.write_policy, cls.write_interval_seconds)
        for cls in (Sensor, PhysicalSensorChannel, VirtualSensorChannel)
    ]
    Sensor.write_policy = WritePolicy.WRITE_THROUGH
    if scenario == "zombie":
        for cls in (PhysicalSensorChannel, VirtualSensorChannel):
            cls.write_policy = WritePolicy.INTERVAL
            cls.write_interval_seconds = 0.5
    try:
        return _run(scenario, sensors, seed)
    finally:
        for cls, policy, interval in saved:
            cls.write_policy = policy
            cls.write_interval_seconds = interval


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
    scheduler = deployment.scheduler
    runtime = deployment.runtime

    # Short-lease membership (the chaos-bench pattern): swap the system
    # store before provisioning so fences and leases come from it.
    system_store = SystemStore(scheduler, lease_seconds=LEASE_SECONDS)
    runtime.system_store = system_store
    for silo in runtime.silos():
        system_store.announce(silo.silo_id, instance_type=silo.instance_type)
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


def _run(scenario: str, sensors: int, seed: int) -> dict:
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

    from ..shm.platform import channel_id_for

    async def one_insert(sensor_id: str, wave_time: float) -> None:
        batches = {
            channel_id_for(sensor_id, channel): [
                (wave_time, synth_value(channel, wave_time))
            ]
            for channel in (0, 1)
        }
        majority = not sensor_id.startswith(f"{MINORITY_ORG}/")
        counters["attempted"] += 1
        counters["majority_attempted"] += majority
        try:
            await platform.ingest(sensor_id, batches)
        except ReproError as exc:
            name = type(exc).__name__
            errors_by_type[name] = errors_by_type.get(name, 0) + 1
        else:
            counters["succeeded"] += 1
            counters["majority_succeeded"] += majority
            acked_waves[sensor_id] += 1

    async def fleet() -> None:
        stop = t0 + RUN_DURATION
        while scheduler.now < stop:
            wave_time = scheduler.now
            tasks = [
                scheduler.spawn(one_insert(sensor_id, wave_time))
                for sensor_id in sensor_ids
            ]
            await scheduler.gather(tasks)
            next_wave = wave_time + 1.0
            if scheduler.now < next_wave:
                await scheduler.sleep(next_wave - scheduler.now)

    async def crash() -> None:
        await scheduler.at(t0 + CRASH_AT)
        runtime.crash_silo(MINORITY_SILO, detected=False)

    async def drive() -> None:
        tasks = [scheduler.spawn(fleet(), name="partition-fleet")]
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
    row = _check_invariants(
        scenario, sensor_ids, acked_waves, stored, counters, stats, runtime
    )
    availability = (
        counters["succeeded"] / counters["attempted"] if counters["attempted"] else 0.0
    )
    row.update(
        {
            "sensors": sensors,
            "seed": seed,
            "scenario": scenario,
            "throughput_rps": round(counters["succeeded"] / RUN_DURATION, 2),
            "availability": round(availability, 4),
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
    )
    return row


async def _audit_storage(runtime, sensor_ids: list[str]) -> dict[str, int]:
    """Read back every physical channel's persisted window after the run.

    Also asserts the no-duplicates half of the lost-update invariant: a
    dual-writer commit or a failed dedup would show up as a repeated
    timestamp inside one window.
    """
    from ..shm.platform import channel_id_for
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
    runtime,
) -> dict:
    """Assert the per-scenario safety contract; return audit aggregates."""
    from ..shm.platform import channel_id_for

    max_deficit = 0
    min_deficit = 0
    zombie_bound = int(PARTITION_END - PARTITION_START) + 3
    for sensor_id in sensor_ids:
        minority = sensor_id.startswith(f"{MINORITY_ORG}/")
        for channel in (0, 1):
            channel_id = channel_id_for(sensor_id, channel)
            deficit = acked_waves[sensor_id] - stored[channel_id]
            max_deficit = max(max_deficit, deficit)
            min_deficit = min(min_deficit, deficit)
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
    majority_availability = (
        counters["majority_succeeded"] / counters["majority_attempted"]
        if counters["majority_attempted"]
        else 0.0
    )
    _require(
        majority_availability == 1.0,
        f"{scenario}: majority-side availability {majority_availability:.4f} "
        "< 1.0 (the partition must not take down the majority)",
    )
    availability = (
        counters["succeeded"] / counters["attempted"] if counters["attempted"] else 0.0
    )
    metrics = runtime.metrics.cluster_totals()
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
        runtime.system_store.epoch >= 4,
        f"{scenario}: membership epoch {runtime.system_store.epoch} never "
        "advanced through the view change",
    )
    return {
        "majority_availability": round(majority_availability, 4),
        "max_deficit": max_deficit,
        "min_deficit": min_deficit,
    }


def build_partition(smoke: bool = False) -> dict:
    """The ``BENCH_partition.json`` payload: every scenario x seed row.

    Micro-shaped (one row per ``scenario@seed`` variant) so the baseline
    gate compares throughput per variant.  Raises
    :class:`PartitionInvariantError` on any safety violation, so both the
    baseline writer and the CI gate fail loudly.
    """
    sensors = 12 if smoke else 36
    seeds = SMOKE_SEEDS if smoke else FULL_SEEDS
    series: dict[str, dict] = {}
    for scenario in SCENARIOS:
        for seed in seeds:
            series[f"{scenario}@{seed}"] = run_partition_scenario(
                scenario, sensors, seed
            )
    rows = list(series.values())
    return {
        "bench": "partition",
        "mode": "smoke" if smoke else "full",
        "title": "Partition tolerance: fenced epochs, quarantine and redo log",
        "series": series,
        "summary": {
            "scenarios": len(SCENARIOS),
            "seeds": len(seeds),
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
