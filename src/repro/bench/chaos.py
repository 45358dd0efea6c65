"""Chaos-recovery experiment: goodput under a mid-run silo crash.

The paper's resilience claim (§5) is qualitative: virtual actors re-place
after a server failure and the platform keeps ingesting.  This driver makes
it quantitative.  It runs the Figure-7 ingestion workload over a two-silo
cluster, silently crashes one silo mid-run (the zombie mode of
:meth:`~repro.runtime.runtime.AodbRuntime.crash_silo`), optionally injects
network loss/duplication, and reports per-second goodput, availability and
recovery time.

Two configurations matter:

- **resilience on** — call deadlines + retry policies mask the outage and
  the failure detector evicts the dead silo, so every insert eventually
  succeeds and goodput recovers to the pre-crash level;
- **resilience off** (negative control) — callers see raw
  :class:`~repro.errors.SiloUnavailableError` until the membership lease
  lapses, so availability visibly drops.

Everything runs in virtual time from seeded RNG streams: same seed, same
series, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ReproError
from ..net.faults import NetworkFaultInjector
from ..runtime.persistence import WritePolicy
from ..runtime.resilience import RetryPolicy
from .instances import M5_XLARGE
from .workload import (
    Deployment,
    build_deployment,
    class_attributes,
    drive_waves,
    one_point_batches,
    provision,
    use_short_leases,
    violated,
)

#: Retry policy the positive control applies cluster-wide.  Minimum total
#: backoff (jitter at its floor) comfortably spans the membership lease, so
#: retries outlast the zombie window even in the worst case.
CHAOS_RETRY_POLICY = RetryPolicy(
    max_attempts=10,
    base_delay=0.1,
    multiplier=2.0,
    max_delay=1.0,
    jitter=0.2,
    attempt_timeout=0.5,
)

#: Overall call deadline (virtual seconds) for the positive control.
CHAOS_CALL_DEADLINE = 15.0


@dataclass
class ChaosConfig:
    """Parameters of one chaos-recovery run."""

    sensors: int = 200
    sensors_per_org: int = 100
    duration: float = 20.0
    crash_at: float = 6.0
    crash_silo: str = "silo-1"
    lease_seconds: float = 2.0
    resilience: bool = True
    loss_rate: float = 0.0
    duplication_rate: float = 0.0
    fault_window: float = 6.0  # seconds of net chaos starting at crash_at
    seed: int = 75
    recovery_threshold: float = 0.9

    def validate(self) -> None:
        if not 0.0 < self.crash_at < self.duration:
            raise ValueError("crash_at must fall inside the run")
        if not 0.0 < self.recovery_threshold <= 1.0:
            raise ValueError("recovery_threshold must be in (0, 1]")


@dataclass
class ChaosResult:
    """Everything the chaos bench reports for one run."""

    config: ChaosConfig
    goodput: list[int] = field(default_factory=list)  # successes per second
    attempted: int = 0
    succeeded: int = 0
    failed: int = 0
    errors_by_type: dict[str, int] = field(default_factory=dict)
    pre_crash_throughput: float = 0.0
    recovery_seconds: float | None = None
    calls_retried: int = 0
    deadlines_exceeded: int = 0
    silos_evicted: int = 0
    activations_replaced: int = 0
    activations_crashed: int = 0
    lost_messages: int = 0
    duplicated_messages: int = 0

    @property
    def availability(self) -> float:
        """Fraction of attempted inserts that eventually succeeded."""
        return self.succeeded / self.attempted if self.attempted else 0.0

    @property
    def steady_state_goodput(self) -> float:
        """Mean goodput over the final three seconds of the run."""
        tail = self.goodput[-3:]
        return sum(tail) / len(tail) if tail else 0.0

    @property
    def recovered(self) -> bool:
        return self.recovery_seconds is not None


def run_chaos_recovery(config: ChaosConfig | None = None) -> ChaosResult:
    """Run the Fig-7 ingestion workload through a scripted silo crash.

    Both controls run with write-through durability (rather than the
    benchmarks' flush-on-shutdown default): crash recovery is only
    meaningful when there is persisted state for the re-placed activations
    to recover, which is the paper's §5 resilience story.
    """
    from ..shm.channel import PhysicalSensorChannel, VirtualSensorChannel
    from ..shm.organization import Organization
    from ..shm.sensor import Sensor

    config = config or ChaosConfig()
    config.validate()
    durable_types = (Sensor, PhysicalSensorChannel, VirtualSensorChannel, Organization)
    with class_attributes(durable_types, write_policy=WritePolicy.WRITE_THROUGH):
        return _run(config)


def _run(config: ChaosConfig) -> ChaosResult:
    deployment = _build(config)
    scheduler = deployment.scheduler
    runtime = deployment.runtime
    platform = deployment.platform
    scheduler.run_until_complete(
        provision(deployment, config.sensors, config.sensors_per_org)
    )
    runtime.start()

    if config.loss_rate > 0 or config.duplication_rate > 0:
        runtime.network.inject_faults(
            NetworkFaultInjector(
                deployment.rng.stream("chaos-net"),
                loss_rate=config.loss_rate,
                duplication_rate=config.duplication_rate,
                start=config.crash_at,
                end=config.crash_at + config.fault_window,
            )
        )

    result = ChaosResult(config=config)
    buckets = [0] * int(config.duration)
    sensor_ids = deployment.report.sensor_ids

    async def one_insert(sensor_id: str, wave_time: float) -> None:
        result.attempted += 1
        try:
            await platform.ingest(
                sensor_id, one_point_batches(sensor_id, wave_time)
            )
        except ReproError as exc:
            result.failed += 1
            name = type(exc).__name__
            result.errors_by_type[name] = result.errors_by_type.get(name, 0) + 1
        else:
            result.succeeded += 1
            second = int(scheduler.now)
            if second < len(buckets):
                buckets[second] += 1

    async def crash() -> None:
        await scheduler.at(config.crash_at)
        runtime.crash_silo(config.crash_silo, detected=False)

    async def drive() -> None:
        crash_task = scheduler.spawn(crash(), name="chaos-crash")
        await drive_waves(scheduler, sensor_ids, config.duration, one_insert)
        await crash_task

    scheduler.run_until_complete(drive())

    result.goodput = buckets
    pre = buckets[1 : int(config.crash_at)]
    result.pre_crash_throughput = sum(pre) / len(pre) if pre else 0.0
    floor = config.recovery_threshold * result.pre_crash_throughput
    for second in range(int(config.crash_at), len(buckets)):
        if buckets[second] >= floor:
            result.recovery_seconds = second + 1 - config.crash_at
            break
    stats = runtime.stats
    result.calls_retried = stats.calls_retried
    result.deadlines_exceeded = stats.deadlines_exceeded
    result.silos_evicted = stats.silos_evicted
    result.activations_replaced = stats.activations_replaced
    result.activations_crashed = stats.activations_crashed
    result.lost_messages = runtime.network.stats.lost_messages
    result.duplicated_messages = runtime.network.stats.duplicated_messages
    return result


def _build(config: ChaosConfig) -> Deployment:
    deployment = build_deployment([M5_XLARGE, M5_XLARGE], seed=config.seed)
    use_short_leases(deployment, config.lease_seconds)
    runtime = deployment.runtime
    if config.resilience:
        runtime.config.default_call_deadline = CHAOS_CALL_DEADLINE
        runtime.config.default_retry_policy = CHAOS_RETRY_POLICY
        runtime.config.failure_detection_interval = 0.5
        runtime.config.suspicion_grace = 0.5
    else:
        runtime.config.failure_detection_interval = None
    return deployment


def run_chaos_experiment(
    sensors: int = 200,
    duration: float = 20.0,
    crash_at: float = 6.0,
    lease_seconds: float = 2.0,
    fault_window: float = 6.0,
    loss_rate: float = 0.003,
    duplication_rate: float = 0.003,
) -> tuple[ChaosResult, ChaosResult, ChaosResult]:
    """``(on, off, replay)``: both controls, and the first one run again
    for :func:`check_chaos`'s same-seed-same-run claim."""
    common = dict(
        sensors=sensors,
        sensors_per_org=max(1, sensors // 2),
        duration=duration,
        crash_at=crash_at,
        lease_seconds=lease_seconds,
        fault_window=fault_window,
    )
    resilient = ChaosConfig(
        resilience=True,
        loss_rate=loss_rate,
        duplication_rate=duplication_rate,
        **common,
    )
    on = run_chaos_recovery(resilient)
    off = run_chaos_recovery(ChaosConfig(resilience=False, **common))
    return on, off, run_chaos_recovery(resilient)


RECOVERY_BOUND_SECONDS = 5.0


def check_chaos(result: tuple[ChaosResult, ChaosResult, ChaosResult]) -> list[str]:
    """The §5 resilience claim, as claims about ``(on, off, replay)``."""
    on, off, replay = result
    return violated({
        # Every insert eventually succeeded: retries absorbed the outage and
        # the packet loss; no SiloUnavailableError reached the workload.
        "resilience on: no insert fails": on.failed == 0,
        "resilience on: availability is 1.0": on.availability == 1.0,
        "resilience on: no SiloUnavailableError reaches a caller": (
            "SiloUnavailableError" not in on.errors_by_type
        ),
        "resilience on: calls were retried": on.calls_retried > 0,
        # Goodput recovers within the bound.
        f"goodput recovers within {RECOVERY_BOUND_SECONDS:g} s of the crash": (
            on.recovered and on.recovery_seconds <= RECOVERY_BOUND_SECONDS
        ),
        "steady-state goodput is back above 90% of the pre-crash level": (
            on.steady_state_goodput >= 0.9 * on.pre_crash_throughput
        ),
        # The failure detector repairs the cluster.
        "exactly the crashed silo is evicted": on.silos_evicted == 1,
        "the crashed silo hosted activations": on.activations_crashed > 0,
        # The negative control shows the outage.
        "resilience off: inserts fail": off.failed > 0,
        "resilience off: SiloUnavailableError surfaces": (
            off.errors_by_type.get("SiloUnavailableError", 0) > 0
        ),
        "resilience off: availability drops below 1.0": off.availability < 1.0,
        "resilience off: nothing is retried, nobody is evicted": (
            off.calls_retried == 0 and off.silos_evicted == 0
        ),
        # Same seed, same run, bit for bit.
        **{
            f"the replay reproduces {name}": getattr(on, name) == getattr(replay, name)
            for name in (
                "goodput", "calls_retried", "deadlines_exceeded", "lost_messages"
            )
        },
    })


def format_chaos_report(on: ChaosResult, off: ChaosResult | None = None) -> str:
    """Render one (or a pair of) chaos runs as a text report."""
    lines = ["chaos recovery (mid-run silent silo crash)", ""]
    for label, run in (("resilience on", on), ("resilience off", off)):
        if run is None:
            continue
        cfg = run.config
        lines += [
            f"[{label}] sensors={cfg.sensors} crash_at={cfg.crash_at:g}s "
            f"lease={cfg.lease_seconds:g}s seed={cfg.seed}",
            f"  availability        {run.availability:8.4f} "
            f"({run.succeeded}/{run.attempted}, {run.failed} failed)",
            f"  pre-crash goodput   {run.pre_crash_throughput:8.1f} inserts/s",
            f"  steady-state tail   {run.steady_state_goodput:8.1f} inserts/s",
            f"  recovery time       "
            + (
                f"{run.recovery_seconds:8.1f} s"
                if run.recovery_seconds is not None
                else "   never"
            ),
            f"  retries={run.calls_retried} deadlines={run.deadlines_exceeded} "
            f"evicted={run.silos_evicted} replaced={run.activations_replaced} "
            f"lost={run.lost_messages} dup={run.duplicated_messages}",
            f"  errors: {run.errors_by_type or '{}'}",
            "",
        ]
    return "\n".join(lines)
