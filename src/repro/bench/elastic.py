"""The elasticity bench: a diurnal ramp served by an autoscaled cluster.

The paper's evaluation provisions each cluster *before* the run; this bench
measures what the elasticity subsystem (:mod:`repro.elastic`) buys when load
follows a day: quiet night, morning ramp, commute peak, evening taper, quiet
night.  Two clusters serve the identical workload:

- **autoscaled** — starts at one m5.large; an :class:`~repro.elastic.Autoscaler`
  adds silos from a pool when the mailbox-backlog SLO fires and gracefully
  drains idle silos at night, while a :class:`~repro.elastic.Rebalancer`
  migrates hot actors onto fresh capacity (new silos start empty — without
  migration they would idle while the original silo stays saturated);
- **static** — the peak-provisioned negative control: the full pool runs
  for the whole day, the classic over-provisioning cost.

Reported per variant: insert throughput and latency percentiles, migrations
performed, messages lost (**must be 0** — migration is lossless), p99 inside
migration-wave windows versus outside them, and silo-seconds (the simulated
bill).  The committed ``BENCH_elastic.json`` gates CI::

    python -m repro.bench elastic --smoke --check-baseline BENCH_elastic.json

:func:`check_elastic` states the acceptance invariants (zero lost, >=30%
silo-seconds reclaimed, wave p99 <= 2x steady p99) on every simulated day,
so a regression fails the bench even before the numeric comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..elastic import (
    Autoscaler,
    AutoscalerConfig,
    Rebalancer,
    RebalancerConfig,
    SiloSpec,
)
from ..obs.health import HealthMonitor, default_slo_rules
from ..runtime.resilience import RetryPolicy
from ..shm.platform import channel_id_for
from .baseline import GatedRun
from .instances import M5_LARGE
from .metrics import LatencyRecorder, percentile
from .workload import build_deployment, synth_value

#: Cluster-wide resilience for the bench: generous deadline, light retries.
#: Migration never needs them (raced messages wait at the drain barrier and
#: are forwarded), so with no fault injection every insert acks exactly once;
#: the policy is the safety net that turns any unexpected loss into a visible
#: error instead of a hang.
ELASTIC_RETRY_POLICY = RetryPolicy(
    max_attempts=6,
    base_delay=0.1,
    multiplier=2.0,
    max_delay=1.0,
    jitter=0.2,
    attempt_timeout=2.0,
)
ELASTIC_CALL_DEADLINE = 15.0

#: Mailbox depth that counts as "the cluster is falling behind".  At the
#: calibrated ~1.11 core-ms per insert, a 2-core silo more than ~15% over
#: saturation grows mailboxes past this within a second or two.
SCALE_UP_BACKLOG = 60.0

#: Half-width context before / after each migration for wave-p99 windows.
WAVE_BEFORE = 0.25
WAVE_AFTER = 1.0


@dataclass(frozen=True)
class ElasticConfig:
    """One diurnal run's parameters."""

    sensors: int = 48
    sensors_per_org: int = 16
    #: (duration_seconds, fraction_of_peak_rate) — the diurnal schedule.
    #: The ramp is graded so the CPU trigger adds capacity *between* steps,
    #: before any step saturates the current cluster — the whole point of
    #: preemptive autoscaling is that users never see the queueing knee.
    phases: tuple[tuple[float, float], ...] = (
        (8.0, 0.15),   # night
        (6.0, 0.40),   # early morning
        (6.0, 0.60),   # morning ramp (first scale-up fires here)
        (10.0, 1.0),   # commute peak (second scale-up)
        (6.0, 0.40),   # evening taper (drains begin)
        (12.0, 0.15),  # night again (back to one silo)
    )
    #: Per-sensor inserts/second at fraction 1.0.  48 sensors x 90 req/s =
    #: 4320 req/s at peak, ~2.9 core-s/s of measured fast-path demand —
    #: far past one m5.large (~2 core-s/s), comfortably inside three.
    peak_rate: float = 90.0
    points_per_channel: int = 2
    pool_size: int = 2
    seed: int = 17

    @property
    def duration(self) -> float:
        return sum(duration for duration, _ in self.phases)

    def rate_at(self, offset: float) -> float:
        """Per-sensor inserts/second at ``offset`` seconds into the day."""
        for duration, fraction in self.phases:
            if offset < duration:
                return self.peak_rate * fraction
            offset -= duration
        return self.peak_rate * self.phases[-1][1]


@dataclass
class VariantResult:
    """One cluster's day: load measurements plus elasticity accounting."""

    label: str
    throughput_rps: float = 0.0
    p50_ms: float = 0.0
    p99_ms: float = 0.0
    steady_p99_ms: float = 0.0
    wave_p99_ms: float = 0.0
    wave_samples: int = 0
    attempted: int = 0
    acked: int = 0
    lost: int = 0
    points_sent: int = 0
    points_acked: int = 0
    migrations: int = 0
    migration_failures: int = 0
    scale_ups: int = 0
    scale_downs: int = 0
    silos_drained: int = 0
    silo_seconds: float = 0.0
    peak_silos: int = 0
    scale_events: list = field(default_factory=list)

    def as_row(self) -> dict:
        return {
            "throughput_rps": round(self.throughput_rps, 2),
            "p50_ms": round(self.p50_ms, 2),
            "p99_ms": round(self.p99_ms, 2),
            "steady_p99_ms": round(self.steady_p99_ms, 2),
            "wave_p99_ms": round(self.wave_p99_ms, 2),
            "wave_samples": self.wave_samples,
            "attempted": self.attempted,
            "acked": self.acked,
            "lost": self.lost,
            "points_sent": self.points_sent,
            "points_acked": self.points_acked,
            "migrations": self.migrations,
            "migration_failures": self.migration_failures,
            "scale_ups": self.scale_ups,
            "scale_downs": self.scale_downs,
            "silos_drained": self.silos_drained,
            "silo_seconds": round(self.silo_seconds, 1),
            "peak_silos": self.peak_silos,
            "scale_events": self.scale_events,
        }


def _p99_ms(latencies: list[float]) -> float:
    if not latencies:
        return 0.0
    return percentile(sorted(latencies), 0.99) * 1000


def _run_variant(
    config: ElasticConfig, autoscaled: bool, seed: int
) -> VariantResult:
    """Serve one diurnal day on an autoscaled or static cluster."""
    n_static = 1 + config.pool_size
    silos = [M5_LARGE] if autoscaled else [M5_LARGE] * n_static
    deployment = build_deployment(
        silos,
        seed=seed,
        profiling=autoscaled,  # rebalancer candidate ranking
        placement_fallback="power_of_two",
    )
    runtime = deployment.runtime
    scheduler = deployment.scheduler
    runtime.config.default_call_deadline = ELASTIC_CALL_DEADLINE
    runtime.config.default_retry_policy = ELASTIC_RETRY_POLICY

    # Provision the SHM structure directly — *without* the figure runs'
    # org-to-silo pinning: placement must stay free here, or the rebalancer
    # and drain migrations would have nothing movable (pins are immovable
    # by design).
    report = scheduler.run_until_complete(
        deployment.platform.provision(
            config.sensors, sensors_per_org=config.sensors_per_org
        )
    )
    for silo in runtime.silos():
        silo.cpu.reset_accounting()
    runtime.profiler.clear()

    rebalancer = autoscaler = monitor = None
    if autoscaled:
        monitor = HealthMonitor(
            runtime.metrics,
            default_slo_rules(max_backlog=SCALE_UP_BACKLOG),
        )
        monitor.attach(scheduler, interval=0.5)
        rebalancer = Rebalancer(
            runtime,
            RebalancerConfig(
                interval=0.5,
                imbalance_threshold=1.6,
                hysteresis_cycles=2,
                migration_budget=16,
            ),
        )
        rebalancer.attach(scheduler)
        pool = [SiloSpec(f"scale-{i}", cores=M5_LARGE.cores, speed=M5_LARGE.speed,
                         instance_type=M5_LARGE.name)
                for i in range(config.pool_size)]
        autoscaler = Autoscaler(
            runtime,
            monitor,
            pool,
            AutoscalerConfig(
                interval=0.5,
                min_silos=1,
                max_silos=n_static,
                scale_up_rules=("mailbox-backlog",),
                scale_up_utilization=0.70,
                scale_up_cycles=2,
                scale_down_utilization=0.30,
                scale_down_cycles=4,
                cooldown_seconds=3.0,
            ),
        )
        autoscaler.attach(scheduler)

    recorder = LatencyRecorder()
    result = VariantResult(label="autoscaled" if autoscaled else "static")
    sensor_ids = report.sensor_ids
    start = scheduler.now
    stop = start + config.duration
    points_per_insert = 2 * config.points_per_channel

    async def sensor_loop(sensor_id: str) -> None:
        while scheduler.now < stop:
            now = scheduler.now
            rate = config.rate_at(now - start)
            interval = 1.0 / rate
            batches = {
                channel_id_for(sensor_id, channel): [
                    (now + i * 0.01, synth_value(channel, now + i * 0.01))
                    for i in range(config.points_per_channel)
                ]
                for channel in (0, 1)
            }
            result.attempted += 1
            result.points_sent += points_per_insert
            try:
                accepted = await deployment.platform.ingest(sensor_id, batches)
            except Exception:
                result.lost += 1
            else:
                result.acked += 1
                result.points_acked += int(accepted)
                recorder.record("insert", now, scheduler.now - now)
            next_at = now + interval
            if scheduler.now < next_at:
                await scheduler.sleep(next_at - scheduler.now)

    peak_silos = [len([s for s in runtime.silos() if not s.crashed and not s.stopping])]

    async def watch_peak() -> None:
        while scheduler.now < stop:
            await scheduler.sleep(1.0)
            live = len(
                [s for s in runtime.silos() if not s.crashed and not s.stopping]
            )
            peak_silos[0] = max(peak_silos[0], live)

    async def day() -> None:
        tasks = [
            scheduler.spawn(sensor_loop(sensor_id), name=f"sensor:{sensor_id}")
            for sensor_id in sensor_ids
        ]
        tasks.append(scheduler.spawn(watch_peak(), name="peak-watch"))
        await scheduler.gather(tasks)

    scheduler.run_until_complete(day())
    if autoscaled:
        rebalancer.detach()
        autoscaler.detach()
        monitor.detach()

    # -- reduce ----------------------------------------------------------------
    records = recorder.records("insert")
    latencies = [r.latency for r in records]
    result.throughput_rps = result.acked / config.duration
    if latencies:
        ordered = sorted(latencies)
        result.p50_ms = percentile(ordered, 0.50) * 1000
        result.p99_ms = percentile(ordered, 0.99) * 1000
    # Migration-wave windows: context around every rebalancer migration and
    # every scaling action (scale-down windows cover the drain's migrations).
    wave_times: list[float] = []
    if rebalancer is not None:
        wave_times.extend(event.at for event in rebalancer.events)
    if autoscaler is not None:
        wave_times.extend(event.at for event in autoscaler.events)
        result.scale_ups = autoscaler.scale_ups
        result.scale_downs = autoscaler.scale_downs
        result.silo_seconds = autoscaler.silo_seconds
        result.scale_events = [
            {
                "at": round(event.at, 2),
                "direction": event.direction,
                "silo": event.silo_id,
                "reason": event.reason,
                "migrated": event.migrated,
            }
            for event in autoscaler.events
        ]
    else:
        result.silo_seconds = n_static * config.duration
    windows = [(t - WAVE_BEFORE, t + WAVE_AFTER) for t in sorted(wave_times)]

    def in_wave(at: float) -> bool:
        return any(lo <= at <= hi for lo, hi in windows)

    wave = [r.latency for r in records if in_wave(r.completed_at)]
    steady = [r.latency for r in records if not in_wave(r.completed_at)]
    result.wave_samples = len(wave)
    result.wave_p99_ms = _p99_ms(wave)
    result.steady_p99_ms = _p99_ms(steady)
    result.migrations = runtime.stats.migrations
    result.migration_failures = runtime.stats.migration_failures
    result.silos_drained = runtime.stats.silos_drained
    result.peak_silos = peak_silos[0]
    return result


def _check_invariants(
    auto: VariantResult, static: VariantResult, seed: int
) -> tuple[dict, list[str]]:
    """One day's summary row, and the acceptance invariants it violates."""
    problems: list[str] = []
    for variant in (auto, static):
        if variant.lost != 0:
            problems.append(f"{variant.label}: lost {variant.lost} messages")
        # Every ack must carry the full per-insert point count; a mismatch
        # means a channel dropped (or duplicated) points in flight.
        expected = variant.acked * (
            variant.points_sent // max(1, variant.attempted)
        )
        if variant.points_acked != expected:
            problems.append(
                f"{variant.label}: acked points {variant.points_acked} "
                f"!= expected {expected}"
            )
    savings = 1.0 - auto.silo_seconds / max(1e-9, static.silo_seconds)
    if savings < 0.30:
        problems.append(
            f"silo-seconds savings {savings:.0%} below the 30% floor "
            f"({auto.silo_seconds:.0f} vs {static.silo_seconds:.0f})"
        )
    if auto.migrations < 1:
        problems.append("no migrations performed — elasticity never engaged")
    if auto.scale_ups < 1 or auto.scale_downs < 1:
        problems.append(
            f"autoscaler did not ramp both ways "
            f"(ups={auto.scale_ups}, downs={auto.scale_downs})"
        )
    if auto.wave_samples and auto.steady_p99_ms > 0:
        inflation = auto.wave_p99_ms / auto.steady_p99_ms
        if inflation > 2.0:
            problems.append(
                f"migration-wave p99 {auto.wave_p99_ms:.1f} ms is "
                f"{inflation:.2f}x steady-state {auto.steady_p99_ms:.1f} ms "
                f"(bound: 2x)"
            )
    else:
        inflation = 1.0
    summary = {
        "seed": seed,
        "silo_seconds_savings": round(savings, 3),
        "wave_p99_inflation": round(inflation, 3),
        "migrations": auto.migrations,
        "scale_ups": auto.scale_ups,
        "scale_downs": auto.scale_downs,
        "lost": auto.lost + static.lost,
    }
    return summary, [f"seed {seed}: {problem}" for problem in problems]


def check_elastic(run: GatedRun) -> list[str]:
    """The acceptance invariants hold on every day the run simulated."""
    return [
        problem for day in run.evidence for problem in _check_invariants(*day)[1]
    ]


def run_elastic_experiment(
    config: ElasticConfig | None = None, seed: int | None = None
) -> tuple[VariantResult, VariantResult, int]:
    """One diurnal day, autoscaled vs static; returns (auto, static, seed)."""
    config = config or ElasticConfig()
    seed = config.seed if seed is None else seed
    auto = _run_variant(config, autoscaled=True, seed=seed)
    static = _run_variant(config, autoscaled=False, seed=seed)
    return auto, static, seed


SMOKE_CONFIG = ElasticConfig(
    phases=(
        (5.0, 0.15),
        (4.0, 0.40),
        (4.0, 0.60),
        (6.0, 1.0),
        (4.0, 0.40),
        (8.0, 0.15),
    ),
)

#: Full mode replays the day under a second seed to demonstrate the
#: "deterministic across seeds" acceptance criterion: the invariants hold
#: for any seed, not one lucky draw.
EXTRA_SEEDS = (23,)


def build_elastic(smoke: bool = False) -> GatedRun:
    """The BENCH payload: autoscaled vs static, every day kept as evidence."""
    config = SMOKE_CONFIG if smoke else ElasticConfig()
    days = [run_elastic_experiment(config)]
    if not smoke:
        days += [run_elastic_experiment(config, seed=seed) for seed in EXTRA_SEEDS]
    auto, static, _ = days[0]
    all_checks = [_check_invariants(*day)[0] for day in days]
    checks = all_checks[0]
    payload = {
        "bench": "elastic",
        "mode": "smoke" if smoke else "full",
        "title": (
            "Diurnal ramp: autoscaled cluster vs static peak provisioning"
        ),
        "series": {"autoscaled": auto.as_row(), "static": static.as_row()},
        "summary": {
            "silo_seconds_savings": checks["silo_seconds_savings"],
            "wave_p99_inflation": checks["wave_p99_inflation"],
            "migrations": auto.migrations,
            "scale_ups": auto.scale_ups,
            "scale_downs": auto.scale_downs,
            "messages_lost": auto.lost + static.lost,
            "seeds_checked": [row["seed"] for row in all_checks],
        },
        "checks": all_checks,
    }
    return GatedRun(payload, evidence=days)
