"""The materialized-views bench: dashboard reads at insert scale.

The paper's workload is 98% inserts — its query figures (8/9) show the mix
degrading as soon as readers join the writers, because every pull-based
read fans out to live actors.  This bench replays that mix at high user
counts against the incremental view layer (:mod:`repro.aodb.views`) and
measures what standing queries buy:

- **materialized** — the strain aggregate, windowed rollup and top-K views
  are registered before load; every dashboard read is one ask to the
  owning view shard while inserts stream deltas through the coalescer;
- **pull** — the negative control: the identical insert load and reader
  fleet, but every read is a ``view_sample`` fan-out over the sensor
  extent folded client-side (the same algebra, so results match).

After the timed phase both variants run a quiesced *read-cost probe*
(asks per one-group read, measured from the runtime's ask counter) and
:func:`check_views` states the acceptance invariants:

- materialized read cost is O(groups asked) — ~1 ask per group, at least
  10x cheaper than the pull scan at the bench's sensor count;
- exactly-once folding: view totals equal the points the sensors accepted
  — in the steady run *and* in a chaos-seeded run with message loss and
  duplication (dedup ingest + retries + watermark folds);
- staleness p99 stays under the registered bound and the
  ``view-staleness`` SLO rule never fires in the steady phase.

The committed ``BENCH_views.json`` gates CI::

    python -m repro.bench views --smoke --check-baseline BENCH_views.json
"""

from __future__ import annotations

from dataclasses import dataclass

from ..aodb.views import ViewDef
from ..net.faults import NetworkFaultInjector
from ..obs.health import HealthMonitor, default_slo_rules
from ..runtime.resilience import RetryPolicy
from ..shm.platform import channel_id_for
from .baseline import GatedRun
from .instances import M5_LARGE
from .metrics import percentile
from .workload import build_deployment, provision, synth_value

#: Resilience for the chaos phase: lost flushes and lost inserts must
#: surface as retries (idempotent by watermark), never as hangs.
VIEWS_RETRY_POLICY = RetryPolicy(
    max_attempts=6,
    base_delay=0.05,
    multiplier=2.0,
    max_delay=0.5,
    jitter=0.2,
    attempt_timeout=1.0,
)
VIEWS_CALL_DEADLINE = 10.0

#: Acceptance floor: a materialized read must be at least this many times
#: cheaper (in asks) than the pull-based scan it replaces.
READ_COST_FLOOR = 10.0


@dataclass(frozen=True)
class ViewsConfig:
    """One mixed insert+read run's parameters."""

    sensors: int = 120
    sensors_per_org: int = 20
    silos: int = 2
    duration: float = 6.0
    #: Closed-loop inserts per sensor per second.
    insert_rate: float = 20.0
    points_per_channel: int = 2
    #: Dashboard users, each reading one group's aggregate per interval —
    #: the "millions of users also want to read" pressure, scaled to sim.
    readers: int = 48
    read_interval: float = 0.25
    #: The views' registered freshness contract (seconds).
    staleness_bound: float = 0.25
    seed: int = 29

    @property
    def orgs(self) -> int:
        return (self.sensors + self.sensors_per_org - 1) // self.sensors_per_org


@dataclass(frozen=True)
class ChaosConfig:
    """The chaos-seeded exactly-once run (materialized only)."""

    sensors: int = 24
    sensors_per_org: int = 12
    duration: float = 4.0
    insert_rate: float = 10.0
    points_per_channel: int = 2
    loss_rate: float = 0.01
    duplication_rate: float = 0.08
    fault_start: float = 0.5
    seed: int = 31


def _view_defs(config: ViewsConfig) -> list[ViewDef]:
    """The three standing queries the issue names, grouped by tenant."""
    return [
        ViewDef(
            name="strain-by-org",
            source="Sensor",
            group_by="org_id",
            kind="aggregate",
            staleness_bound=config.staleness_bound,
        ),
        ViewDef(
            name="rollup-by-org",
            source="Sensor",
            group_by="org_id",
            kind="window",
            window_seconds=1.0,
            max_buckets=8,
            staleness_bound=config.staleness_bound,
        ),
        ViewDef(
            name="hottest-sensors",
            source="Sensor",
            group_by="org_id",
            kind="topk",
            k=5,
            rank_by="mean",
            staleness_bound=config.staleness_bound,
        ),
    ]


def _run_variant(config: ViewsConfig, materialized: bool) -> dict:
    """One mixed run; returns the metrics row plus raw invariant inputs."""
    deployment = build_deployment(
        [M5_LARGE] * config.silos, seed=config.seed
    )
    scheduler = deployment.scheduler
    runtime = deployment.runtime
    database = deployment.database
    scheduler.run_until_complete(
        provision(deployment, config.sensors, config.sensors_per_org)
    )
    org_ids = [f"org-{i}" for i in range(config.orgs)]
    monitor = None
    if materialized:
        for definition in _view_defs(config):
            database.register_view(definition)
        monitor = HealthMonitor(
            runtime.metrics,
            default_slo_rules(max_view_staleness=config.staleness_bound),
        )
        monitor.attach(scheduler, interval=0.1)
        read_handle = database.view("strain-by-org")
    else:
        read_handle = database.view(
            "strain-by-org", source="Sensor", group_by="org_id"
        )

    reader_rng = deployment.rng.stream("view-readers")
    sensor_ids = deployment.report.sensor_ids
    counters = {"attempted": 0, "points_acked": 0, "reads": 0}
    read_latencies: list[float] = []
    insert_latencies: list[float] = []
    staleness_samples: list[float] = []
    start = scheduler.now
    stop = start + config.duration

    async def sensor_loop(sensor_id: str) -> None:
        interval = 1.0 / config.insert_rate
        channels = (channel_id_for(sensor_id, 0), channel_id_for(sensor_id, 1))
        while scheduler.now < stop:
            now = scheduler.now
            batches = {
                channels[ch]: [
                    (now + i * 0.001, synth_value(ch, now + i * 0.001))
                    for i in range(config.points_per_channel)
                ]
                for ch in (0, 1)
            }
            counters["attempted"] += 1
            accepted = await deployment.platform.ingest(sensor_id, batches)
            counters["points_acked"] += int(accepted)
            insert_latencies.append(scheduler.now - now)
            next_at = now + interval
            if scheduler.now < next_at:
                await scheduler.sleep(next_at - scheduler.now)

    async def reader_loop(index: int) -> None:
        # Stagger the fleet so reads spread over the interval.
        await scheduler.sleep(
            (index % max(1, config.readers)) * config.read_interval
            / max(1, config.readers)
        )
        while scheduler.now < stop:
            org_id = org_ids[reader_rng.randrange(len(org_ids))]
            sent = scheduler.now
            await read_handle.get(org_id)
            counters["reads"] += 1
            read_latencies.append(scheduler.now - sent)
            next_at = sent + config.read_interval
            if scheduler.now < next_at:
                await scheduler.sleep(next_at - scheduler.now)

    async def staleness_sampler() -> None:
        while scheduler.now < stop:
            await scheduler.sleep(0.02)
            staleness_samples.append(database.views.staleness_seconds())

    async def mixed_load() -> None:
        tasks = [
            scheduler.spawn(sensor_loop(sensor_id), name=f"sensor:{sensor_id}")
            for sensor_id in sensor_ids
        ]
        tasks.extend(
            scheduler.spawn(reader_loop(i), name=f"reader:{i}")
            for i in range(config.readers)
        )
        if materialized:
            tasks.append(
                scheduler.spawn(staleness_sampler(), name="staleness-sampler")
            )
        await scheduler.gather(tasks)

    scheduler.run_until_complete(mixed_load())
    if monitor is not None:
        monitor.detach()

    # Quiesce, then probe the per-read ask cost with no load in flight.
    async def drain() -> None:
        await scheduler.sleep(1.0)

    scheduler.run_until_complete(drain())

    async def cost_probe() -> tuple[float, list[dict]]:
        before = runtime.stats.asks
        summaries = [await read_handle.get(org_id) for org_id in org_ids]
        asks = runtime.stats.asks - before
        return asks / len(org_ids), summaries

    asks_per_read, summaries = scheduler.run_until_complete(cost_probe())

    parity_ok = True
    if materialized:
        # Both paths fold the same inserts with the same algebra.  Counts
        # and extrema must agree exactly; running totals (and hence means)
        # are float sums taken in different orders — per-cohort on the
        # materialized side, per-sensor on the pull side — so those are
        # compared to relative float tolerance.
        pull = database.view(
            "strain-parity", source="Sensor", group_by="org_id"
        )

        def close(a: float | None, b: float | None) -> bool:
            if a is None or b is None:
                return a == b
            return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))

        async def parity() -> bool:
            for org_id, summary in zip(org_ids, summaries):
                scanned = await pull.get(org_id)
                if (
                    scanned["count"] != summary["count"]
                    or scanned["min"] != summary["min"]
                    or scanned["max"] != summary["max"]
                    or not close(scanned["total"], summary["total"])
                    or not close(scanned["mean"], summary["mean"])
                ):
                    return False
            return True

        parity_ok = scheduler.run_until_complete(parity())

    total_count = sum(summary["count"] for summary in summaries)
    read_sorted = sorted(read_latencies)
    insert_sorted = sorted(insert_latencies)
    row = {
        "sensors": config.sensors,
        "readers": config.readers,
        "duration_s": config.duration,
        "throughput_rps": round(counters["attempted"] / config.duration, 2),
        "reads": counters["reads"],
        "p50_ms": round(percentile(read_sorted, 0.50) * 1000, 3)
        if read_sorted
        else 0.0,
        "p99_ms": round(percentile(read_sorted, 0.99) * 1000, 3)
        if read_sorted
        else 0.0,
        "insert_p99_ms": round(percentile(insert_sorted, 0.99) * 1000, 3)
        if insert_sorted
        else 0.0,
        "asks_per_group_read": round(asks_per_read, 2),
    }
    extras = {
        "points_acked": counters["points_acked"],
        "view_total_count": total_count,
        "parity_ok": parity_ok,
        "alerts": [],
        "staleness_p99": 0.0,
    }
    if materialized:
        views = database.views
        row["deltas_emitted"] = views.deltas_emitted()
        row["flushes"] = views.flushes()
        row["avg_delta_cohort"] = round(
            views.deltas_emitted() / max(1, views.flushes()), 2
        )
        row["staleness_p99_ms"] = round(
            percentile(sorted(staleness_samples), 0.99) * 1000, 3
        )
        extras["staleness_p99"] = percentile(sorted(staleness_samples), 0.99)
        extras["alerts"] = [
            alert.rule for alert in (monitor.alerts if monitor else [])
        ]
        extras["failed_flushes"] = views.failed_flushes
        extras["duplicate_flushes"] = views.duplicate_flushes
    return {"row": row, "extras": extras}


def _run_chaos(config: ChaosConfig, staleness_bound: float) -> dict:
    """Loss + duplication over the delta path; exactly-once must hold."""
    deployment = build_deployment(
        [M5_LARGE] * 2, seed=config.seed, dedup_ingest=True
    )
    scheduler = deployment.scheduler
    runtime = deployment.runtime
    database = deployment.database
    runtime.config.default_call_deadline = VIEWS_CALL_DEADLINE
    runtime.config.default_retry_policy = VIEWS_RETRY_POLICY
    scheduler.run_until_complete(
        provision(deployment, config.sensors, config.sensors_per_org)
    )
    database.register_view(
        ViewDef(
            name="strain-by-org",
            source="Sensor",
            group_by="org_id",
            kind="aggregate",
            staleness_bound=staleness_bound,
        )
    )
    injector = NetworkFaultInjector(
        deployment.rng.stream("views-chaos"),
        loss_rate=config.loss_rate,
        duplication_rate=config.duplication_rate,
        start=scheduler.now + config.fault_start,
        end=scheduler.now + config.duration,
    )
    runtime.network.inject_faults(injector)

    sensor_ids = deployment.report.sensor_ids
    counters = {"attempted": 0, "failed": 0, "points_acked": 0}
    stop = scheduler.now + config.duration

    async def sensor_loop(sensor_id: str) -> None:
        interval = 1.0 / config.insert_rate
        channels = (channel_id_for(sensor_id, 0), channel_id_for(sensor_id, 1))
        while scheduler.now < stop:
            now = scheduler.now
            batches = {
                channels[ch]: [
                    (now + i * 0.001, synth_value(ch, now + i * 0.001))
                    for i in range(config.points_per_channel)
                ]
                for ch in (0, 1)
            }
            counters["attempted"] += 1
            try:
                accepted = await deployment.platform.ingest(sensor_id, batches)
            except Exception:
                counters["failed"] += 1
            else:
                counters["points_acked"] += int(accepted)
            next_at = now + interval
            if scheduler.now < next_at:
                await scheduler.sleep(next_at - scheduler.now)

    async def storm() -> None:
        await scheduler.gather(
            [
                scheduler.spawn(sensor_loop(sensor_id), name=f"sensor:{sensor_id}")
                for sensor_id in sensor_ids
            ]
        )
        # Faults end with the load; drain the retry tails and open buffers.
        await scheduler.sleep(5.0)

    scheduler.run_until_complete(storm())

    async def reconcile() -> dict:
        # Ground truth: every point a sensor actually accepted is in its
        # running view_stats — the same turn that emitted the delta.
        emitted = 0
        for sensor_id in sensor_ids:
            sample = await runtime.ref("Sensor", sensor_id).ask("view_sample")
            emitted += sample["count"]
        org_count = (
            config.sensors + config.sensors_per_org - 1
        ) // config.sensors_per_org
        folded = 0
        duplicates = 0
        for org_index in range(org_count):
            accounting = await database.view("strain-by-org").fold_accounting(
                f"org-{org_index}"
            )
            folded += accounting["count"]
            duplicates += accounting["duplicates"]
        return {"emitted": emitted, "folded": folded, "duplicates": duplicates}

    ledger = scheduler.run_until_complete(reconcile())
    return {
        "attempted": counters["attempted"],
        "failed_inserts": counters["failed"],
        "points_acked": counters["points_acked"],
        "points_emitted": ledger["emitted"],
        "points_folded": ledger["folded"],
        "duplicate_flushes_dropped": ledger["duplicates"],
        "injected_losses": injector.injected_losses,
        "injected_duplicates": injector.injected_duplicates,
        "failed_flushes": database.views.failed_flushes,
        "pending_deltas": database.views.pending_deltas(),
    }


def _check_invariants(
    materialized: dict, pull: dict, chaos: dict, config: ViewsConfig
) -> tuple[dict, list[str]]:
    """The payload's summary, and the acceptance invariants violated."""
    problems: list[str] = []
    mat_row, mat_extras = materialized["row"], materialized["extras"]
    pull_row, pull_extras = pull["row"], pull["extras"]

    # Read cost: O(groups asked), >= 10x cheaper than the pull scan.
    if mat_row["asks_per_group_read"] > 2.0:
        problems.append(
            f"materialized read cost {mat_row['asks_per_group_read']} "
            "asks/group — not O(groups asked)"
        )
    cost_ratio = pull_row["asks_per_group_read"] / max(
        1e-9, mat_row["asks_per_group_read"]
    )
    if cost_ratio < READ_COST_FLOOR:
        problems.append(
            f"materialized reads only {cost_ratio:.1f}x cheaper than the "
            f"pull scan (floor: {READ_COST_FLOOR:.0f}x)"
        )

    # Exactly-once, steady: every acked point folded into the view once.
    if mat_extras["view_total_count"] != mat_extras["points_acked"]:
        problems.append(
            f"steady run folded {mat_extras['view_total_count']} points "
            f"but sensors acked {mat_extras['points_acked']}"
        )
    if not mat_extras["parity_ok"]:
        problems.append("materialized reads diverged from the pull fold")
    if mat_extras.get("failed_flushes"):
        problems.append(
            f"{mat_extras['failed_flushes']} delta flushes failed in steady"
        )

    # Staleness: p99 under the registered bound, SLO rule silent.
    if mat_extras["staleness_p99"] > config.staleness_bound:
        problems.append(
            f"staleness p99 {mat_extras['staleness_p99'] * 1000:.1f} ms "
            f"exceeds the bound {config.staleness_bound * 1000:.0f} ms"
        )
    if "view-staleness" in mat_extras["alerts"]:
        problems.append("view-staleness SLO rule fired in the steady phase")

    # The pull control folds the same answer (it scans the same stats).
    if pull_extras["view_total_count"] != pull_extras["points_acked"]:
        problems.append(
            f"pull control folded {pull_extras['view_total_count']} points "
            f"but sensors acked {pull_extras['points_acked']}"
        )

    # Exactly-once, chaos-seeded: faults really fired, nothing lost or
    # double-folded, no flush gave up.
    if chaos["injected_duplicates"] < 1 or chaos["injected_losses"] < 1:
        problems.append(
            "chaos run injected no faults — the exactly-once claim is "
            "untested"
        )
    if chaos["points_folded"] != chaos["points_emitted"]:
        problems.append(
            f"chaos run folded {chaos['points_folded']} points but sensors "
            f"emitted {chaos['points_emitted']} (lost or duplicated deltas)"
        )
    if chaos["failed_flushes"]:
        problems.append(
            f"{chaos['failed_flushes']} delta flushes exhausted retries "
            "under chaos"
        )
    if chaos["pending_deltas"]:
        problems.append(
            f"{chaos['pending_deltas']} deltas still pending after drain"
        )

    summary = {
        "read_cost_ratio": round(cost_ratio, 1),
        "asks_per_group_read": mat_row["asks_per_group_read"],
        "read_p99_speedup": round(
            pull_row["p99_ms"] / max(1e-9, mat_row["p99_ms"]), 2
        ),
        "staleness_p99_ms": mat_row["staleness_p99_ms"],
        "staleness_bound_ms": round(config.staleness_bound * 1000, 1),
        "chaos_injected_duplicates": chaos["injected_duplicates"],
        "chaos_injected_losses": chaos["injected_losses"],
        "chaos_duplicate_flushes_dropped": chaos["duplicate_flushes_dropped"],
        "exactly_once": True,
    }
    return summary, problems


def check_views(run: GatedRun) -> list[str]:
    """Read cost, exactly-once folding and staleness, on the run's evidence."""
    return _check_invariants(*run.evidence)[1]


SMOKE_CONFIG = ViewsConfig(
    sensors=60,
    sensors_per_org=20,
    duration=3.0,
    readers=24,
)
SMOKE_CHAOS = ChaosConfig(duration=3.0)


def build_views(smoke: bool = False) -> GatedRun:
    """The BENCH payload: materialized vs pull reads, runs kept as evidence."""
    config = SMOKE_CONFIG if smoke else ViewsConfig()
    chaos_config = SMOKE_CHAOS if smoke else ChaosConfig()
    materialized = _run_variant(config, materialized=True)
    pull = _run_variant(config, materialized=False)
    chaos = _run_chaos(chaos_config, config.staleness_bound)
    evidence = (materialized, pull, chaos, config)
    payload = {
        "bench": "views",
        "mode": "smoke" if smoke else "full",
        "title": (
            "Materialized views vs pull-based scans under a mixed "
            "insert+dashboard workload"
        ),
        "series": {
            "materialized": materialized["row"],
            "pull": pull["row"],
        },
        "summary": _check_invariants(*evidence)[0],
        "checks": [
            {
                "steady": {
                    "points_acked": materialized["extras"]["points_acked"],
                    "view_total_count": materialized["extras"][
                        "view_total_count"
                    ],
                    "alerts": materialized["extras"]["alerts"],
                },
                "chaos": chaos,
            }
        ],
    }
    return GatedRun(payload, evidence)
