"""Experiment drivers for every figure in the paper's evaluation (§6).

Each ``run_figN`` function regenerates the corresponding figure's series
and returns a structured result; :mod:`repro.bench.report` renders them as
the tables recorded in EXPERIMENTS.md.  Ablation drivers cover the design
choices §4-§5 call out (placement, durability, actor granularity,
constraint enforcement).  Beside each driver sits its ``check_*``: the
paper's claim about that figure as conditions on the result, returning one
human-readable violation per condition that fails (Figures 6 and 7 are
checked on their seed-vs-fast payload, in :mod:`repro.bench.baseline`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..aodb.database import AodbDatabase
from ..cattle.platform import CattlePlatform
from ..kernel.scheduler import Scheduler
from ..net.latency import ConstantLatency
from ..net.network import Network
from ..runtime.config import RuntimeConfig
from ..runtime.persistence import WritePolicy
from ..runtime.runtime import AodbRuntime
from ..storage.dynamo import ProvisionedKVStore
from .calibration import (
    LAN_LATENCY_SECONDS,
    average_insert_cost,
    calibrated_config,
    saturation_request_rate,
)
from .instances import M5_LARGE, M5_XLARGE, InstanceType
from .metrics import Summary
from .workload import (
    Deployment,
    LoadConfig,
    build_deployment,
    class_attributes,
    drive_waves,
    provision,
    run_load,
    violated,
)

DEFAULT_DURATION = 8.0
FIG7_SENSORS_PER_SERVER = 2100  # the paper's derived baseline (§6.2)


def approx(value: float, expected: float, rel: float) -> bool:
    """``value`` within ``rel`` (a fraction) of ``expected``."""
    return abs(value - expected) <= rel * abs(expected)


@dataclass
class FigPoint:
    """One x-position of a figure: offered load plus measured series."""

    sensors: int
    servers: int
    offered_rps: float
    throughput: float
    throughput_std: float
    utilization: float
    insert: Summary | None = None
    live: Summary | None = None
    raw: Summary | None = None
    metrics: dict = field(default_factory=dict)


@dataclass
class FigResult:
    """A regenerated figure: its points plus reproduction context."""

    figure: str
    title: str
    points: list[FigPoint] = field(default_factory=list)
    notes: dict = field(default_factory=dict)


def _run_point(
    silos: list[InstanceType],
    sensors: int,
    duration: float,
    with_queries: bool,
    seed: int,
    fast_path: bool = True,
) -> FigPoint:
    deployment = build_deployment(silos, seed=seed, fast_path=fast_path)
    deployment.scheduler.run_until_complete(provision(deployment, sensors))
    load = LoadConfig(sensors=sensors, duration=duration, with_queries=with_queries)
    result = deployment.scheduler.run_until_complete(run_load(deployment, load))
    insert = result.summary("insert")
    return FigPoint(
        sensors=sensors,
        servers=len(silos),
        offered_rps=float(sensors),
        throughput=insert.throughput_mean if insert else 0.0,
        throughput_std=insert.throughput_std if insert else 0.0,
        utilization=result.mean_utilization,
        insert=insert,
        live=result.summary("live"),
        raw=result.summary("raw"),
        metrics=result.metrics,
    )


def run_fig6(
    sensor_counts: tuple[int, ...] = (
        300, 600, 900, 1200, 1500, 1800, 2100, 2400, 3000, 3600,
    ),
    duration: float = DEFAULT_DURATION,
    seed: int = 6,
    fast_path: bool = True,
) -> FigResult:
    """Figure 6: single-server (m5.large) ingestion throughput.

    Expectation (seed model, ``fast_path=False``): throughput tracks the
    offered load linearly and saturates near 1,800 requests/second as
    utilization reaches 100%.  With the ingestion fast path the saturation
    point moves up (dispatch overhead amortized across envelopes) while the
    linear region is unchanged.
    """
    result = FigResult(
        "fig6",
        "Single-server throughput (one m5.large silo)",
        notes={
            "paper_saturation_rps": 1800,
            "predicted_saturation_rps": saturation_request_rate(M5_LARGE.capacity),
            "insert_cost_core_ms": average_insert_cost() * 1000,
            "fast_path": fast_path,
        },
    )
    for sensors in sensor_counts:
        result.points.append(
            _run_point(
                [M5_LARGE], sensors, duration,
                with_queries=False, seed=seed, fast_path=fast_path,
            )
        )
    return result


def run_fig7(
    scale_factors: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8),
    duration: float = DEFAULT_DURATION,
    seed: int = 7,
    fast_path: bool = True,
) -> FigResult:
    """Figure 7: scale-out over m5.xlarge silos, 2,100 sensors per server.

    Expectation: close-to-linear throughput in the scale factor (>10k req/s
    at SF 5, >16k at SF 8), since organizations are independent.
    """
    result = FigResult(
        "fig7",
        "Scale-out throughput (2,100 sensors per m5.xlarge silo)",
        notes={
            "sensors_per_server": FIG7_SENSORS_PER_SERVER,
            "fast_path": fast_path,
        },
    )
    for factor in scale_factors:
        result.points.append(
            _run_point(
                [M5_XLARGE] * factor,
                FIG7_SENSORS_PER_SERVER * factor,
                duration,
                with_queries=False,
                seed=seed,
                fast_path=fast_path,
            )
        )
    return result


def _latency_fig(
    figure: str,
    title: str,
    sensor_counts: tuple[int, ...],
    duration: float,
    seed: int,
) -> FigResult:
    result = FigResult(figure, title, notes={"server": "m5.xlarge", "mix": "98/1/1"})
    for sensors in sensor_counts:
        result.points.append(
            _run_point([M5_XLARGE], sensors, duration, with_queries=True, seed=seed)
        )
    return result


def run_fig8(
    sensor_counts: tuple[int, ...] = (500, 1000, 1500, 2000),
    duration: float = DEFAULT_DURATION,
    seed: int = 8,
) -> FigResult:
    """Figure 8: latency percentiles of raw sensor-channel range requests.

    Expectation: percentiles grow with load; tails stay moderate (median
    well under 0.5 s even at 2,000 sensors); 99.9p smallest at 500 sensors.
    """
    return _latency_fig(
        "fig8",
        "Raw data request latency percentiles (one m5.xlarge, queries on)",
        sensor_counts,
        duration,
        seed,
    )


def _check_percentiles(result: FigResult, kind: str) -> list[str]:
    """Every point measured ``kind`` requests, with ordered percentiles."""
    claims = {}
    for point in result.points:
        summary = getattr(point, kind)
        claims[f"{result.figure} @ {point.sensors} sensors: {kind} percentiles"] = (
            summary is not None
            and summary.requests > 0
            and summary.p50 <= summary.p90 <= summary.p99 <= summary.p999
        )
    return violated(claims)


def check_fig8(result: FigResult) -> list[str]:
    """Paper: "for 500 simulated sensors, 99.9th percentile latency is
    minimal for raw data requests", and "the latency of raw data requests is
    often substantially below 0.5 sec" at 2,000 sensors."""
    by_sensors = {p.sensors: p.raw for p in result.points}
    low, high = by_sensors[500], by_sensors[2000]
    return _check_percentiles(result, "raw") or violated({
        # Latency grows with load.
        "fig8: raw p99 grows from 500 to 2,000 sensors": low.p99 < high.p99,
        "fig8: raw p99.9 grows from 500 to 2,000 sensors": low.p999 < high.p999,
        # 99.9p minimal at 500 sensors (well under the interactive budget).
        "fig8 @ 500 sensors: raw p99.9 < 0.2 s": low.p999 < 0.2,
        # Raw requests "often substantially below 0.5 sec" at 2,000 sensors:
        # the median is far below it and even p90 nearly meets it.
        "fig8 @ 2000 sensors: raw p50 < 0.35 s": high.p50 < 0.35,
        "fig8 @ 2000 sensors: raw p90 < 0.6 s": high.p90 < 0.6,
        # Interactive requirement: a few seconds at most, comfortably met.
        "fig8 @ 2000 sensors: raw p99.9 < 2.0 s": high.p999 < 2.0,
    })


def run_fig9(
    sensor_counts: tuple[int, ...] = (500, 1000, 1500, 2000),
    duration: float = DEFAULT_DURATION,
    seed: int = 9,
) -> FigResult:
    """Figure 9: latency percentiles of organization live-data requests.

    Expectation: slower than raw requests at matching load (a ~210-channel
    fan-out versus a single-actor read), but high percentiles still under
    ~1 s at 2,000 sensors.
    """
    return _latency_fig(
        "fig9",
        "Live data request latency percentiles (one m5.xlarge, queries on)",
        sensor_counts,
        duration,
        seed,
    )


def check_fig9(result: FigResult) -> list[str]:
    """Paper: live-data requests (a fan-out over all ~210 channels of a
    tenant) are slower than raw requests but stay "under 1 sec" at 500
    sensors even at the 99.9th percentile, and "often below 1 sec at 2,000
    simulated sensors"."""
    by_sensors = {p.sensors: p.live for p in result.points}
    low, high = by_sensors[500], by_sensors[2000]
    return _check_percentiles(result, "live") or violated({
        # Latency grows with load.
        "fig9: live p99 grows from 500 to 2,000 sensors": low.p99 < high.p99,
        # Under 1 s at 500 sensors even at extreme percentiles.
        "fig9 @ 500 sensors: live p99.9 < 1.0 s": low.p999 < 1.0,
        # Often below 1 s at 2,000 sensors (median and p90).
        "fig9 @ 2000 sensors: live p50 < 1.0 s": high.p50 < 1.0,
        "fig9 @ 2000 sensors: live p90 < 1.0 s": high.p90 < 1.0,
        # The fan-out pays more queueing than a single-actor read.
        **{
            f"fig9 @ {p.sensors} sensors: live p90 is no faster than raw p90": (
                p.live.p90 >= p.raw.p90 * 0.95
            )
            for p in result.points
            if p.sensors >= 1000
        },
    })


# ---------------------------------------------------------------------------
# Ablations (design choices from §4 and §5)
# ---------------------------------------------------------------------------


@dataclass
class AblationResult:
    """A named comparison of configurations."""

    name: str
    rows: list[dict] = field(default_factory=list)
    notes: dict = field(default_factory=dict)


def run_placement_ablation(
    sensors: int = 1200,
    servers: int = 4,
    duration: float = 6.0,
    seed: int = 41,
) -> AblationResult:
    """§5: random vs. prefer-local placement of channels.

    With random placement the sensor→channel hop usually crosses silos;
    prefer-local keeps it loopback.  We compare remote-message fraction and
    insert latency.  ``sensors`` should give an organization count
    divisible by ``servers`` so tenant partitioning is balanced and the
    comparison isolates placement.
    """
    from ..shm.channel import PhysicalSensorChannel, VirtualSensorChannel

    result = AblationResult(
        "placement",
        notes={"sensors": sensors, "servers": servers},
    )
    channels = (PhysicalSensorChannel, VirtualSensorChannel)
    for strategy in ("prefer_local", "random"):
        with class_attributes(channels, placement=strategy):
            deployment = build_deployment([M5_XLARGE] * servers, seed=seed)
            deployment.scheduler.run_until_complete(provision(deployment, sensors))
            load = LoadConfig(sensors=sensors, duration=duration)
            run = deployment.scheduler.run_until_complete(run_load(deployment, load))
        stats = deployment.runtime.network.stats
        insert = run.summary("insert")
        result.rows.append(
            {
                "strategy": strategy,
                "remote_fraction": stats.remote_messages / max(1, stats.messages),
                "insert_p50": insert.p50 if insert else 0.0,
                "insert_p99": insert.p99 if insert else 0.0,
                "throughput": insert.throughput_mean if insert else 0.0,
            }
        )
    return result


def check_placement(result: AblationResult) -> list[str]:
    """Paper: "we have had to change the activation placement strategy away
    from random placement for our sensor channels and aggregators.  The
    prefer-local placement ... minimizes the need to perform remote
    procedure calls."."""
    rows = {row["strategy"]: row for row in result.rows}
    local, random_ = rows["prefer_local"], rows["random"]
    return violated({
        # Prefer-local minimizes remote messages...
        "prefer_local sends < 50% of messages remotely": (
            local["remote_fraction"] < 0.5
        ),
        "random sends > 70% of messages remotely": random_["remote_fraction"] > 0.7,
        "prefer_local halves random's remote fraction": (
            local["remote_fraction"] < random_["remote_fraction"] / 2
        ),
        # ...and does not hurt latency.
        "prefer_local insert p50 is within 10% of random's": (
            local["insert_p50"] <= random_["insert_p50"] * 1.1
        ),
        # Both strategies sustain the offered load.
        **{
            f"{row['strategy']} sustains the offered load within 5%": approx(
                row["throughput"], result.notes["sensors"], rel=0.05
            )
            for row in result.rows
        },
    })


def run_durability_ablation(
    sensors: int = 50,
    duration: float = 6.0,
    write_capacity: float = 200.0,
    seed: int = 42,
) -> AblationResult:
    """§5 durability: write-through vs. interval vs. on-shutdown.

    The paper: writing state on every request would need "200 write
    requests every second" against the provisioned DynamoDB capacity.  We
    measure actual storage writes (and throttling) under each policy.
    """
    from ..shm.channel import PhysicalSensorChannel

    result = AblationResult(
        "durability",
        notes={
            "sensors": sensors,
            "provisioned_wcu": write_capacity,
            "paper_quote": "200 write requests every second for 200 channels",
        },
    )
    policies = {
        "write_through": dict(write_policy=WritePolicy.WRITE_THROUGH),
        "interval_5s": dict(
            write_policy=WritePolicy.INTERVAL, write_interval_seconds=5.0
        ),
        "on_deactivate": dict(write_policy=WritePolicy.ON_DEACTIVATE),
    }
    for label, attributes in policies.items():
        with class_attributes([PhysicalSensorChannel], **attributes):
            scheduler = Scheduler()
            store = ProvisionedKVStore(
                scheduler,
                read_capacity_units=200.0,
                write_capacity_units=write_capacity,
                on_overload="delay",
            )
            config = calibrated_config(seed)
            network = Network(scheduler, lan=ConstantLatency(LAN_LATENCY_SECONDS))
            runtime = AodbRuntime(
                scheduler, config=config, network=network, grain_storage=store
            )
            runtime.add_silo(
                "silo-0",
                cores=M5_XLARGE.cores,
                speed=M5_XLARGE.speed,
                instance_type=M5_XLARGE.name,
            )
            database = AodbDatabase(runtime)
            from ..shm.platform import ShmPlatform

            platform = ShmPlatform(
                database, window_capacity=256, enable_aggregation=False
            )
            deployment = Deployment(scheduler, runtime, database, platform, runtime.rng)
            scheduler.run_until_complete(provision(deployment, sensors))
            writes_before = store.writes
            load = LoadConfig(sensors=sensors, duration=duration)
            run = scheduler.run_until_complete(run_load(deployment, load))
            writes_during_run = store.writes - writes_before
            # Shutdown flushes remaining dirty state (the paper's configuration).
            scheduler.run_until_complete(runtime.stop())
            writes_at_shutdown = store.writes - writes_before - writes_during_run
            insert = run.summary("insert")
            result.rows.append(
                {
                    "policy": label,
                    "writes_during_run": writes_during_run,
                    "writes_per_second": writes_during_run / duration,
                    "writes_at_shutdown": writes_at_shutdown,
                    "insert_p50": insert.p50 if insert else 0.0,
                    "insert_p99": insert.p99 if insert else 0.0,
                }
            )
    return result


def check_durability(result: AblationResult) -> list[str]:
    """Paper: "if we wrote state to persistent storage after each request,
    we would need 200 write requests every second to the cloud storage
    system" — versus batching a window or writing only at silo shutdown
    (the benchmark configuration)."""
    rows = {row["policy"]: row for row in result.rows}
    through, deferred = rows["write_through"], rows["on_deactivate"]
    channels = 2 * result.notes["sensors"]
    return violated({
        # Write-through: one storage write per channel ingest = 2 per sensor
        # per second (the paper's "200 writes/s for 100 sensors", scaled).
        f"write_through makes ~{channels} writes/s (within 25%)": approx(
            through["writes_per_second"], channels, rel=0.25
        ),
        # Deferred policies keep the steady-state write rate far lower.
        **{
            f"{policy} writes under a third as often as write_through": (
                rows[policy]["writes_per_second"] < through["writes_per_second"] / 3
            )
            for policy in ("interval_5s", "on_deactivate")
        },
        # The paper's benchmark config: state reaches storage when the silo
        # shuts down, covering every provisioned channel.
        f"on_deactivate flushes all {channels} channels at shutdown": (
            deferred["writes_at_shutdown"] >= channels
        ),
        # Write-through costs latency.
        "write_through insert p50 is slower than on_deactivate's": (
            through["insert_p50"] > deferred["insert_p50"]
        ),
    })


def _cattle_database(seed: int) -> tuple[Scheduler, CattlePlatform, AodbRuntime]:
    scheduler = Scheduler()
    config = RuntimeConfig(
        default_method_cost=0.0002,
        activation_cost=0.0005,
        copy_messages=False,
        seed=seed,
    )
    network = Network(scheduler, lan=ConstantLatency(LAN_LATENCY_SECONDS))
    runtime = AodbRuntime(scheduler, config=config, network=network)
    runtime.add_silo("silo-0", cores=4)
    runtime.add_silo("silo-1", cores=4)
    database = AodbDatabase(runtime)
    return scheduler, CattlePlatform(database), runtime


def run_granularity_ablation(
    cows: int = 100,
    cuts_per_cow: int = 4,
    info_requests_per_cut: int = 5,
    seed: int = 43,
) -> AblationResult:
    """§4.3: meat cuts as actors (model A) vs. versioned objects (model B).

    Drives the same chain through both models and compares actor messages,
    activations and virtual time — quantifying the communication-vs-copying
    trade-off the paper discusses.
    """
    result = AblationResult(
        "granularity",
        notes={
            "cows": cows,
            "cuts_per_cow": cuts_per_cow,
            "info_requests_per_cut": info_requests_per_cut,
        },
    )

    async def drive_model_a(platform: CattlePlatform):
        runtime = platform.runtime
        await platform.register_farmer("farm-1", "Farm")
        await platform.register_slaughterhouse("sh-1", "SH")
        await platform.register_distributor("dist-1", "Dist")
        await platform.register_retailer("ret-1", "Ret")
        sh = runtime.ref("Slaughterhouse", "sh-1")
        dist = runtime.ref("Distributor", "dist-1")
        for index in range(cows):
            cow_id = f"cow-{index}"
            await platform.register_cow(cow_id, "farm-1")
            cut_ids = await sh.slaughter_cow(cow_id, float(index), cuts=cuts_per_cow)
            delivery_id = await dist.create_delivery(cut_ids, "sh-1", "ret-1")
            delivery = runtime.ref("Delivery", delivery_id)
            await delivery.start(float(index) + 0.1)
            # Downstream parties repeatedly ask for cut information while
            # the cuts are in transit: model A pays one message per ask.
            for cut_id in cut_ids:
                for _ in range(info_requests_per_cut):
                    await dist.cut_tracking(cut_id)
            await delivery.complete(float(index) + 0.2)

    async def drive_model_b(platform: CattlePlatform):
        runtime = platform.runtime
        await platform.register_farmer("farm-1", "Farm")
        await runtime.ref("SlaughterhouseB", "sh-1").setup("SH")
        await runtime.ref("DistributorB", "dist-1").setup("Dist")
        await runtime.ref("RetailerB", "ret-1").setup("Ret")
        sh = runtime.ref("SlaughterhouseB", "sh-1")
        dist = runtime.ref("DistributorB", "dist-1")
        for index in range(cows):
            cow_id = f"cow-{index}"
            await platform.register_cow(cow_id, "farm-1")
            cut_ids = await sh.slaughter_cow(cow_id, float(index), cuts=cuts_per_cow)
            await sh.ship_cuts(cut_ids, "dist-1", float(index) + 0.1)
            # Model B answers the same asks from the distributor's own state.
            for cut_id in cut_ids:
                for _ in range(info_requests_per_cut):
                    await dist.local_info(cut_id)
            await dist.deliver_cuts(cut_ids, "ret-1", float(index) + 0.2)

    drivers = (("model_a_actors", drive_model_a), ("model_b_objects", drive_model_b))
    for label, driver in drivers:
        scheduler, platform, runtime = _cattle_database(seed)
        start_events = scheduler.events_processed
        scheduler.run_until_complete(driver(platform))
        result.rows.append(
            {
                "model": label,
                "virtual_seconds": scheduler.now,
                "messages": runtime.stats.asks + runtime.stats.tells,
                "activations": runtime.stats.activations_created,
                "events": scheduler.events_processed - start_events,
            }
        )
    return result


def check_granularity(result: AblationResult) -> list[str]:
    """Paper: "Since each actor keeps a separate object version of the meat
    cut throughout the supply chain, communication to obtain meat cut
    information is obviated.  For frequently accessed entities, this
    reduction in communication may pay off with respect to the overhead of
    copying non-actor objects."."""
    rows = {row["model"]: row for row in result.rows}
    actors, objects = rows["model_a_actors"], rows["model_b_objects"]
    return violated({
        # Model B answers info requests from local state: far fewer messages.
        "model B sends under 75% of model A's messages": (
            objects["messages"] < actors["messages"] * 0.75
        ),
        # Model A activates one actor per cut (+ products); model B holds
        # object versions inside a handful of stage actors.
        "model B creates under a third of model A's activations": (
            objects["activations"] < actors["activations"] / 3
        ),
        # Model B is faster for read-heavy chains.
        "model B finishes the chain in less virtual time": (
            objects["virtual_seconds"] < actors["virtual_seconds"]
        ),
    })


def run_constraints_ablation(
    transfers: int = 200,
    contention_farmers: int = 4,
    seed: int = 44,
) -> AblationResult:
    """§4.4: transaction vs. workflow vs. naive direct updates.

    Measures virtual time per ownership transfer and whether the
    herd/ownership invariant survived concurrent transfers.
    """
    result = AblationResult(
        "constraints",
        notes={"transfers": transfers, "farmers": contention_farmers},
    )

    async def setup(platform: CattlePlatform):
        for farmer in range(contention_farmers):
            await platform.register_farmer(f"farm-{farmer}", f"Farm {farmer}")
        for cow in range(transfers):
            await platform.register_cow(f"cow-{cow}", "farm-0")

    async def check_invariant(platform: CattlePlatform) -> bool:
        # Every cow's owner record must match exactly one herd membership.
        runtime = platform.runtime
        herds = {}
        for farmer in range(contention_farmers):
            herds[f"farm-{farmer}"] = set(
                await runtime.ref("Farmer", f"farm-{farmer}").herd()
            )
        for cow in range(transfers):
            cow_id = f"cow-{cow}"
            owner = (await runtime.ref("Cow", cow_id).describe())["owner_id"]
            holders = [fid for fid, herd in herds.items() if cow_id in herd]
            if holders != [owner]:
                return False
        return True

    async def run_transactional(platform: CattlePlatform):
        tasks = [
            platform.sell_cow_transactional(
                f"cow-{cow}",
                "farm-0",
                f"farm-{1 + cow % (contention_farmers - 1)}",
                1.0,
            )
            for cow in range(transfers)
        ]
        return await platform.runtime.scheduler.gather(
            [platform.runtime.scheduler.spawn(t) for t in tasks]
        )

    async def run_workflow(platform: CattlePlatform):
        tasks = [
            platform.sell_cow_workflow(
                f"cow-{cow}",
                "farm-0",
                f"farm-{1 + cow % (contention_farmers - 1)}",
                1.0,
            )
            for cow in range(transfers)
        ]
        return await platform.runtime.scheduler.gather(
            [platform.runtime.scheduler.spawn(t) for t in tasks]
        )

    async def run_direct(platform: CattlePlatform):
        # Fire-and-forget updates to each side independently: fast, but no
        # atomicity and no ordering guarantees.
        runtime = platform.runtime
        for cow in range(transfers):
            buyer = f"farm-{1 + cow % (contention_farmers - 1)}"
            runtime.ref("Farmer", "farm-0").tell("remove_cow", f"cow-{cow}")
            runtime.ref("Farmer", buyer).tell("add_cow", f"cow-{cow}")
            runtime.ref("Cow", f"cow-{cow}").tell("set_owner", buyer, 1.0)
        await runtime.scheduler.sleep(5.0)

    flavours = [
        ("transaction", run_transactional),
        ("workflow", run_workflow),
        ("direct_tells", run_direct),
    ]
    for label, driver in flavours:
        scheduler, platform, runtime = _cattle_database(seed)
        scheduler.run_until_complete(setup(platform))
        started = scheduler.now
        scheduler.run_until_complete(driver(platform))
        elapsed = scheduler.now - started
        consistent = scheduler.run_until_complete(check_invariant(platform))
        result.rows.append(
            {
                "flavour": label,
                "virtual_seconds": elapsed,
                "per_transfer_ms": elapsed / transfers * 1000,
                "messages": runtime.stats.asks + runtime.stats.tells,
                "invariant_holds": consistent,
                "commits": platform.db.stats_commits,
                "aborts": platform.db.stats_aborts,
            }
        )
    return result


def check_constraints(result: AblationResult) -> list[str]:
    """Paper: "Employ transactions to update data across actors
    consistently; however, in the absence of transactions, keep data related
    to a constraint in a single actor or design a multi-actor workflow for
    updates."."""
    rows = {row["flavour"]: row for row in result.rows}
    transaction, workflow = rows["transaction"], rows["workflow"]
    return violated({
        # Transaction and workflow preserve the herd/ownership invariant.
        "transactions keep one owner per cow": transaction["invariant_holds"] is True,
        "workflows keep one owner per cow": workflow["invariant_holds"] is True,
        # All transactions commit without contention aborts.
        "every transaction commits": (
            transaction["commits"] == result.notes["transfers"]
        ),
        "no transaction aborts": transaction["aborts"] == 0,
        # Strict 2PL serializes transfers that share the seller actor, so the
        # per-transfer virtual time is much higher than the unserialized saga.
        "a transactional transfer costs over 3x a workflow's": (
            transaction["per_transfer_ms"] > workflow["per_transfer_ms"] * 3
        ),
        # Snapshot/restore bookkeeping adds messages per participant.
        "transactions send more messages than workflows": (
            transaction["messages"] > workflow["messages"]
        ),
    })


def run_cattle_scaling(
    cow_counts: tuple[int, ...] = (1000, 2500, 5000, 6000),
    duration: float = 6.0,
    seed: int = 45,
) -> AblationResult:
    """Extension: collar-ingestion scaling for case study 2.

    The paper evaluates only the SHM platform; this experiment drives the
    cattle platform with the same methodology — one collar reading per cow
    per second in synchronized waves against one m5.large-class silo — and
    shows the same linear-then-saturate shape (Cow.record_reading is
    calibrated at 0.4 core-ms, so two cores saturate at ~5,000 cows).
    """
    from ..cattle.geo import rectangle_fence
    from .metrics import LatencyRecorder

    result = AblationResult(
        "cattle_scaling",
        notes={
            "reading_cost_core_ms": 0.4,
            "predicted_saturation_cows": int(2.0 / 0.0004),
        },
    )
    for cows in cow_counts:
        scheduler = Scheduler()
        config = RuntimeConfig(
            default_method_cost=0.0001,
            activation_cost=0.0005,
            method_costs={("Cow", "record_reading"): 0.0004},
            copy_messages=False,
            idle_timeout=3600.0,
            collection_interval=600.0,
            seed=seed,
        )
        network = Network(scheduler, lan=ConstantLatency(LAN_LATENCY_SECONDS))
        runtime = AodbRuntime(scheduler, config=config, network=network)
        runtime.add_silo("silo-0", cores=M5_LARGE.cores, speed=M5_LARGE.speed,
                         instance_type=M5_LARGE.name)
        platform = CattlePlatform(AodbDatabase(runtime), with_model_b=False)
        recorder = LatencyRecorder()
        fence = rectangle_fence("pasture", 55.0, 11.0, 56.0, 12.0).as_dict()

        async def provision_herds():
            farmers = max(1, cows // 100)
            for farmer in range(farmers):
                await platform.register_farmer(f"farm-{farmer}", f"Farm {farmer}")
            for cow in range(cows):
                cow_id = f"cow-{cow}"
                await platform.register_cow(cow_id, f"farm-{cow % farmers}")
                await runtime.ref("Cow", cow_id).set_fence(fence)
            for silo in runtime.silos():
                silo.cpu.reset_accounting()

        async def drive():
            start = scheduler.now
            stop = start + duration

            async def one_reading(cow_id, wave_time):
                sent = scheduler.now
                await runtime.ref("Cow", cow_id).record_reading(
                    {
                        "timestamp": wave_time,
                        "latitude": 55.5,
                        "longitude": 11.5,
                        "activity": 0.5,
                        "temperature": 38.5,
                    }
                )
                recorder.record("insert", sent, scheduler.now - sent)

            cow_ids = [f"cow-{cow}" for cow in range(cows)]
            await drive_waves(scheduler, cow_ids, stop, one_reading)
            return start, stop

        scheduler.run_until_complete(provision_herds())
        start, stop = scheduler.run_until_complete(drive())
        summary = recorder.summarize("insert", 1.0, start, stop)
        silo = runtime.silos()[0]
        result.rows.append(
            {
                "cows": cows,
                "offered_rps": cows,
                "throughput": summary.throughput_mean if summary else 0.0,
                "p50_ms": (summary.p50 if summary else 0.0) * 1000,
                "p99_ms": (summary.p99 if summary else 0.0) * 1000,
                "utilization": silo.cpu.utilization(),
            }
        )
    return result


def check_cattle(result: AblationResult) -> list[str]:
    """The extension asserts the SHM figures' shape on case study 2: linear
    below the predicted saturation, a plateau at full utilization beyond."""
    predicted = result.notes["predicted_saturation_cows"]
    rows = {row["cows"]: row for row in result.rows}
    claims = {
        # Latency grows with load.
        "cattle: p99 grows from the lightest load to saturation": (
            rows[min(rows)]["p99_ms"] < rows[predicted]["p99_ms"]
        ),
    }
    for cows, row in rows.items():
        if cows <= predicted / 2:
            # Linear below saturation.
            claims[f"cattle @ {cows} cows: throughput tracks the load within 2%"] = (
                approx(row["throughput"], cows, rel=0.02)
            )
        elif cows == predicted:
            # At the predicted saturation the silo is fully busy...
            claims[f"cattle @ {cows} cows: utilization > 0.97"] = (
                row["utilization"] > 0.97
            )
        elif cows > predicted:
            # ...and beyond it throughput plateaus instead of tracking
            # offered load.
            claims[f"cattle @ {cows} cows: throughput plateaus at ~{predicted}"] = (
                approx(row["throughput"], predicted, rel=0.10)
                and row["throughput"] < cows * 0.95
            )
    return violated(claims)
