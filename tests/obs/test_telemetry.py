"""Tests for the self-hosted telemetry actors and the ingestion pump."""

import math

import pytest

from repro.net import ConstantLatency, Network
from repro.obs.health import HealthMonitor, SloRule
from repro.obs.telemetry import TELEMETRY_PREFIXES, TelemetryPump, flatten_snapshot
from repro.runtime import AodbRuntime, RuntimeConfig


# -- snapshot flattening -------------------------------------------------------


def test_flatten_sums_label_sets_by_bare_name():
    snapshot = {
        "runtime.asks{silo=s1}": 3.0,
        "runtime.asks{silo=s2}": 4.0,
        "runtime.tells": 2.0,
    }
    flat = flatten_snapshot(snapshot)
    assert flat == {"runtime.asks": 7.0, "runtime.tells": 2.0}


def test_flatten_filters_by_prefix():
    snapshot = {"runtime.asks": 1.0, "myapp.widgets": 5.0}
    assert flatten_snapshot(snapshot) == {"runtime.asks": 1.0}
    assert flatten_snapshot(snapshot, include=()) == {
        "runtime.asks": 1.0,
        "myapp.widgets": 5.0,
    }


def test_flatten_expands_histogram_summaries():
    snapshot = {
        "runtime.ask_latency_seconds{silo=s1}": {
            "count": 10, "sum": 1.0, "mean": 0.1,
            "min": 0.05, "max": 0.3, "p50": 0.1, "p99": 0.3,
        },
        "runtime.ask_latency_seconds{silo=s2}": {
            "count": 4, "sum": 2.0, "mean": 0.5,
            "min": 0.2, "max": 0.9, "p50": 0.5, "p99": 0.9,
        },
    }
    flat = flatten_snapshot(snapshot)
    # Quantiles/means take the worst across label sets; counts add.
    assert flat["runtime.ask_latency_seconds.p99"] == 0.9
    assert flat["runtime.ask_latency_seconds.p50"] == 0.5
    assert flat["runtime.ask_latency_seconds.mean"] == 0.5
    assert flat["runtime.ask_latency_seconds.count"] == 14
    assert "runtime.ask_latency_seconds.sum" not in flat


def test_flatten_skips_nan_probe_values():
    snapshot = {"runtime.dead_probe": math.nan, "runtime.alive": 1.0}
    assert flatten_snapshot(snapshot) == {"runtime.alive": 1.0}


def test_default_prefixes_cover_the_platform_subsystems():
    for prefix in ("runtime.", "silo.", "health.", "profile.", "cluster."):
        assert prefix in TELEMETRY_PREFIXES


# -- a tiny real runtime for the actor tests -----------------------------------


@pytest.fixture()
def cluster(sched):
    config = RuntimeConfig(
        default_method_cost=0.0, activation_cost=0.0, copy_messages=False
    )
    runtime = AodbRuntime(
        sched,
        config=config,
        network=Network(sched, lan=ConstantLatency(0.0)),
    )
    runtime.add_silo("s1", cores=2)
    runtime.add_silo("s2", cores=2)
    return sched, runtime


def test_silo_monitor_records_and_answers_range_queries(cluster):
    scheduler, runtime = cluster
    pump = TelemetryPump(runtime)
    pump.install()

    async def run():
        ref = runtime.ref("SiloMonitor", "s1")
        await ref.configure(window_capacity=16)
        await ref.record(1.0, {"runtime.asks": 5.0})
        await ref.record(2.0, {"runtime.asks": 8.0, "runtime.tells": 1.0})
        assert await ref.series_names() == ["runtime.asks", "runtime.tells"]
        assert await ref.query_range("runtime.asks", 0.0, 10.0) == [
            (1.0, 5.0), (2.0, 8.0),
        ]
        assert await ref.query_range("runtime.asks", 1.5, 10.0) == [(2.0, 8.0)]
        assert await ref.query_range("unknown", 0.0, 10.0) == []
        assert await ref.latest("runtime.asks") == (2.0, 8.0)
        assert await ref.latest("unknown") is None
        info = await ref.describe()
        assert info["series"] == 2
        assert info["window_capacity"] == 16

    scheduler.run_until_complete(run())


def test_silo_monitor_caps_series_cardinality(cluster):
    scheduler, runtime = cluster
    TelemetryPump(runtime).install()

    async def run():
        ref = runtime.ref("SiloMonitor", "s1")
        await ref.configure(max_series=2)
        stored = await ref.record(
            1.0, {"runtime.a": 1.0, "runtime.b": 2.0, "runtime.c": 3.0}
        )
        assert stored == 2
        info = await ref.describe()
        assert info["series"] == 2
        assert info["series_dropped"] == 1
        # Known series keep recording; the dropped one stays dropped.
        await ref.record(2.0, {"runtime.a": 4.0, "runtime.c": 5.0})
        assert await ref.query_range("runtime.a", 0.0, 9.0) == [
            (1.0, 1.0), (2.0, 4.0),
        ]
        assert await ref.query_range("runtime.c", 0.0, 9.0) == []

    scheduler.run_until_complete(run())


def test_aggregator_bounded_bucket_retention(cluster):
    scheduler, runtime = cluster
    TelemetryPump(runtime).install()

    async def run():
        ref = runtime.ref("TelemetryAggregator", "cluster")
        await ref.configure(bucket_seconds=5.0, max_buckets=3)
        # Ten bucket-widths of samples: only the newest three survive.
        for tick in range(10):
            await ref.merge(tick * 5.0, {"runtime.asks": float(tick)})
        series = await ref.series("runtime.asks", 0.0, 100.0)
        assert [bucket for bucket, _ in series] == [7, 8, 9]
        assert await ref.stats_at("runtime.asks", 0.0) is None
        newest = await ref.stats_at("runtime.asks", 45.0)
        assert newest["count"] == 1

    scheduler.run_until_complete(run())


def test_aggregator_buckets_and_alert_log(cluster):
    scheduler, runtime = cluster
    TelemetryPump(runtime).install()

    async def run():
        ref = runtime.ref("TelemetryAggregator", "cluster")
        await ref.configure(bucket_seconds=5.0, max_alerts=2)
        await ref.merge(1.0, {"runtime.asks": 10.0})
        await ref.merge(2.0, {"runtime.asks": 20.0})
        await ref.merge(7.0, {"runtime.asks": 30.0})
        assert await ref.metric_names() == ["runtime.asks"]
        series = await ref.series("runtime.asks", 0.0, 10.0)
        assert len(series) == 2  # two 5-second buckets
        first = await ref.stats_at("runtime.asks", 2.0)
        assert first["count"] == 2
        assert first["mean"] == pytest.approx(15.0)
        assert await ref.stats_at("runtime.asks", 100.0) is None
        assert await ref.stats_at("unknown", 0.0) is None
        # Alert log is bounded, oldest dropped first.
        for index in range(3):
            await ref.record_alert({"rule": f"r{index}", "state": "firing"})
        alerts = await ref.alerts()
        assert [a["rule"] for a in alerts] == ["r1", "r2"]
        assert await ref.alerts(limit=0) == []
        info = await ref.describe()
        assert info["samples"] == 3
        assert info["alerts"] == 2

    scheduler.run_until_complete(run())


def test_pump_ships_snapshots_matching_actor_history(cluster):
    scheduler, runtime = cluster
    runtime.stats.asks += 0  # touch, so the registry has runtime counters
    pump = TelemetryPump(runtime, interval=1.0)

    async def run():
        shipment = await pump.tick()
        now = scheduler.now
        # Every per-silo shipment is stored verbatim and queryable by ask.
        for silo_id in ("s1", "s2"):
            values = shipment[silo_id]
            assert values, "per-silo snapshot should not be empty"
            ref = runtime.ref("SiloMonitor", silo_id)
            for metric, value in values.items():
                assert await ref.latest(metric) == (now, value)
        # The cluster-wide rollup landed in the aggregator.
        cluster_values = shipment["cluster"]
        aggregator = runtime.ref("TelemetryAggregator", pump.aggregator_id)
        names = await aggregator.metric_names()
        for metric in cluster_values:
            assert metric in names
        assert pump.ticks == 1
        assert pump.tick_errors == 0

    pump.install()
    scheduler.run_until_complete(run())


def test_pump_loop_ticks_on_virtual_timer(cluster):
    scheduler, runtime = cluster
    pump = TelemetryPump(runtime, interval=1.0)
    pump.start()
    with pytest.raises(RuntimeError, match="already started"):
        pump.start()

    async def run():
        await scheduler.sleep(3.5)

    scheduler.run_until_complete(run())
    pump.stop()
    assert pump.ticks == 3
    ticks_after_stop = pump.ticks

    async def idle():
        await scheduler.sleep(5.0)

    scheduler.run_until_complete(idle())
    assert pump.ticks == ticks_after_stop


def test_pump_rejects_nonpositive_interval(cluster):
    _scheduler, runtime = cluster
    with pytest.raises(ValueError, match="positive"):
        TelemetryPump(runtime, interval=0.0)


def test_pump_forwards_health_alerts_into_aggregator(cluster):
    scheduler, runtime = cluster
    rule = SloRule(name="depth", metric="queue.depth", op=">", threshold=5.0)
    monitor = HealthMonitor(runtime.metrics, [rule])
    pump = TelemetryPump(runtime, interval=1.0, monitor=monitor)
    pump.start()
    gauge = runtime.metrics.gauge("queue.depth")

    async def run():
        gauge.set(9.0)
        monitor.evaluate(scheduler.now)  # emits "firing" → listener tells
        gauge.set(0.0)
        monitor.evaluate(scheduler.now)  # emits "cleared"
        await scheduler.sleep(1.5)  # drain the one-way tells + one tick
        aggregator = runtime.ref("TelemetryAggregator", pump.aggregator_id)
        log = await aggregator.alerts()
        assert [(a["rule"], a["state"]) for a in log] == [
            ("depth", "firing"), ("depth", "cleared"),
        ]

    scheduler.run_until_complete(run())
    pump.stop()
    # stop() unsubscribes: further alerts no longer reach the pump.
    assert pump._on_alert not in monitor.listeners


def test_telemetry_metrics_probes_registered(cluster):
    scheduler, runtime = cluster
    pump = TelemetryPump(runtime)
    pump.install()
    pump.install()  # idempotent
    snapshot = runtime.metrics.snapshot()
    assert snapshot["telemetry.ticks"] == 0
    assert snapshot["telemetry.tick_errors"] == 0
