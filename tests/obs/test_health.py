"""Unit tests for the SLO health monitor: rules, hysteresis, alerts."""

import math

import pytest

from repro.kernel.scheduler import Scheduler
from repro.obs.health import Alert, HealthMonitor, SloRule, default_slo_rules
from repro.obs.metrics import MetricsRegistry


def make_monitor(rules, registry=None):
    registry = registry or MetricsRegistry()
    return registry, HealthMonitor(registry, rules)


def test_rule_validation_rejects_bad_fields():
    with pytest.raises(ValueError, match="unknown op"):
        SloRule(name="r", metric="m", op="==").validate()
    with pytest.raises(ValueError, match="unknown mode"):
        SloRule(name="r", metric="m", mode="delta").validate()
    with pytest.raises(ValueError, match="unknown aggregate"):
        SloRule(name="r", metric="m", aggregate="avg").validate()
    with pytest.raises(ValueError, match="negative hysteresis"):
        SloRule(name="r", metric="m", for_seconds=-1.0).validate()


def test_duplicate_rule_names_rejected():
    rules = [SloRule(name="r", metric="a"), SloRule(name="r", metric="b")]
    with pytest.raises(ValueError, match="duplicate"):
        HealthMonitor(MetricsRegistry(), rules)


def test_value_rule_fires_and_clears_on_transitions_only():
    registry, monitor = make_monitor(
        [SloRule(name="depth", metric="queue.depth", op=">", threshold=5.0)]
    )
    gauge = registry.gauge("queue.depth")
    gauge.set(3.0)
    assert monitor.evaluate(0.0) == []
    gauge.set(9.0)
    emitted = monitor.evaluate(1.0)
    assert [a.state for a in emitted] == ["firing"]
    assert emitted[0].value == 9.0
    assert monitor.active() == ["depth"]
    # Still breaching: no re-emission while firing.
    assert monitor.evaluate(2.0) == []
    gauge.set(1.0)
    cleared = monitor.evaluate(3.0)
    assert [a.state for a in cleared] == ["cleared"]
    assert monitor.active() == []
    # Stable below threshold: again nothing.
    assert monitor.evaluate(4.0) == []
    assert len(monitor.alerts) == 2


def test_hysteresis_delays_firing_and_clearing():
    registry, monitor = make_monitor(
        [
            SloRule(
                name="lat",
                metric="lat",
                op=">",
                threshold=1.0,
                for_seconds=2.0,
                clear_seconds=2.0,
            )
        ]
    )
    gauge = registry.gauge("lat")
    gauge.set(5.0)
    assert monitor.evaluate(0.0) == []  # breach starts, not sustained yet
    assert monitor.evaluate(1.0) == []
    assert [a.state for a in monitor.evaluate(2.0)] == ["firing"]
    gauge.set(0.0)
    assert monitor.evaluate(3.0) == []  # recovery starts, not sustained yet
    assert monitor.evaluate(4.0) == []
    assert [a.state for a in monitor.evaluate(5.0)] == ["cleared"]


def test_hysteresis_resets_on_flap():
    registry, monitor = make_monitor(
        [SloRule(name="r", metric="m", op=">", threshold=1.0, for_seconds=2.0)]
    )
    gauge = registry.gauge("m")
    gauge.set(5.0)
    monitor.evaluate(0.0)
    gauge.set(0.0)
    monitor.evaluate(1.0)  # dips below: breach window resets
    gauge.set(5.0)
    assert monitor.evaluate(2.5) == []  # new breach only 0s old
    assert [a.state for a in monitor.evaluate(4.5)] == ["firing"]


def test_rate_mode_needs_two_samples():
    registry, monitor = make_monitor(
        [
            SloRule(
                name="goodput",
                metric="ingest.accepted",
                mode="rate",
                op="<",
                threshold=10.0,
            )
        ]
    )
    counter = registry.counter("ingest.accepted")
    counter.inc(100.0)
    assert monitor.evaluate(0.0) == []  # first sample: no rate yet
    assert math.isnan(monitor.last_value("goodput"))
    counter.inc(5.0)  # 5 events over 1s → rate 5 < 10 → breach
    emitted = monitor.evaluate(1.0)
    assert [a.state for a in emitted] == ["firing"]
    assert emitted[0].value == pytest.approx(5.0)
    counter.inc(50.0)
    assert [a.state for a in monitor.evaluate(2.0)] == ["cleared"]


def test_value_field_reads_histogram_summaries():
    registry, monitor = make_monitor(
        [
            SloRule(
                name="p99",
                metric="ask.latency",
                value_field="p99",
                op=">",
                threshold=0.5,
            )
        ]
    )
    histogram = registry.histogram("ask.latency")
    for _ in range(100):
        histogram.observe(2.0)
    emitted = monitor.evaluate(0.0)
    assert [a.state for a in emitted] == ["firing"]
    assert monitor.last_value("p99") == pytest.approx(2.0)


def test_aggregate_max_across_label_sets():
    registry, monitor = make_monitor(
        [
            SloRule(
                name="backlog",
                metric="silo.mailbox_depth",
                aggregate="max",
                op=">",
                threshold=10.0,
            )
        ]
    )
    registry.gauge("silo.mailbox_depth", silo="s1").set(2.0)
    registry.gauge("silo.mailbox_depth", silo="s2").set(50.0)
    emitted = monitor.evaluate(0.0)
    assert [a.state for a in emitted] == ["firing"]
    assert emitted[0].value == 50.0


def test_absent_metric_is_skipped_not_breached():
    _registry, monitor = make_monitor(
        [SloRule(name="ghost", metric="not.deployed", op=">", threshold=0.0)]
    )
    assert monitor.evaluate(0.0) == []
    assert monitor.active() == []
    assert math.isnan(monitor.last_value("ghost"))


def test_alert_log_is_bounded():
    registry, monitor = make_monitor(
        [SloRule(name="r", metric="m", op=">", threshold=0.5)],
    )
    monitor.max_alerts = 3
    gauge = registry.gauge("m")
    for tick in range(4):  # 4 fire + 4 clear transitions = 8 alerts
        gauge.set(1.0)
        monitor.evaluate(float(2 * tick))
        gauge.set(0.0)
        monitor.evaluate(float(2 * tick + 1))
    assert len(monitor.alerts) == 3
    assert monitor.alerts_dropped == 5
    # The log keeps the most recent transitions.
    assert monitor.alerts[-1].state == "cleared"
    assert monitor.alerts[-1].at == 7.0


def test_listeners_receive_every_alert():
    registry, monitor = make_monitor(
        [SloRule(name="r", metric="m", op=">", threshold=0.5)]
    )
    seen: list[Alert] = []
    monitor.listeners.append(seen.append)
    gauge = registry.gauge("m")
    gauge.set(1.0)
    monitor.evaluate(0.0)
    gauge.set(0.0)
    monitor.evaluate(1.0)
    assert [a.state for a in seen] == ["firing", "cleared"]
    assert seen[0].as_dict()["rule"] == "r"


def test_monitor_probes_registered():
    registry, monitor = make_monitor(
        [SloRule(name="r", metric="m", op=">", threshold=0.5)]
    )
    registry.gauge("m").set(1.0)
    monitor.evaluate(0.0)
    snapshot = registry.snapshot()
    assert snapshot["health.active_alerts"] == 1
    assert snapshot["health.alerts_emitted"] == 1
    assert snapshot["health.evaluations"] == 1


def test_attach_evaluates_on_virtual_timer():
    scheduler = Scheduler()
    registry, monitor = make_monitor(
        [SloRule(name="r", metric="m", op=">", threshold=0.5)]
    )
    registry.gauge("m").set(2.0)
    monitor.attach(scheduler, interval=0.5)
    with pytest.raises(RuntimeError, match="already attached"):
        monitor.attach(scheduler, interval=0.5)

    async def run():
        await scheduler.sleep(2.1)

    scheduler.run_until_complete(run())
    monitor.detach()
    monitor.detach()  # idempotent
    assert monitor.evaluations == 4
    assert monitor.active() == ["r"]
    # Detached: virtual time advancing evaluates nothing further.
    async def idle():
        await scheduler.sleep(5.0)

    scheduler.run_until_complete(idle())
    assert monitor.evaluations == 4


def test_attach_rejects_nonpositive_interval():
    _registry, monitor = make_monitor([])
    with pytest.raises(ValueError, match="positive"):
        monitor.attach(Scheduler(), interval=0.0)


def test_default_rules_are_valid_and_cover_the_objectives():
    rules = default_slo_rules()
    names = {rule.name for rule in rules}
    assert names == {
        "ask-p99-latency",
        "heartbeat-misses",
        "silo-quarantined",
        "mailbox-backlog",
        "error-rate",
        "cluster-imbalance",
        "trace-drops",
        "view-staleness",
        "tsblocks-head-memory",
    }
    # Constructible on an empty registry, and safe to evaluate.
    _registry, monitor = make_monitor(rules)
    assert monitor.evaluate(0.0) == []
