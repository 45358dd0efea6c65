"""Integration: profiled fig6-style run, and SLO alerts under chaos.

Two acceptance criteria live here:

- the continuous profiler attributes ≥ 95% of the kernel's virtual-CPU
  ledger on the paper's fig6-style workload (exact attribution — in
  practice it matches the ledger to float precision);
- at least one SLO alert fires *and clears* under injected faults: a
  silently-crashed silo stops heartbeating, the ``heartbeat-misses`` rule
  fires while membership suspects it, and clears once the failure detector
  declares it dead and repairs the cluster view.
"""

import pytest

from repro.bench.profilebench import COVERAGE_FLOOR, check_invariants, run_scenario
from repro.kernel import Scheduler
from repro.net import ConstantLatency, Network
from repro.obs.health import HealthMonitor, default_slo_rules
from repro.runtime import AodbRuntime, RuntimeConfig
from repro.storage.system_store import SystemStore


@pytest.fixture(scope="module")
def scenario():
    return run_scenario(sensors=6, duration=3.0)


def test_attribution_covers_kernel_cpu_ledger(scenario):
    report = scenario.report
    assert report.turns > 0
    assert report.total_cpu_seconds > 0
    assert COVERAGE_FLOOR <= report.coverage <= 1.0 + 1e-6
    # Exact attribution: the method rows reproduce the kernel's own ledger.
    assert report.attributed_cpu_seconds == pytest.approx(
        report.total_cpu_seconds
    )


def test_workload_actors_appear_in_method_rows(scenario):
    labels = [row.label for row in scenario.report.rows]
    assert any("SensorChannel" in label for label in labels)
    # Telemetry is self-hosted: its actors are profiled like any tenant.
    assert any(label.startswith("SiloMonitor.") for label in labels)


def test_queue_and_storage_waits_are_attributed(scenario):
    rows = scenario.report.rows
    assert sum(row.queue_wait for row in rows) >= 0.0
    assert all(row.calls > 0 for row in rows)


def test_health_and_telemetry_ran_alongside(scenario):
    assert scenario.monitor.evaluations > 0
    assert scenario.pump.ticks > 0
    assert scenario.aggregator_series  # cluster history exists
    for points in scenario.monitor_history.values():
        assert points  # per-silo history answers range queries


def test_smoke_invariants_hold(scenario):
    assert check_invariants(scenario) == []


def test_slo_alert_fires_and_clears_under_injected_silo_crash():
    """Chaos-injected fault → typed alert lifecycle, end to end.

    Timeline (virtual seconds, lease 2s, grace 2s, detector every 0.5s):
    t=1   silo-2 crashes silently (heartbeat stops, membership unaware)
    t≤3   lease lapses → status "suspected" → heartbeat-misses FIRES
    t≈5   detector sees grace expired → silo declared dead and evicted
          → suspected count drops to 0 → heartbeat-misses CLEARS
    """
    scheduler = Scheduler()
    runtime = AodbRuntime(
        scheduler,
        config=RuntimeConfig(
            failure_detection_interval=0.5,
            suspicion_grace=2.0,
        ),
        network=Network(scheduler, lan=ConstantLatency(0.0)),
        system_store=SystemStore(scheduler, lease_seconds=2.0),
    )
    runtime.add_silo("s1", cores=2)
    runtime.add_silo("s2", cores=2)
    runtime.start()
    monitor = HealthMonitor(runtime.metrics, default_slo_rules())
    monitor.attach(scheduler, interval=0.25)

    async def run():
        await scheduler.sleep(1.0)
        assert monitor.active() == []  # heartbeats flowing, all healthy
        runtime.crash_silo("s2", detected=False)
        await scheduler.sleep(3.0)  # lease lapses within 2s of the crash
        assert "heartbeat-misses" in monitor.active()
        await scheduler.sleep(4.0)  # detector evicts after the grace period
        assert monitor.active() == []

    scheduler.run_until_complete(run())
    monitor.detach()
    transitions = [
        (alert.rule, alert.state)
        for alert in monitor.alerts
        if alert.rule == "heartbeat-misses"
    ]
    assert transitions == [
        ("heartbeat-misses", "firing"),
        ("heartbeat-misses", "cleared"),
    ]
    firing = next(a for a in monitor.alerts if a.state == "firing")
    assert firing.severity == "critical"
    assert firing.value >= 1.0
    # The detector really did evict the crashed silo.
    assert [silo.silo_id for silo in runtime.silos()] == ["s1"]
    assert runtime.system_store.status_of("s2") == "dead"
