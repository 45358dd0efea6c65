"""Profiled demonstration run: who ate the cluster, and was it healthy.

``python -m repro.bench profile`` provisions a small deployment with the
continuous profiler on, drives the paper's fig6-style workload (sensor
insert waves plus user queries) with the SLO health monitor and the
self-hosted telemetry pump running, then renders:

- the flame-style per-(actor class, method) CPU attribution report with
  hot activations and mailbox backlogs (:mod:`repro.obs.profile`);
- the health monitor's rule states and alert history
  (:mod:`repro.obs.health`);
- a summary of the telemetry actors' self-ingested history, including a
  range query answered by an ordinary actor ask
  (:mod:`repro.obs.telemetry`);
- the metrics appendix.

Every run verifies the profiling invariants — attribution coverage ≥ 95%
of the kernel CPU ledger, health rules actually evaluated, telemetry
history matching what the pump shipped; ``--smoke`` shrinks the scenario,
making it a cheap CI gate for the profiling/health/telemetry layer.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..obs.health import HealthMonitor, default_slo_rules
from ..obs.profile import ProfileReport, build_report
from ..obs.render import render_health, render_profile
from ..obs.telemetry import TelemetryPump
from .instances import M5_LARGE
from .report import format_metrics_appendix
from .workload import LoadConfig, build_deployment, provision, run_load

COVERAGE_FLOOR = 0.95  # acceptance criterion: ≥95% of kernel CPU attributed


@dataclass
class ProfileScenario:
    """A completed profiled run, ready to render or assert against."""

    sensors: int
    duration: float
    report: ProfileReport
    monitor: HealthMonitor
    pump: TelemetryPump
    last_shipment: dict[str, dict[str, float]]
    monitor_history: dict[str, list[tuple[float, float]]]
    aggregator_series: list[str]
    aggregator_info: dict
    metrics: dict


def run_scenario(
    sensors: int = 8,
    seed: int = 2019,
    duration: float = 4.0,
    health_interval: float = 0.5,
    telemetry_interval: float = 1.0,
) -> ProfileScenario:
    """Provision, then drive one profiled fig6-style run with health +
    telemetry live, and collect everything the report needs."""
    deployment = build_deployment([M5_LARGE], seed=seed, profiling=True)
    scheduler = deployment.scheduler
    runtime = deployment.runtime
    scheduler.run_until_complete(
        provision(deployment, sensors, sensors_per_org=sensors)
    )
    monitor = HealthMonitor(runtime.metrics, default_slo_rules())
    monitor.attach(scheduler, interval=health_interval)
    pump = TelemetryPump(runtime, interval=telemetry_interval, monitor=monitor)
    pump.start()
    run_load_result = scheduler.run_until_complete(
        run_load(
            deployment,
            LoadConfig(
                sensors=sensors,
                duration=duration,
                sensors_per_org=sensors,
                with_queries=True,
            ),
        )
    )

    async def final_round() -> tuple[dict, dict, list, dict]:
        # One last pump tick whose return value we keep, so the smoke check
        # can compare actor-stored history against exactly what was shipped.
        shipment = await pump.tick()
        history: dict[str, list[tuple[float, float]]] = {}
        now = scheduler.now
        for silo in runtime.silos():
            ref = runtime.ref("SiloMonitor", silo.silo_id)
            names = await ref.series_names()
            if names:
                history[silo.silo_id] = await ref.query_range(
                    names[0], 0.0, now + 1.0
                )
        aggregator = runtime.ref("TelemetryAggregator", pump.aggregator_id)
        series = await aggregator.metric_names()
        info = await aggregator.describe()
        return shipment, history, series, info

    shipment, history, series, info = scheduler.run_until_complete(final_round())
    pump.stop()
    monitor.detach()
    report = build_report(runtime.profiler, runtime.silos())
    return ProfileScenario(
        sensors=sensors,
        duration=duration,
        report=report,
        monitor=monitor,
        pump=pump,
        last_shipment=shipment,
        monitor_history=history,
        aggregator_series=series,
        aggregator_info=info,
        metrics=run_load_result.metrics,
    )


def render_telemetry_section(scenario: ProfileScenario) -> str:
    """Summarize the self-hosted telemetry history (queried via asks)."""
    info = scenario.aggregator_info
    lines = [
        "self-hosted telemetry (queried through actor asks):",
        f"  aggregator {info.get('aggregator_id')}: "
        f"{info.get('series')} series, {info.get('samples')} samples, "
        f"{info.get('alerts')} alert transitions "
        f"(bucket {info.get('bucket_seconds')}s)",
    ]
    for silo_id, points in sorted(scenario.monitor_history.items()):
        lines.append(
            f"  SiloMonitor/{silo_id}: first series has {len(points)} samples"
        )
    preview = scenario.aggregator_series[:6]
    if preview:
        lines.append("  cluster series: " + ", ".join(preview) + (
            f", … {len(scenario.aggregator_series) - len(preview)} more"
            if len(scenario.aggregator_series) > len(preview) else ""
        ))
    return "\n".join(lines)


def check_invariants(scenario: ProfileScenario) -> list[str]:
    """The bench's assertions; returns human-readable violations."""
    problems: list[str] = []
    report = scenario.report
    if report.turns <= 0:
        problems.append("profiler recorded no turns")
    if report.total_cpu_seconds <= 0:
        problems.append("kernel CPU ledger is empty — nothing ran?")
    coverage = report.coverage
    if coverage < COVERAGE_FLOOR:
        problems.append(
            f"attribution coverage {coverage * 100:.2f}% is below the "
            f"{COVERAGE_FLOOR * 100:.0f}% floor"
        )
    if coverage > 1.0 + 1e-6:
        problems.append(
            f"attribution coverage {coverage * 100:.2f}% exceeds 100% "
            "with no silo churn — double counting?"
        )
    for row in report.rows:
        for field in ("cpu_service", "cpu_wait", "queue_wait", "storage_wait"):
            if getattr(row, field) < -1e-9:
                problems.append(f"method row {row.label}: negative {field}")
    if not any("SensorChannel" in row.label or "Sensor" in row.label
               for row in report.rows):
        problems.append("no sensor actor appears in the method rows")
    if scenario.monitor.evaluations <= 0:
        problems.append("health monitor never evaluated")
    if scenario.pump.ticks <= 0:
        problems.append("telemetry pump never ticked")
    if not scenario.aggregator_series:
        problems.append("telemetry aggregator holds no series")
    # The actor-stored history must end with exactly what the pump last
    # shipped: telemetry readable through asks is the dogfooding claim.
    for silo_id, values in scenario.last_shipment.items():
        if silo_id == "cluster" or not values:
            continue
        points = scenario.monitor_history.get(silo_id)
        if not points:
            problems.append(f"SiloMonitor/{silo_id} answered an empty range")
    return problems


def run_profile_bench(smoke: bool = False) -> ProfileScenario:
    """The ``profile`` bench's run: the demo scenario, shrunk for ``--smoke``."""
    return run_scenario(
        sensors=6 if smoke else 12, duration=3.0 if smoke else 6.0
    )


def render_profile_bench(scenario: ProfileScenario) -> str:
    """CPU attribution, health, telemetry, then the metrics appendix."""
    sections = [
        f"profile: continuous profiling of a fig6-style run "
        f"({scenario.sensors} sensors, {scenario.duration:.0f}s, "
        f"queries on, health + telemetry live)",
        "",
        render_profile(scenario.report),
        "",
        render_health(scenario.monitor),
        "",
        render_telemetry_section(scenario),
        format_metrics_appendix(scenario.metrics),
    ]
    return "\n".join(sections)
