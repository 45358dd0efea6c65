"""Incident postmortem bench: a scripted netsplit read back from the recorder.

``python -m repro.bench incident`` reruns the partition bench's netsplit
scenario — three silos, one tenant pinned to the minority silo, an
eight-second split away from the system store — but with the always-on
observability stack attached: causal tracing routed through the
:class:`~repro.obs.recorder.FlightRecorder`, a
:class:`~repro.obs.health.HealthMonitor` on the stock SLO rules, and ring
journals on every subsystem.  When the minority silo loses its lease the
``silo-quarantined`` / ``heartbeat-misses`` rules fire, and each firing
transition snapshots a :class:`~repro.obs.recorder.Postmortem`: the firing
rule, the retained anomaly traces, the ring tails, and the synthesized
partition markers merged into one causally-ordered virtual-time timeline.

Both modes render the first partition-era postmortem
(:func:`~repro.obs.recorder.render_postmortem`) plus a run summary, and
assert the flight-recorder contract (``--smoke`` shrinks the fleet and is
wired into CI):

- at least one alert-triggered postmortem was captured;
- its timeline is sorted by virtual time and merges events from the
  kernel/net/storage rings *and* at least one per-silo ring (cross-silo);
- the scripted partition appears as synthesized open/heal markers;
- the triggering anomaly's retained trace rides along *in full* — the
  trace's marker plus every one of its spans appear as timeline lines;
- tail-based retention kept every anomaly (quarantine parks and the
  quarantined tenant's failed/retried asks) while downsampling the bulk of
  healthy traffic, with zero tracer drops.

Violations raise :class:`~repro.bench.workload.InvariantError`, failing CI
loudly.
"""

from __future__ import annotations

from ..errors import ReproError
from ..obs.health import HealthMonitor, default_slo_rules
from ..obs.recorder import (
    FlightRecorder,
    Postmortem,
    RecorderConfig,
    render_postmortem,
)
from ..runtime.persistence import WritePolicy
from .partition import (
    PARTITION_START,
    RUN_DURATION,
    build_netsplit_deployment,
    start_netsplit,
)
from .workload import (
    InvariantError,
    _require,
    class_attributes,
    drive_waves,
    one_point_batches,
)

#: Health evaluation cadence: fast enough to catch the quarantine within
#: one lease, slow enough to stay a rounding error in the event count.
HEALTH_INTERVAL = 0.5

DEFAULT_SENSORS = 12
SMOKE_SENSORS = 9
DEFAULT_SEED = 404


def run_incident_bench(smoke: bool = False) -> dict:
    """One recorded netsplit; returns recorder, postmortems and run stats."""
    from ..shm.sensor import Sensor

    # The dedup watermark must survive re-placement (partition-bench rule).
    with class_attributes([Sensor], write_policy=WritePolicy.WRITE_THROUGH):
        return _run(SMOKE_SENSORS if smoke else DEFAULT_SENSORS, DEFAULT_SEED)


def _run(sensors: int, seed: int) -> dict:
    deployment = build_netsplit_deployment(seed, tracing=True)
    scheduler = deployment.scheduler
    runtime = deployment.runtime
    platform = deployment.platform

    # The observability stack under test: recorder on the tracer + rings,
    # monitor on the stock rules (goodput rule neutralized — a tiny smoke
    # fleet's ingest rate is not the signal this bench probes), alerts
    # wired to snapshot postmortems.
    monitor = HealthMonitor(
        runtime.metrics, default_slo_rules(min_ingest_rate=0.0)
    )
    recorder = FlightRecorder(
        scheduler, RecorderConfig(tail_keep_rate=0.02), seed=seed
    )
    recorder.attach(runtime, monitor)
    monitor.attach(scheduler, interval=HEALTH_INTERVAL)

    t0 = start_netsplit(deployment, sensors)

    sensor_ids = deployment.report.sensor_ids
    counters = {"attempted": 0, "succeeded": 0}

    async def one_insert(sensor_id: str, wave_time: float) -> None:
        counters["attempted"] += 1
        try:
            await platform.ingest(
                sensor_id, one_point_batches(sensor_id, wave_time)
            )
        except ReproError:
            return
        counters["succeeded"] += 1

    scheduler.run_until_complete(
        drive_waves(scheduler, sensor_ids, t0 + RUN_DURATION, one_insert)
    )
    monitor.detach()
    stats = runtime.stats
    metrics = runtime.metrics.cluster_totals()
    scheduler.run_until_complete(runtime.stop())

    return {
        "recorder": recorder,
        "monitor": monitor,
        "postmortems": list(recorder.postmortems),
        "t0": t0,
        "counters": dict(counters),
        "silos_quarantined": stats.silos_quarantined,
        "silos_rejoined": stats.silos_rejoined,
        "dropped_spans": int(metrics.get("trace.dropped_spans", 0.0)),
        "retained_traces": len(recorder.retained()),
        "anomalous_traces": len(recorder.anomalous()),
        "downsampled_traces": recorder.downsampled_traces,
        "completed_traces": recorder.completed_traces,
        "ring_entries": recorder.ring_entries(),
    }


def _partition_postmortem(result: dict) -> Postmortem:
    """The first alert-triggered postmortem captured during the split."""
    window_start = result["t0"] + PARTITION_START
    for postmortem in result["postmortems"]:
        if postmortem.trigger.get("type") == "alert" and postmortem.at >= (
            window_start
        ):
            return postmortem
    raise InvariantError(
        "no alert-triggered postmortem was captured during the partition"
    )


def check_incident(result: dict) -> list[str]:
    """Assert the flight-recorder contract on one recorded netsplit."""
    _require(
        result["silos_quarantined"] >= 1,
        "netsplit never quarantined the minority silo",
    )
    _require(
        result["dropped_spans"] == 0,
        f"tracer dropped {result['dropped_spans']} spans with the recorder "
        "attached — tail-based retention must make drops impossible",
    )
    _require(
        result["anomalous_traces"] >= 1,
        "no anomalous trace was retained across the partition",
    )
    _require(
        result["downsampled_traces"] > result["retained_traces"],
        "retention kept more traces than it downsampled — the tail "
        "predicates are not selective",
    )
    postmortem = _partition_postmortem(result)
    times = [t for t, _source, _text in postmortem.timeline]
    _require(
        times == sorted(times),
        "postmortem timeline is not causally ordered by virtual time",
    )
    sources = postmortem.sources()
    for ring in ("kernel", "net", "storage"):
        _require(
            ring in sources,
            f"postmortem timeline has no events from the {ring!r} ring",
        )
    _require(
        any(source.startswith("silo:") for source in sources),
        "postmortem timeline has no per-silo ring events (not cross-silo)",
    )
    _require(
        any("partition-open" in text for _t, s, text in postmortem.timeline
            if s == "net"),
        "the scripted netsplit left no partition-open marker",
    )
    anomaly = next(
        (rt for rt in postmortem.traces if rt.reason != "tail-sample"), None
    )
    _require(
        anomaly is not None,
        "the postmortem carries no anomalous retained trace",
    )
    trace_source = f"trace:{anomaly.trace_id}"
    trace_lines = [
        text for _t, source, text in postmortem.timeline
        if source == trace_source
    ]
    # The retention marker plus one line per span: the *full* trace rode
    # along, not a summary.
    _require(
        len(trace_lines) == 1 + len(anomaly.spans),
        f"retained trace {anomaly.trace_id} is incomplete in the timeline "
        f"({len(trace_lines)} lines for {len(anomaly.spans)} spans)",
    )
    _require(
        any(line.startswith("retained") for line in trace_lines),
        "the retained trace's retention marker is missing from the timeline",
    )
    return []


def render_incident(result: dict) -> str:
    """The partition-era postmortem, then the run and recorder summary."""
    lines = [render_postmortem(_partition_postmortem(result), max_lines=60)]
    lines.append("")
    lines.append(
        f"run: {result['counters']['succeeded']}/"
        f"{result['counters']['attempted']} inserts acked, "
        f"{result['silos_quarantined']} quarantine(s), "
        f"{result['silos_rejoined']} rejoin(s)"
    )
    lines.append(
        f"recorder: {result['completed_traces']} traces completed, "
        f"{result['retained_traces']} retained "
        f"({result['anomalous_traces']} anomalous), "
        f"{result['downsampled_traces']} downsampled, "
        f"{result['dropped_spans']} dropped spans, "
        f"{len(result['postmortems'])} postmortem(s), "
        f"{result['ring_entries']} ring entries"
    )
    return "\n".join(lines)
