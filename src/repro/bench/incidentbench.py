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

The default mode renders the first partition-era postmortem
(:func:`~repro.obs.recorder.render_postmortem`) plus a run summary.
``--smoke`` additionally asserts the flight-recorder contract and is wired
into CI:

- at least one alert-triggered postmortem was captured;
- its timeline is sorted by virtual time and merges events from the
  kernel/net/storage rings *and* at least one per-silo ring (cross-silo);
- the scripted partition appears as synthesized open/heal markers;
- the triggering anomaly's retained trace rides along *in full* — the
  trace's marker plus every one of its spans appear as timeline lines;
- tail-based retention kept every anomaly (quarantine parks and the
  quarantined tenant's failed/retried asks) while downsampling the bulk of
  healthy traffic, with zero tracer drops.

Violations raise :class:`IncidentInvariantError`, failing CI loudly.
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
from .workload import synth_value

#: Health evaluation cadence: fast enough to catch the quarantine within
#: one lease, slow enough to stay a rounding error in the event count.
HEALTH_INTERVAL = 0.5

DEFAULT_SENSORS = 12
SMOKE_SENSORS = 9
DEFAULT_SEED = 404


class IncidentInvariantError(RuntimeError):
    """A flight-recorder/postmortem invariant was violated."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise IncidentInvariantError(message)


def run_incident_scenario(sensors: int, seed: int) -> dict:
    """One recorded netsplit; returns recorder, postmortems and run stats."""
    from ..shm.sensor import Sensor

    saved = (Sensor.write_policy, Sensor.write_interval_seconds)
    # The dedup watermark must survive re-placement (partition-bench rule).
    Sensor.write_policy = WritePolicy.WRITE_THROUGH
    try:
        return _run(sensors, seed)
    finally:
        Sensor.write_policy, Sensor.write_interval_seconds = saved


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

    from ..shm.platform import channel_id_for

    async def one_insert(sensor_id: str, wave_time: float) -> None:
        batches = {
            channel_id_for(sensor_id, channel): [
                (wave_time, synth_value(channel, wave_time))
            ]
            for channel in (0, 1)
        }
        counters["attempted"] += 1
        try:
            await platform.ingest(sensor_id, batches)
        except ReproError:
            return
        counters["succeeded"] += 1

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

    scheduler.run_until_complete(fleet())
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
    raise IncidentInvariantError(
        "no alert-triggered postmortem was captured during the partition"
    )


def _check_invariants(result: dict) -> Postmortem:
    """Assert the smoke contract; returns the audited postmortem."""
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
    return postmortem


def run_incident_bench(smoke: bool = False) -> str:
    """The ``python -m repro.bench incident`` entry point."""
    sensors = SMOKE_SENSORS if smoke else DEFAULT_SENSORS
    result = run_incident_scenario(sensors, DEFAULT_SEED)
    lines: list[str] = []
    if smoke:
        postmortem = _check_invariants(result)
    else:
        postmortem = _partition_postmortem(result)
    lines.append(render_postmortem(postmortem, max_lines=60))
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
    if smoke:
        lines.append("")
        lines.append(
            "SMOKE OK: postmortem timeline ordered, cross-silo, carries the "
            "full anomaly trace"
        )
    return "\n".join(lines)
