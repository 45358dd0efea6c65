"""Unit tests for the flight recorder: rings, retention, postmortems."""

import pytest

from repro.kernel import Scheduler
from repro.net import ConstantLatency, Network
from repro.obs.health import HealthMonitor, SloRule
from repro.obs.recorder import (
    ANOMALY_KINDS,
    FlightRecorder,
    RecorderConfig,
    RingJournal,
    _LatencyReservoir,
    render_postmortem,
)
from repro.aodb import AodbDatabase, ViewDef
from repro.obs.trace import SPAN_KINDS, Tracer
from repro.runtime import Actor, AodbRuntime, RuntimeConfig, WritePolicy
from repro.storage import ChaosKVStore, InMemoryKVStore, ProvisionedKVStore


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0


def make_recorder(clock=None, **knobs):
    clock = clock or FakeClock()
    return clock, FlightRecorder(clock, RecorderConfig(**knobs))


def make_traced(recorder):
    """A tracer routing completed root traces into ``recorder``."""
    tracer = Tracer(enabled=True)
    tracer.recorder = recorder
    return tracer


def finish_trace(tracer, clock, kind="ask", status="ok", error="",
                 duration=0.01, child_kind=None, child_error="",
                 attempt=0):
    """Drive one two-span trace through the tracer; returns the root."""
    start = clock.now
    root = tracer.begin("Actor/1.method", kind, "client", start)
    child = tracer.begin(
        "Actor/2.child", child_kind or "tell", "Actor/1", start, parent=root
    )
    child.attempt = attempt
    tracer.finish(child, start + duration / 2, error=child_error)
    clock.now = start + duration
    tracer.finish(root, clock.now, status=status, error=error)
    return root


# -- ring journals --------------------------------------------------------


def test_ring_wraps_and_returns_oldest_first():
    clock = FakeClock()
    ring = RingJournal("test", clock, capacity=8)
    for i in range(11):
        clock.now = float(i)
        ring.record("event", i)
    entries = ring.entries()
    assert len(entries) == 8 == len(ring)
    # The three oldest events were overwritten by the wrap.
    assert [a for _t, _k, a, _b in entries] == list(range(3, 11))
    assert [t for t, _k, _a, _b in entries] == [float(i) for i in range(3, 11)]
    assert [a for _t, _k, a, _b in ring.entries(last=2)] == [9, 10]


def test_ring_clear():
    clock = FakeClock()
    ring = RingJournal("test", clock, capacity=8)
    ring.record("a")
    ring.clear()
    assert ring.entries() == [] and len(ring) == 0
    ring.record("b")
    assert [kind for _t, kind, _a, _b in ring.entries()] == ["b"]


def test_ring_rejects_tiny_capacity():
    with pytest.raises(ValueError, match=">= 8"):
        RingJournal("test", FakeClock(), capacity=4)


def test_config_validation():
    with pytest.raises(ValueError, match="ring_size"):
        RecorderConfig(ring_size=4).validate()
    with pytest.raises(ValueError, match="tail_keep_rate"):
        RecorderConfig(tail_keep_rate=1.5).validate()
    with pytest.raises(ValueError, match="max_postmortems"):
        RecorderConfig(max_postmortems=0).validate()


# -- latency reservoir ----------------------------------------------------


def test_reservoir_is_deterministic_per_seed():
    def fill(seed):
        reservoir = _LatencyReservoir(16, seed, refresh=8)
        for i in range(200):
            reservoir.observe((i * 7919 % 100) / 1000.0)
        return reservoir._samples, reservoir.p99()

    assert fill(42) == fill(42)
    assert fill(42) != fill(43)


def test_reservoir_p99_without_samples_is_infinite():
    assert _LatencyReservoir(16, 0).p99() == float("inf")


# -- tail-based retention -------------------------------------------------


def test_healthy_traces_downsample_to_a_counter():
    clock, recorder = make_recorder()
    tracer = make_traced(recorder)
    for _ in range(10):
        finish_trace(tracer, clock)
    assert recorder.completed_traces == 10
    assert recorder.downsampled_traces == 10
    assert recorder.retained() == []
    assert recorder.downsampled_by_kind == {"ask": 10}
    # Spans routed to the recorder, not accumulated in the tracer.
    assert len(tracer) == 0
    assert tracer.dropped == 0


def test_error_statuses_and_retries_are_retained():
    clock, recorder = make_recorder()
    tracer = make_traced(recorder)
    finish_trace(tracer, clock, status="error", error="boom")
    finish_trace(tracer, clock, child_error="deadline")
    finish_trace(tracer, clock, attempt=1)
    reasons = [rt.reason for rt in recorder.retained()]
    assert reasons == ["status:error", "span-error", "span-error"]
    retained = recorder.retained()[0]
    assert recorder.retained_trace(retained.trace_id) is retained
    assert len(retained.spans) == 2
    # Spans come back in causal (start, span_id) order.
    assert [s.span_id for s in retained.spans] == sorted(
        s.span_id for s in retained.spans
    )


def test_anomaly_kinds_are_retained():
    assert ANOMALY_KINDS <= set(SPAN_KINDS)
    clock, recorder = make_recorder()
    tracer = make_traced(recorder)
    for kind in sorted(ANOMALY_KINDS):
        finish_trace(tracer, clock, child_kind=kind)
    assert sorted(rt.reason for rt in recorder.retained()) == sorted(
        f"anomaly:{kind}" for kind in ANOMALY_KINDS
    )
    assert recorder.anomalous() == recorder.retained()


def test_p99_outliers_are_retained_after_warmup():
    clock, recorder = make_recorder(min_latency_samples=16, p99_refresh=4)
    tracer = make_traced(recorder)
    for _ in range(32):
        finish_trace(tracer, clock, duration=0.01)
    assert recorder.retained() == []  # all healthy, all near p50
    finish_trace(tracer, clock, duration=5.0)
    assert [rt.reason for rt in recorder.retained()] == ["p99:ask"]
    # The outlier was scored against *prior* history, then fed back in;
    # an equally slow successor still trips the (refreshed) estimate.
    for _ in range(8):
        finish_trace(tracer, clock, duration=0.01)
    finish_trace(tracer, clock, duration=50.0)
    assert [rt.reason for rt in recorder.retained()] == ["p99:ask", "p99:ask"]


def test_tail_sampling_keeps_a_deterministic_one_in_n():
    clock, recorder = make_recorder(tail_keep_rate=0.25)
    tracer = make_traced(recorder)
    for _ in range(20):
        finish_trace(tracer, clock)
    samples = [rt for rt in recorder.retained() if rt.reason == "tail-sample"]
    assert len(samples) == 5  # traces 1, 5, 9, 13, 17
    assert recorder.anomalous() == []
    assert recorder.downsampled_traces == 15


def test_retained_store_evicts_fifo():
    clock, recorder = make_recorder(max_retained=3)
    tracer = make_traced(recorder)
    roots = [
        finish_trace(tracer, clock, status="error", error="boom")
        for _ in range(5)
    ]
    kept = recorder.retained()
    assert len(kept) == 3
    assert [rt.trace_id for rt in kept] == [r.trace_id for r in roots[-3:]]
    assert recorder.retained_evicted == 2
    assert recorder.retained_trace(roots[0].trace_id) is None


def test_clear_resets_everything():
    clock, recorder = make_recorder(tail_keep_rate=1.0)
    tracer = make_traced(recorder)
    finish_trace(tracer, clock)
    recorder.journal("kernel").record("x")
    recorder.record_incident("test", {})
    recorder.clear()
    assert recorder.completed_traces == 0
    assert recorder.retained() == []
    assert recorder.postmortems == []
    assert recorder.ring_entries() == 0


# -- postmortems ----------------------------------------------------------


def test_postmortem_merges_rings_and_traces_in_causal_order():
    clock, recorder = make_recorder()
    tracer = make_traced(recorder)
    clock.now = 1.0
    recorder.journal("kernel").record("timer-fire", 7)
    clock.now = 2.0
    finish_trace(tracer, clock, status="error", error="boom", duration=0.5)
    clock.now = 3.0
    recorder.journal("net").record("partition-block", "a", "b")
    clock.now = 4.0
    postmortem = recorder.record_incident(
        "alert", {"rule": "r", "at": 3.5}
    )
    times = [t for t, _s, _t2 in postmortem.timeline]
    assert times == sorted(times)
    sources = postmortem.sources()
    retained = recorder.retained()[0]
    assert sources == {"trigger", "kernel", "net", f"trace:{retained.trace_id}"}
    # The full trace rides along: marker + one line per span.
    trace_lines = [
        text for _t, s, text in postmortem.timeline
        if s == f"trace:{retained.trace_id}"
    ]
    assert len(trace_lines) == 1 + len(retained.spans)
    assert any(
        line.startswith("retained (status:error)") for line in trace_lines
    )
    # The trigger line lands at its own timestamp, not snapshot time.
    trigger_entry = next(e for e in postmortem.timeline if e[1] == "trigger")
    assert trigger_entry[0] == 3.5
    assert postmortem.at == 4.0
    rendered = render_postmortem(postmortem)
    assert "== postmortem @" in rendered
    assert "rule=r" in rendered
    assert postmortem.as_dict()["traces"][0]["reason"] == "status:error"


def test_postmortem_log_is_bounded():
    _clock, recorder = make_recorder(max_postmortems=2)
    assert recorder.record_incident("a") is not None
    assert recorder.record_incident("b") is not None
    assert recorder.record_incident("c") is None
    assert len(recorder.postmortems) == 2
    assert recorder.postmortems_dropped == 1


def test_pick_traces_prefers_recent_anomalies_padded_with_samples():
    clock, recorder = make_recorder(postmortem_traces=3, tail_keep_rate=1.0)
    tracer = make_traced(recorder)
    finish_trace(tracer, clock)  # tail-sample
    finish_trace(tracer, clock)  # tail-sample
    finish_trace(tracer, clock, status="error", error="boom")
    picked = recorder.record_incident("x").traces
    assert len(picked) == 3
    assert sorted(rt.reason for rt in picked) == [
        "status:error", "tail-sample", "tail-sample",
    ]
    # Chronological within the postmortem.
    assert [rt.retained_at for rt in picked] == sorted(
        rt.retained_at for rt in picked
    )


# -- wiring ---------------------------------------------------------------


class DurableNote(Actor):
    durable = True
    write_policy = WritePolicy.ON_DEACTIVATE

    async def set(self, value):
        self.state["value"] = value
        self.mark_dirty()
        return value


class Meter(Actor):
    """A minimal view source: emits one delta per added point batch."""

    async def add(self, points):
        views = self.context.runtime.database.views
        await self.context.runtime.scheduler.gather(
            views.emit_from(self, {"c0": points})
        )
        return len(points)


def make_runtime(scheduler=None, grain_storage=None, tracing=True):
    scheduler = scheduler or Scheduler()
    runtime = AodbRuntime(
        scheduler,
        config=RuntimeConfig(default_method_cost=0.0, activation_cost=0.0),
        grain_storage=grain_storage,
        network=Network(scheduler, lan=ConstantLatency(0.0)),
        tracer=Tracer(enabled=tracing),
    )
    runtime.add_silo("s1", cores=2)
    runtime.add_silo("s2", cores=2)
    runtime.register_actor(DurableNote)
    return runtime


def ring_kinds(ring):
    return [kind for _t, kind, _a, _b in ring.entries()]


def test_attach_wires_tracer_journals_and_probes():
    runtime = make_runtime()
    scheduler = runtime.scheduler
    recorder = FlightRecorder(scheduler).attach(runtime)
    names = [ring.name for ring in recorder.journals()]
    assert names == sorted(names)
    assert {"kernel", "net", "storage", "views", "elastic"} <= set(names)

    async def main():
        await runtime.ref("DurableNote", "n").ask("set", 1, deadline=1.0)

    scheduler.run_until_complete(main())
    # Traces route to the recorder; the ask's deadline timer lands in the
    # kernel ring.
    assert recorder.completed_traces >= 1 and len(runtime.tracer) == 0
    assert {"timer-arm", "timer-cancel"} <= set(ring_kinds(recorder.journal("kernel")))
    snapshot = runtime.metrics.snapshot()
    for probe in (
        "trace.dropped_spans",
        "trace.retained_traces",
        "recorder.downsampled_traces",
        "recorder.retained_evicted",
        "recorder.postmortems",
        "recorder.ring_entries",
    ):
        assert probe in snapshot
    with pytest.raises(RuntimeError, match="already attached"):
        recorder.attach(runtime)


def test_added_silo_gets_a_ring_and_timers_feed_the_kernel_ring():
    runtime = make_runtime()
    scheduler = runtime.scheduler
    recorder = FlightRecorder(scheduler).attach(runtime)
    runtime.add_silo("s3", cores=2)
    runtime.crash_silo("s3")
    assert ring_kinds(recorder.silo_journal("s3")) == ["silo-crash"]
    assert recorder.postmortems[-1].trigger["silo"] == "s3"

    # Explicit timers record both edges (fused sleeps skip the arm hook).
    handle = scheduler.call_later(0.2, lambda: None)
    scheduler.call_later(0.3, lambda: None)
    handle.cancel()

    async def tick():
        await scheduler.sleep(0.5)

    scheduler.run_until_complete(tick())
    kinds = set(ring_kinds(recorder.journal("kernel")))
    assert {"timer-arm", "timer-fire", "timer-cancel"} <= kinds


def test_database_built_after_attach_feeds_the_views_ring():
    runtime = make_runtime(tracing=False)
    scheduler = runtime.scheduler
    recorder = FlightRecorder(scheduler).attach(runtime)
    # The database, its view and the delta flush all come after attach.
    database = AodbDatabase(runtime)
    database.register_actor(Meter)
    database.register_view(ViewDef(name="everything", source="Meter"))

    async def main():
        return await database.ref("Meter", "m1").add([(0.0, 2.0)])

    assert scheduler.run_until_complete(main()) == 1
    assert "view-flush" in ring_kinds(recorder.journal("views"))


def test_redo_journal_enabled_after_attach_feeds_the_storage_ring():
    runtime = make_runtime(tracing=False)
    scheduler = runtime.scheduler
    recorder = FlightRecorder(scheduler).attach(runtime)
    runtime.config.redo_lag = 0.1
    runtime.enable_redo_journal()

    async def main():
        await runtime.ref("DurableNote", "n").set("journalled")
        await scheduler.sleep(0.5)

    scheduler.run_until_complete(main())
    assert "wal-append" in ring_kinds(recorder.journal("storage"))


@pytest.mark.parametrize("wrapper", ["provisioned", "chaos"])
def test_fence_bounce_behind_a_wrapped_store_reaches_the_storage_ring(wrapper):
    # The zombie's scram flush bounces inside the wrapped store; the bounce
    # is recorded where the fence is stamped (the state cell), so it lands
    # in the ring no matter how many layers wrap the backing store.
    scheduler = Scheduler()
    if wrapper == "provisioned":
        store = ProvisionedKVStore(scheduler, latency=ConstantLatency(0.001))
    else:
        store = ChaosKVStore(scheduler, InMemoryKVStore())
    runtime = make_runtime(scheduler, grain_storage=store, tracing=False)
    recorder = FlightRecorder(scheduler).attach(runtime)
    key = "state/DurableNote/n"

    async def main():
        ref = runtime.ref("DurableNote", "n")
        await ref.set("zombie-view")
        silo = runtime.silo(runtime.directory.lookup(ref.key))
        zombie_fence = silo.get_activation(ref.key).instance._state_cell.fence
        successor_fence = runtime.system_store.acquire_fence(key)
        await store.advance_fence(key, successor_fence)
        await runtime.quarantine_silo(silo.silo_id)
        return zombie_fence

    zombie_fence = scheduler.run_until_complete(main())
    assert store.fenced_writes == 1
    bounces = [
        (kind, a, b)
        for _t, kind, a, b in recorder.journal("storage").entries()
        if kind == "fenced-bounce"
    ]
    assert bounces == [("fenced-bounce", key, zombie_fence)]


def test_firing_alert_snapshots_a_postmortem_cleared_does_not():
    runtime = make_runtime()
    scheduler = runtime.scheduler
    monitor = HealthMonitor(
        runtime.metrics,
        [SloRule(name="r", metric="m", op=">", threshold=0.5)],
    )
    recorder = FlightRecorder(scheduler).attach(runtime, monitor)
    gauge = runtime.metrics.gauge("m")
    gauge.set(1.0)
    monitor.evaluate(0.0)
    gauge.set(0.0)
    monitor.evaluate(1.0)
    assert len(recorder.postmortems) == 1
    assert recorder.postmortems[0].trigger["rule"] == "r"
    assert recorder.postmortems[0].trigger["state"] == "firing"
    scheduler.stop()  # never run: close the silos' queued heartbeat loops
