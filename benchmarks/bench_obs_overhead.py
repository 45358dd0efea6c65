"""Observability overhead budget.

The tracing design claims two things (DESIGN.md §6):

1. **Disabled is free**: a disabled tracer returns before doing any work
   and the per-message producers skip even the call behind a plain
   ``tracer.enabled`` read, so a run with tracing off performs *zero*
   allocations in the tracing module — verified here with tracemalloc.
2. **Enabled is cheap**: full span production (one span per message, with
   queue/cpu/network/storage attribution) costs < 5% of the paper's
   calibrated insert workload.

The 5% budget is asserted as a ratio of two *individually stable*
measurements — the per-span lifecycle cost (begin with a parent and a
lazy name, four attribution adds, finish; min over tight reps) divided by
the per-message cost of the calibrated workload (CPU seconds of the load
phase over messages sent, min over runs) — rather than by differencing
two whole-workload timings.  On a shared machine, run-to-run CPU-time
jitter is the same order as the effect being measured, so an A/B
difference of macro runs flaps; each side of this ratio, however, is a
minimum over repetitions of the same code and converges.  Direct A/B
runs on a quiet machine agree with the ratio (2–4%, see EXPERIMENTS.md).

The two sides of a ratio are measured *interleaved* (:func:`paired_costs`):
one numerator rep, then one workload run, round after round, and the best
of each side is taken over the same span.  Measured in two separate
bursts, a host that switches speed regime between them skews the ratio by
the regime change itself (on a shared 2-core VM the recorder budget read
3.9 %, 4.7 % and 6.1 % in three back-to-back computations that way).

The budget is asserted against the representative workload, not the
zero-cost ping harness: a do-nothing round trip is ~25µs of pure harness
work, so *any* per-message instrumentation would dominate it, while a
calibrated message carries CPU, network, mailbox, and storage events.

Run with: ``python -m pytest benchmarks/bench_obs_overhead.py -q``
"""

import time
import tracemalloc

from repro.bench.instances import M5_LARGE
from repro.bench.workload import LoadConfig, build_deployment, execute, provision
from repro.kernel import Future, Queue, Scheduler
from repro.net import ConstantLatency, Network
from repro.obs.health import HealthMonitor, default_slo_rules
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import Profiler
from repro.obs.recorder import FlightRecorder
from repro.obs.trace import Tracer
from repro.runtime import Actor, AodbRuntime, RuntimeConfig
from repro.runtime.key import ActorKey

SENSORS = 40
DURATION = 2.0


def run_workload(tracing: bool = False, profiling: bool = False):
    """One calibrated insert run.

    Returns (load-phase CPU seconds, messages sent during the load phase,
    runtime).  Provisioning runs before the clock starts.
    """
    deployment = build_deployment(
        [M5_LARGE], seed=7, tracing=tracing, profiling=profiling
    )
    deployment.scheduler.run_until_complete(provision(deployment, SENSORS))
    stats = deployment.runtime.stats
    before = stats.asks + stats.tells
    started = time.process_time()
    execute(deployment, LoadConfig(sensors=SENSORS, duration=DURATION))
    elapsed = time.process_time() - started
    return elapsed, stats.asks + stats.tells - before, deployment.runtime


class _Key:
    """Stands in for an ActorKey: spans format names lazily via qualified()."""

    def qualified(self):
        return "Sensor/s-1"


def span_lifecycle_cost(iterations: int = 20_000, reps: int = 7) -> float:
    """Best-case CPU seconds for one full span, attribution included."""
    tracer = Tracer(enabled=True, max_spans=iterations + 10)
    key = _Key()
    best = float("inf")
    for _ in range(reps):
        tracer.clear()
        root = tracer.begin("root", "client", "client", 0.0)
        started = time.process_time()
        for _ in range(iterations):
            span = tracer.begin(
                key, "ask", "silo-0", 0.0, parent=root, method="ingest"
            )
            span.queue += 0.001
            span.cpu += 0.002
            span.network += 0.0005
            span.storage += 0.0001
            tracer.finish(span, 0.01)
        elapsed = time.process_time() - started
        best = min(best, elapsed / iterations)
    return best


def paired_costs(numerator, rounds: int = 7) -> tuple[float, float]:
    """Best-case ``numerator()`` and per-message CPU seconds, interleaved.

    Each round runs one numerator rep and one calibrated workload run, so
    both minima are taken over the same stretch of host time.
    """
    run_workload(tracing=False)  # warm allocator, code objects, caches
    best_numerator = best_message = float("inf")
    for _ in range(rounds):
        best_numerator = min(best_numerator, numerator())
        elapsed, messages, _runtime = run_workload(tracing=False)
        assert messages > 0
        best_message = min(best_message, elapsed / messages)
    return best_numerator, best_message


def test_enabled_tracing_overhead_under_five_percent():
    """Span production costs < 5% of a calibrated message's CPU time."""
    span_cost, message_cost = paired_costs(
        lambda: span_lifecycle_cost(reps=1)
    )
    overhead = span_cost / message_cost
    assert overhead < 0.05, (
        f"tracing overhead {overhead * 100:.2f}% "
        f"(span {span_cost * 1e6:.2f}µs, message {message_cost * 1e6:.2f}µs)"
    )


def test_enabled_tracing_actually_records():
    """The cost being budgeted is real work: spans were produced."""
    _elapsed, messages, runtime = run_workload(tracing=True)
    assert len(runtime.tracer) >= messages  # one span per message, plus timers
    assert runtime.tracer.dropped == 0


# -- profiler + health overhead budget ----------------------------------------


def profiler_turn_cost(iterations: int = 20_000, reps: int = 7) -> float:
    """Best-case CPU seconds for one profiled turn.

    Reproduces exactly what an activation turn adds when the profiler is
    on: the record-pair fetch with its call/queue accumulation, and the
    kernel's service/wait attribution loop.
    """
    profiler = Profiler(enabled=True)
    key = ActorKey("Sensor", "org-0/s-1")
    best = float("inf")
    for _ in range(reps):
        profiler.clear()
        started = time.process_time()
        for _ in range(iterations):
            profiler.turns += 1
            profile = profiler.turn_records(key, "ingest", 0.001)
            for record in profile:  # the CpuResource.book hook
                record.cpu_service += 0.002
                record.cpu_wait += 0.0001
        elapsed = time.process_time() - started
        best = min(best, elapsed / iterations)
    return best


def health_eval_cost(reps: int = 200) -> float:
    """Best-case CPU seconds for one health evaluation pass.

    The registry is populated to a representative cluster size (a few
    hundred instruments) so the snapshot the monitor takes is honest.
    """
    registry = MetricsRegistry()
    for silo in range(8):
        for name in ("runtime.asks", "ingest.accepted", "runtime.errors"):
            registry.counter(name, silo=f"silo-{silo}").inc(100.0)
        registry.register_probe(
            "silo.mailbox_depth", lambda: 3.0, silo=f"silo-{silo}"
        )
    registry.histogram("runtime.ask_latency_seconds").observe(0.01)
    monitor = HealthMonitor(registry, default_slo_rules())
    monitor.evaluate(0.0)  # warm caches / first rate sample
    best = float("inf")
    for index in range(reps):
        started = time.process_time()
        monitor.evaluate(float(index + 1))
        elapsed = time.process_time() - started
        best = min(best, elapsed)
    return best


def test_enabled_profiling_and_health_overhead_under_five_percent():
    """Profiler turns + amortized health evaluation cost < 5% per message.

    Same stable-ratio methodology as the tracing budget: per-turn profiler
    cost plus the per-message share of one health evaluation (the monitor
    fires once per virtual second, amortized over that second's messages),
    divided by the calibrated per-message workload cost.
    """
    _elapsed, messages, _runtime = run_workload()
    messages_per_virtual_second = messages / DURATION
    added_cost, message_cost = paired_costs(
        lambda: profiler_turn_cost(reps=1)
        + health_eval_cost(reps=30) / messages_per_virtual_second
    )
    overhead = added_cost / message_cost
    assert overhead < 0.05, (
        f"profiling+health overhead {overhead * 100:.2f}% "
        f"(turn + health/msg {added_cost * 1e6:.2f}µs, "
        f"message {message_cost * 1e6:.2f}µs)"
    )


def test_enabled_profiling_actually_attributes():
    """The cost being budgeted is real work: attribution covers the ledger."""
    _elapsed, _messages, runtime = run_workload(profiling=True)
    profiler = runtime.profiler
    total = sum(silo.cpu.busy_seconds for silo in runtime.silos())
    assert profiler.turns > 0
    assert total > 0
    coverage = profiler.coverage(total)
    assert 0.95 <= coverage <= 1.0 + 1e-6, f"coverage {coverage:.4f}"


# -- flight-recorder overhead budget -------------------------------------------


def recorder_trace_cost(iterations: int = 20_000, reps: int = 7) -> float:
    """Best-case CPU seconds for one recorded root trace, end to end.

    Covers everything tail-based retention adds on top of plain span
    production: the ``on_begin`` buffering, the completion-time scoring
    against every predicate, the reservoir feed, and the downsample
    counter.  Healthy traces (the steady state) are measured — anomalies
    are rare by definition and their retention cost amortizes to nothing.
    """
    scheduler = Scheduler()
    recorder = FlightRecorder(scheduler)
    tracer = Tracer(enabled=True)
    tracer.recorder = recorder
    best = float("inf")
    for _ in range(reps):
        recorder.clear()
        started = time.process_time()
        for _ in range(iterations):
            root = tracer.begin("root", "ask", "client", 0.0)
            tracer.finish(root, 0.001)
        elapsed = time.process_time() - started
        best = min(best, elapsed / iterations)
    assert recorder.downsampled_traces == iterations
    return best


def ring_record_cost(iterations: int = 50_000, reps: int = 7) -> float:
    """Best-case CPU seconds for one ring-journal record."""
    recorder = FlightRecorder(Scheduler())
    ring = recorder.journal("kernel")
    best = float("inf")
    for _ in range(reps):
        started = time.process_time()
        for _ in range(iterations):
            ring.record("timer-fire", 7, 0.5)
        elapsed = time.process_time() - started
        best = min(best, elapsed / iterations)
    return best


def test_recorder_overhead_under_five_percent():
    """Retention scoring + one ring record cost < 5% of a message.

    Same stable-ratio methodology as the tracing budget.  The numerator is
    deliberately conservative: it charges every message a *whole* recorded
    root trace (real traces span several messages) plus a journal record
    (most messages touch no hook site).
    """
    recorder_cost, message_cost = paired_costs(
        lambda: recorder_trace_cost(reps=1) + ring_record_cost(reps=1)
    )
    overhead = recorder_cost / message_cost
    assert overhead < 0.05, (
        f"recorder overhead {overhead * 100:.2f}% "
        f"(trace + record {recorder_cost * 1e6:.2f}µs, "
        f"message {message_cost * 1e6:.2f}µs)"
    )


# -- disabled-path allocation check (tight harness on purpose) ----------------


class PingActor(Actor):
    async def ping(self):
        return 1


def build_ping_runtime():
    sched = Scheduler()
    config = RuntimeConfig(
        default_method_cost=0.0, activation_cost=0.0, copy_messages=False
    )
    runtime = AodbRuntime(
        sched,
        config=config,
        network=Network(sched, lan=ConstantLatency(0.0)),
        tracer=Tracer(enabled=False),
    )
    runtime.add_silo("s1", cores=4)
    runtime.register_actor(PingActor)
    return sched, runtime


def drive_pings(sched, runtime, count: int = 2000):
    async def main():
        ref = runtime.ref("PingActor", "a")
        for _ in range(count):
            await ref.ping()

    sched.run_until_complete(main())


def run_ping_round_trips(count: int = 2000):
    sched, runtime = build_ping_runtime()
    drive_pings(sched, runtime, count)
    return runtime


def test_disabled_tracing_allocates_nothing():
    """With tracing off, the tracing module performs zero allocations."""
    run_ping_round_trips()  # warm imports and code objects
    tracemalloc.start()
    try:
        runtime = run_ping_round_trips()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    trace_allocs = snapshot.filter_traces(
        [tracemalloc.Filter(True, "*/obs/trace.py")]
    )
    assert sum(stat.count for stat in trace_allocs.statistics("filename")) == 0
    assert len(runtime.tracer) == 0
    assert runtime.tracer.dropped == 0


def test_disabled_profiling_allocates_nothing():
    """With the profiler off, the message loop allocates nothing in
    obs/profile.py or obs/health.py.

    The runtime is built *outside* the traced region (constructing it
    legitimately allocates the disabled Profiler once); only steady-state
    message traffic is measured.
    """
    sched, runtime = build_ping_runtime()
    drive_pings(sched, runtime)  # warm allocator, code objects, activation
    tracemalloc.start()
    try:
        drive_pings(sched, runtime)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    allocs = snapshot.filter_traces(
        [
            tracemalloc.Filter(True, "*/obs/profile.py"),
            tracemalloc.Filter(True, "*/obs/health.py"),
        ]
    )
    assert sum(stat.count for stat in allocs.statistics("filename")) == 0
    assert runtime.profiler.turns == 0
    assert runtime.profiler.attributed_cpu() == 0.0


def test_recorder_not_sampled_path_allocates_nothing():
    """With tracing off, an *attached* recorder allocates nothing.

    This is the strong form of the always-on claim: the rings stay
    enabled and genuinely record (every timer fire lands in the kernel
    ring), yet steady-state message traffic performs zero allocations in
    obs/recorder.py — record() is four stores into preallocated slots and
    a small-int cursor bump.
    """
    sched, runtime = build_ping_runtime()
    recorder = FlightRecorder(sched).attach(runtime)
    ring = recorder.journal("kernel")
    # Warm until the ring has wrapped so no code path is first-run.
    drive_pings(sched, runtime)
    for _ in range(600):
        ring.record("warm", 1, 2.0)
    tracemalloc.start()
    try:
        drive_pings(sched, runtime)
        for _ in range(5000):
            ring.record("timer-fire", 7, 0.5)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    allocs = snapshot.filter_traces(
        [tracemalloc.Filter(True, "*/obs/recorder.py")]
    )
    assert sum(stat.count for stat in allocs.statistics("filename")) == 0
    assert recorder.completed_traces == 0  # tracer off: nothing sampled
    assert len(ring) == ring._capacity  # the ring really was recording


# -- kernel allocation budget -------------------------------------------------


def run_ask_workload(clients: int, rounds: int) -> Scheduler:
    """Ask-shaped kernel traffic: N clients round-tripping through servers.

    Each round is one simulated ask: enqueue to a server's mailbox, the
    server charges a small service sleep and resolves the reply future, and
    the client awaits that reply under a 0.25s deadline (the common case:
    the reply beats the deadline every time, which is exactly the traffic
    pattern that used to leak one dead timer per call).
    """
    scheduler = Scheduler()
    servers = 8
    queues = [Queue(scheduler) for _ in range(servers)]
    service = 0.0005
    think = 0.002
    deadline = 0.25

    async def server(queue: Queue) -> None:
        get = queue.get
        get_nowait = queue.get_nowait
        empty = queue.empty
        sleep = scheduler.sleep
        while True:
            # Buffered fast path: identical scheduling either way (awaiting
            # a completed future never suspends), minus a future per item.
            if empty():
                payload, reply = await get()
            else:
                payload, reply = get_nowait()
            if payload is None:
                return
            await sleep(service)
            reply.set_result(payload)

    async def client(index: int) -> None:
        queue = queues[index % servers]
        put = queue.put_nowait
        timeout = scheduler.timeout
        sleep = scheduler.sleep
        for round_no in range(rounds):
            reply: Future[int] = Future()
            put((round_no, reply))
            await timeout(reply, deadline)
            await sleep(think)

    async def main() -> None:
        server_tasks = [scheduler.spawn(server(q)) for q in queues]
        client_tasks = [scheduler.spawn(client(i)) for i in range(clients)]
        await scheduler.gather(client_tasks)
        for queue in queues:
            queue.put_nowait((None, None))
        await scheduler.gather(server_tasks)

    scheduler.run_until_complete(main())
    return scheduler


def test_allocations_per_event_within_budget():
    """Steady-state kernel allocations stay bounded per processed event.

    tracemalloc's peak traced size over a deadline-wrapped ask workload
    (:func:`run_ask_workload`), divided by the events the scheduler
    processed.  The pooled/fused kernel sits around 3-8 bytes per
    event; the budget leaves allocator-jitter headroom while still failing
    loudly if a per-event allocation that lives for the run (an unpooled
    invocation envelope, a per-message closure kept alive) sneaks back in.
    A deadline timer that is never cancelled reads about 55 bytes per event
    here, under the budget: the timer-leak tests in
    ``tests/kernel/test_speed_overhaul.py`` are what catch that one.
    """
    run_ask_workload(10, 30)  # warm code objects and caches
    tracemalloc.start()
    tracemalloc.clear_traces()
    try:
        sched = run_ask_workload(40, 150)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    per_event = peak / sched.events_processed
    assert per_event < 64.0, f"{per_event:.1f} peak bytes/event over budget"
