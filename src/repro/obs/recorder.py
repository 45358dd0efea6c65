"""Always-on flight recorder: tail-based retention, ring journals, postmortems.

Production tracing has a dilemma: the traces you need most (the p99
outlier, the fenced zombie write, the migration that stalled) are exactly
the ones a bounded store evicts first.  The :class:`FlightRecorder`
replaces the tracer's silent ``max_spans`` cliff with three pieces that are
cheap enough to leave on forever:

1. **Tail-based trace retention.**  With a recorder attached, the tracer
   stops accumulating spans; instead every completed *root* trace is scored
   at completion and either retained in full (bounded, FIFO-evicted) or
   downsampled to a counter.  The retention predicates: root status other
   than ``ok``, any span error, any retry attempt, any span of an anomaly
   kind (migration, WAL replay, fenced bounce, quarantine park,
   retrying-ask), root latency above a per-span-kind reservoir-estimated
   p99, or a deterministic 1-in-N baseline sample (``tail_keep_rate``).

2. **Ring-buffer event journals.**  Fixed-size flight recorders fed by
   lightweight hooks in the kernel (timer arm/fire/cancel, freelist),
   net (partition blocks, batcher envelopes), storage (fenced bounces,
   group-commit flushes, WAL journal/replay), runtime (quarantine,
   migration phases) and elastic (rebalance/scale decisions).  A record is
   four list stores into preallocated slots — with the default capacity
   (≤ 256 slots) the cursor arithmetic stays inside CPython's small-int
   cache, so steady-state recording performs **zero allocations**, which
   ``benchmarks/bench_obs_overhead.py`` asserts with tracemalloc.

3. **Incident postmortems.**  SLO alert transitions (via
   :meth:`FlightRecorder.watch`) and crash/eviction events trigger a
   black-box dump merging the firing rule, retained traces, ring tails,
   profiler hot-actors and cluster metrics into one causally-ordered
   virtual-time timeline (:class:`Postmortem`, rendered by
   :func:`render_postmortem`).

Lower layers never import this module: each hook site carries a duck-typed
``journal`` attribute defaulting to ``None`` (the same loose-typing rule
``Network.register_metrics`` follows), so the kernel stays free of obs
dependencies and the disabled path is a single attribute check.

Everything is deterministic: reservoir sampling uses a seeded LCG, the
baseline sample is counter-based, and timeline assembly sorts stably by
virtual time — identical seeds reproduce identical retained sets and
identical postmortem timelines bit for bit (property-tested).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..kernel.scheduler import Scheduler
    from .health import Alert, HealthMonitor
    from .trace import Span

__all__ = [
    "ANOMALY_KINDS",
    "FlightRecorder",
    "Postmortem",
    "RecorderConfig",
    "RetainedTrace",
    "RingJournal",
    "render_postmortem",
]

#: Span kinds whose mere presence in a trace marks it anomalous: each one
#: only appears when something unusual happened (a retry storm, a live
#: migration, crash recovery, a fenced zombie write, a quarantine scram).
ANOMALY_KINDS = frozenset(
    {"retrying-ask", "migrate", "wal-replay", "fenced-write", "quarantine-park"}
)

_MASK64 = (1 << 64) - 1


@dataclass
class RecorderConfig:
    """Knobs for the flight recorder (all bounded, all deterministic).

    ``ring_size`` ≤ 256 keeps ring-cursor arithmetic inside CPython's
    small-int cache, which is what makes the hot record path strictly
    allocation-free; larger rings work but churn one ~28-byte int per
    record.
    """

    ring_size: int = 256
    max_retained: int = 256
    reservoir_size: int = 128
    min_latency_samples: int = 32
    p99_refresh: int = 32
    tail_keep_rate: float = 0.0
    max_postmortems: int = 16
    postmortem_traces: int = 8
    postmortem_tail: int = 48

    def validate(self) -> None:
        if self.ring_size < 8:
            raise ValueError("ring_size must be >= 8")
        if self.max_retained < 1:
            raise ValueError("max_retained must be >= 1")
        if self.reservoir_size < 4:
            raise ValueError("reservoir_size must be >= 4")
        if not 0.0 <= self.tail_keep_rate <= 1.0:
            raise ValueError("tail_keep_rate must be in [0, 1]")
        if self.max_postmortems < 1:
            raise ValueError("max_postmortems must be >= 1")


class RingJournal:
    """A fixed-size, allocation-free event ring (one flight recorder).

    Four parallel preallocated lists hold (virtual time, kind, and two
    free-form operands); :meth:`record` overwrites the oldest slot.  The
    clock is read from the scheduler at record time so hook sites do not
    have to thread ``now`` through.  With capacity ≤ 256 the cursor
    increment reuses CPython's cached small ints — zero allocations on the
    steady-state path (asserted in ``bench_obs_overhead``).
    """

    __slots__ = ("name", "enabled", "_capacity", "_clock", "_i", "_t",
                 "_kind", "_a", "_b")

    def __init__(self, name: str, clock: "Scheduler", capacity: int = 256) -> None:
        if capacity < 8:
            raise ValueError("ring capacity must be >= 8")
        self.name = name
        self.enabled = True
        self._capacity = capacity
        self._clock = clock
        self._i = 0
        self._t: list[float | None] = [None] * capacity
        self._kind: list[str] = [""] * capacity
        self._a: list[Any] = [""] * capacity
        self._b: list[Any] = [None] * capacity

    def record(self, kind: str, a: Any = "", b: Any = None) -> None:
        """Overwrite the oldest slot with one event (the hot path)."""
        if not self.enabled:
            return
        i = self._i
        self._t[i] = self._clock.now
        self._kind[i] = kind
        self._a[i] = a
        self._b[i] = b
        i += 1
        if i == self._capacity:
            i = 0
        self._i = i

    def __len__(self) -> int:
        """Occupied slots (scans the ring — snapshot-time use only)."""
        return sum(1 for t in self._t if t is not None)

    def entries(self, last: int | None = None) -> list[tuple]:
        """Events oldest→newest as ``(t, kind, a, b)`` tuples.

        Reconstruction walks the ring from the write cursor (the oldest
        slot once the ring has wrapped), skipping never-written slots.
        """
        capacity = self._capacity
        start = self._i
        out: list[tuple] = []
        for offset in range(capacity):
            j = start + offset
            if j >= capacity:
                j -= capacity
            t = self._t[j]
            if t is None:
                continue
            out.append((t, self._kind[j], self._a[j], self._b[j]))
        if last is not None and len(out) > last:
            del out[: len(out) - last]
        return out

    def clear(self) -> None:
        """Empty the ring (slots stay preallocated)."""
        for i in range(self._capacity):
            self._t[i] = None
            self._kind[i] = ""
            self._a[i] = ""
            self._b[i] = None
        self._i = 0


class _LatencyReservoir:
    """Algorithm-R reservoir of root-trace latencies for one span kind.

    Replacement uses a seeded 64-bit LCG (deterministic, allocation-light);
    the p99 estimate is recomputed lazily every ``refresh`` observations
    instead of per sample.
    """

    __slots__ = ("size", "count", "refresh", "_samples", "_state", "_p99",
                 "_since_refresh")

    def __init__(self, size: int, seed: int, refresh: int = 32) -> None:
        self.size = size
        self.count = 0
        self.refresh = refresh
        self._samples: list[float] = []
        self._state = (seed * 2862933555777941757 + 3037000493) & _MASK64
        self._p99: float | None = None
        self._since_refresh = 0

    def observe(self, value: float) -> None:
        count = self.count + 1
        self.count = count
        size = self.size
        if count <= size:  # one sample per observation until full
            self._samples.append(value)
        else:
            state = (self._state * 6364136223846793005 + 1442695040888963407) & _MASK64
            self._state = state
            j = state % count
            if j < size:
                self._samples[j] = value
        since = self._since_refresh + 1
        if since >= self.refresh:
            since = 0
            self._p99 = None  # recompute lazily on next read
        self._since_refresh = since

    def p99(self) -> float:
        estimate = self._p99
        if estimate is None:
            ordered = sorted(self._samples)
            if not ordered:
                return float("inf")
            estimate = ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]
            self._p99 = estimate
        return estimate


class RetainedTrace:
    """One fully-kept trace: the root span, all spans, and why it was kept."""

    __slots__ = ("trace_id", "root", "spans", "reason", "retained_at")

    def __init__(
        self,
        trace_id: int,
        root: "Span",
        spans: list,
        reason: str,
        retained_at: float,
    ) -> None:
        self.trace_id = trace_id
        self.root = root
        self.spans = spans
        self.reason = reason
        self.retained_at = retained_at

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<RetainedTrace #{self.trace_id} {len(self.spans)} spans "
            f"reason={self.reason!r}>"
        )


class Postmortem:
    """A black-box incident dump: trigger + causally-ordered timeline."""

    __slots__ = ("trigger", "at", "timeline", "traces", "hot_activations",
                 "metrics")

    def __init__(
        self,
        trigger: dict,
        at: float,
        timeline: list[tuple],
        traces: list[RetainedTrace],
        hot_activations: list[dict],
        metrics: dict,
    ) -> None:
        self.trigger = trigger
        self.at = at
        self.timeline = timeline
        self.traces = traces
        self.hot_activations = hot_activations
        self.metrics = metrics

    def sources(self) -> set[str]:
        """Distinct timeline sources (journals, trace ids, markers)."""
        return {source for _t, source, _text in self.timeline}

    def as_dict(self) -> dict:
        """A serializable view (timeline text lines, trace summaries)."""
        return {
            "trigger": dict(self.trigger),
            "at": self.at,
            "timeline": [
                {"t": t, "source": source, "event": text}
                for t, source, text in self.timeline
            ],
            "traces": [
                {
                    "trace_id": rt.trace_id,
                    "reason": rt.reason,
                    "spans": len(rt.spans),
                    "root_status": rt.root.status,
                }
                for rt in self.traces
            ],
            "hot_activations": list(self.hot_activations),
            "metrics": dict(self.metrics),
        }


def _span_text(span: "Span") -> str:
    """One timeline line for a retained span (built at dump time)."""
    where = span.silo_id or span.caller
    duration = span.duration * 1000.0
    text = (
        f"span {span.kind} {span.name} [{where}] "
        f"status={span.status} dur={duration:.3f}ms"
    )
    if span.error:
        text += f" error={span.error}"
    return text


def _trigger_text(trigger: dict) -> str:
    kind = trigger.get("type", "incident")
    detail = " ".join(
        f"{key}={trigger[key]}"
        for key in sorted(trigger)
        if key not in ("type", "at")
    )
    return f"{kind} {detail}".strip()


class FlightRecorder:
    """Bounded always-on observability: retention, rings, postmortems.

    Attach order: build the recorder with the deployment's scheduler, then
    :meth:`attach` it to a runtime (which wires the tracer, the kernel/net/
    storage journals and the registry probes) and optionally :meth:`watch`
    a :class:`~repro.obs.health.HealthMonitor` so firing alerts snapshot a
    postmortem automatically.
    """

    def __init__(
        self,
        scheduler: "Scheduler",
        config: RecorderConfig | None = None,
        seed: int = 0,
    ) -> None:
        self.config = config or RecorderConfig()
        self.config.validate()
        self.scheduler = scheduler
        self.enabled = True
        self.runtime = None
        self.seed = seed
        self._journals: dict[str, RingJournal] = {}
        self._inflight: dict[int, list] = {}
        self._retained: list[RetainedTrace] = []
        self._retained_index: dict[int, RetainedTrace] = {}
        self._reservoirs: dict[str, _LatencyReservoir] = {}
        self.completed_traces = 0
        self.downsampled_traces = 0
        self.downsampled_by_kind: dict[str, int] = {}
        self.retained_evicted = 0
        self.postmortems: list[Postmortem] = []
        self.postmortems_dropped = 0

    # -- ring journals ---------------------------------------------------------

    def journal(self, name: str) -> RingJournal:
        """Get or create the named ring (e.g. ``kernel``, ``silo:silo-2``)."""
        ring = self._journals.get(name)
        if ring is None:
            ring = RingJournal(name, self.scheduler, self.config.ring_size)
            self._journals[name] = ring
        return ring

    def silo_journal(self, silo_id: str) -> RingJournal:
        return self.journal(f"silo:{silo_id}")

    def journals(self) -> list[RingJournal]:
        return [self._journals[name] for name in sorted(self._journals)]

    def ring_entries(self) -> int:
        """Occupied slots across every ring (snapshot-time probe)."""
        return sum(len(ring) for ring in self._journals.values())

    # -- tail-based trace retention --------------------------------------------

    def on_begin(self, span: "Span") -> None:
        """Tracer callback: buffer a live child span under its trace.

        Roots are not buffered — :meth:`on_root_finish` is handed the root
        itself — so a trace without children never touches the buffer.
        """
        buffer = self._inflight.get(span.trace_id)
        if buffer is None:
            self._inflight[span.trace_id] = [span]
        else:
            buffer.append(span)

    def on_root_finish(self, root: "Span", now: float) -> None:
        """Tracer callback: score a completed root trace; retain or drop."""
        children = self._inflight.pop(root.trace_id, None)
        spans = [root] if children is None else [root, *children]
        self.completed_traces += 1
        kind = root.kind
        reservoir = self._reservoirs.get(kind)
        duration = root.end - root.start
        reason = self._score(root, spans, reservoir, duration)
        if reservoir is None:
            reservoir = _LatencyReservoir(
                self.config.reservoir_size,
                # Per-kind seed by creation order: deterministic for a
                # deterministic workload, and free of str-hash instability.
                self.seed + 1000003 * len(self._reservoirs),
                self.config.p99_refresh,
            )
            self._reservoirs[kind] = reservoir
        if reason is None:
            self.downsampled_traces += 1
            by_kind = self.downsampled_by_kind
            by_kind[kind] = by_kind.get(kind, 0) + 1
        else:
            self._retain(root, spans, reason, now)
        # Feed the latency reservoir *after* scoring so the p99 predicate
        # compares against history, not against the sample being judged.
        reservoir.observe(duration)

    def _score(
        self,
        root: "Span",
        spans: list,
        reservoir: _LatencyReservoir | None,
        duration: float,
    ) -> str | None:
        """The retention verdict: a reason string, or None to downsample."""
        if root.status != "ok":
            return f"status:{root.status}"
        for span in spans:
            if span.error or span.attempt > 0:
                return "span-error"
            if span.status not in ("ok", "open"):
                return f"span-status:{span.status}"
            if span.kind in ANOMALY_KINDS:
                return f"anomaly:{span.kind}"
        config = self.config
        if (
            reservoir is not None
            and reservoir.count >= config.min_latency_samples
            and duration > reservoir.p99()
        ):
            return f"p99:{root.kind}"
        rate = config.tail_keep_rate
        if rate > 0.0:
            interval = max(1, round(1.0 / rate))
            if self.completed_traces % interval == 1 or interval == 1:
                return "tail-sample"
        return None

    def _retain(
        self, root: "Span", spans: list, reason: str, now: float
    ) -> None:
        spans = sorted(spans, key=lambda s: (s.start, s.span_id))
        retained = RetainedTrace(root.trace_id, root, spans, reason, now)
        self._retained.append(retained)
        self._retained_index[root.trace_id] = retained
        if len(self._retained) > self.config.max_retained:
            evicted = self._retained.pop(0)
            self._retained_index.pop(evicted.trace_id, None)
            self.retained_evicted += 1

    def retained(self) -> list[RetainedTrace]:
        """Retained traces, oldest first."""
        return list(self._retained)

    def retained_trace(self, trace_id: int) -> RetainedTrace | None:
        return self._retained_index.get(trace_id)

    def anomalous(self) -> list[RetainedTrace]:
        """Retained traces kept for cause (baseline tail samples excluded)."""
        return [rt for rt in self._retained if rt.reason != "tail-sample"]

    # -- incident postmortems --------------------------------------------------

    def watch(self, monitor: "HealthMonitor") -> None:
        """Snapshot a postmortem whenever one of the monitor's rules fires."""
        monitor.listeners.append(self._on_alert)

    def _on_alert(self, alert: "Alert") -> None:
        if alert.state != "firing":
            return
        self.record_incident("alert", alert.as_dict())

    def record_incident(
        self, kind: str, detail: dict | None = None
    ) -> Postmortem | None:
        """Build and log a postmortem (bounded by ``max_postmortems``)."""
        if not self.enabled:
            return None
        if len(self.postmortems) >= self.config.max_postmortems:
            self.postmortems_dropped += 1
            return None
        trigger = {"type": kind}
        if detail:
            trigger.update(detail)
        postmortem = self.build_postmortem(trigger)
        self.postmortems.append(postmortem)
        return postmortem

    def build_postmortem(self, trigger: dict) -> Postmortem:
        """Merge rings, retained traces, hot actors and metrics at ``now``.

        The timeline is sorted stably by virtual time; because assembly
        order is deterministic (trigger, sorted rings, synthesized
        partition markers, traces newest-anomaly-first), ties break the
        same way on every run.
        """
        now = self.scheduler.now
        at = float(trigger.get("at", now))
        timeline: list[tuple] = [(at, "trigger", _trigger_text(trigger))]
        tail = self.config.postmortem_tail
        for ring in self.journals():
            for t, kind, a, b in ring.entries(last=tail):
                text = f"{kind} {a}" if a != "" else kind
                if b is not None:
                    text = f"{text} {b}"
                timeline.append((t, ring.name, text))
        timeline.extend(self._partition_markers(now))
        traces = self._pick_traces()
        for retained in traces:
            source = f"trace:{retained.trace_id}"
            timeline.append(
                (
                    retained.retained_at,
                    source,
                    f"retained ({retained.reason}) root={retained.root.name} "
                    f"status={retained.root.status}",
                )
            )
            for span in retained.spans:
                timeline.append((span.start, source, _span_text(span)))
        timeline.sort(key=lambda entry: entry[0])
        runtime = self.runtime
        hot: list[dict] = []
        metrics: dict = {}
        if runtime is not None:
            profiler = runtime.profiler
            if profiler is not None and profiler.enabled:
                hot = [rec.as_dict() for rec in profiler.hot_activations(5)]
            if runtime.metrics is not None:
                metrics = runtime.metrics.cluster_totals()
        return Postmortem(dict(trigger), now, timeline, traces, hot, metrics)

    def _partition_markers(self, now: float) -> list[tuple]:
        """Synthesized open/heal events for scripted netsplits.

        Partition scenarios are declarative (``PartitionInjector`` holds
        the full script), so past transitions are reconstructed exactly
        instead of being sampled into a ring.
        """
        runtime = self.runtime
        if runtime is None:
            return []
        injector = getattr(runtime.network, "partitions", None)
        scenarios = getattr(injector, "_scenarios", None)
        if not scenarios:
            return []
        markers: list[tuple] = []
        for groups, start, end in scenarios:
            label = " | ".join(
                ",".join(sorted(group)) for group in groups
            )
            if start <= now:
                markers.append((start, "net", f"partition-open {label}"))
            if end <= now:
                markers.append((end, "net", "partition-heal"))
        return markers

    def _pick_traces(self) -> list[RetainedTrace]:
        """Most recent anomalous traces first, padded with tail samples."""
        limit = self.config.postmortem_traces
        anomalous = self.anomalous()
        chosen = anomalous[-limit:]
        if len(chosen) < limit:
            samples = [rt for rt in self._retained if rt.reason == "tail-sample"]
            chosen = samples[-(limit - len(chosen)):] + chosen
        return sorted(chosen, key=lambda rt: rt.retained_at)

    # -- wiring ----------------------------------------------------------------

    def attach(self, runtime, monitor: "HealthMonitor | None" = None):
        """Wire this recorder into a runtime (tracer, journals, probes)."""
        if self.runtime is not None:
            raise RuntimeError("flight recorder already attached")
        self.runtime = runtime
        runtime.recorder = self
        if runtime.tracer is not None:
            runtime.tracer.recorder = self
        kernel = self.journal("kernel")
        runtime.scheduler.journal = kernel
        net = self.journal("net")
        runtime.network.journal = net
        if runtime._batcher is not None:
            runtime._batcher.journal = net
        storage = self.journal("storage")
        runtime.grain_storage.journal = storage
        if runtime.group_commit is not None:
            runtime.group_commit.journal = storage
        if runtime.redo_journal is not None:
            runtime.redo_journal.journal = storage
        self.journal("elastic")
        views = getattr(runtime.database, "views", None)
        if views is not None:
            views.journal = self.journal("views")
        for silo in runtime.silos():
            self.silo_journal(silo.silo_id)
        registry = runtime.metrics
        if registry is not None:
            tracer = runtime.tracer
            if tracer is not None:
                registry.register_probe(
                    "trace.dropped_spans", lambda: tracer.dropped
                )
            registry.register_probe(
                "trace.retained_traces", lambda: len(self._retained)
            )
            registry.register_probe(
                "recorder.downsampled_traces", lambda: self.downsampled_traces
            )
            registry.register_probe(
                "recorder.retained_evicted", lambda: self.retained_evicted
            )
            registry.register_probe(
                "recorder.postmortems", lambda: len(self.postmortems)
            )
            registry.register_probe("recorder.ring_entries", self.ring_entries)
        if monitor is not None:
            self.watch(monitor)
        return self

    def clear(self) -> None:
        """Drop retained traces, counters, rings and postmortems."""
        self._inflight.clear()
        self._retained.clear()
        self._retained_index.clear()
        self._reservoirs.clear()
        self.completed_traces = 0
        self.downsampled_traces = 0
        self.downsampled_by_kind.clear()
        self.retained_evicted = 0
        self.postmortems.clear()
        self.postmortems_dropped = 0
        for ring in self._journals.values():
            ring.clear()


def _ts(t: float) -> str:
    return f"{t * 1000:10.3f}ms"


def render_postmortem(postmortem: Postmortem, max_lines: int = 200) -> str:
    """Human-readable incident dump (one line per timeline event)."""
    trigger = postmortem.trigger
    lines = [
        f"== postmortem @ {_ts(postmortem.at).strip()} — "
        f"{_trigger_text(trigger)} ==",
        f"retained traces: {len(postmortem.traces)} "
        f"({', '.join(str(rt.trace_id) for rt in postmortem.traces) or 'none'})",
        f"timeline ({len(postmortem.timeline)} events):",
    ]
    shown = postmortem.timeline[-max_lines:]
    if len(shown) < len(postmortem.timeline):
        lines.append(f"  … {len(postmortem.timeline) - len(shown)} earlier "
                     "events elided")
    for t, source, text in shown:
        lines.append(f"  {_ts(t)} [{source}] {text}")
    if postmortem.hot_activations:
        lines.append("hot activations:")
        for record in postmortem.hot_activations:
            label = record.get("key", record.get("label", "?"))
            lines.append(
                f"  {label}: cpu={record.get('cpu_service', 0.0):.4f}s "
                f"calls={record.get('calls', 0)}"
            )
    if postmortem.metrics:
        lines.append("cluster metrics:")
        for name in sorted(postmortem.metrics):
            value = postmortem.metrics[name]
            if isinstance(value, float):
                value = round(value, 6)
            lines.append(f"  {name} = {value}")
    return "\n".join(lines)
