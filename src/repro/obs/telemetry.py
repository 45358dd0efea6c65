"""Self-hosted telemetry: the platform monitors itself with its own actors.

The actor-database manifesto line of work (Reactors; Actor-Relational
Database Systems) argues the database should manage its operational state
with the same machinery it offers applications.  This module dogfoods that
thesis: cluster telemetry becomes just another IoT workload, ingested into
an actor hierarchy exactly like the SHM platform ingests bridge sensors —
and therefore queryable online via ordinary asks, placed and traced like
any tenant's actors.

- :class:`SiloMonitor` — one per silo (keyed by silo id): holds that
  silo's metric history as bounded raw time-series windows
  (:class:`~repro.storage.tsblocks.TieredSeries` with sealing off),
  answering range/latest queries;
- :class:`TelemetryAggregator` — cluster-level: per-metric bucketed
  statistics (:class:`~repro.shm.timeseries.BucketedAggregates`, the same
  machinery as the SHM :class:`~repro.shm.aggregator.Aggregator`) plus the
  SLO alert log;
- :class:`TelemetryPump` — the ingestion loop: every ``interval`` virtual
  seconds it snapshots the metrics registry per silo and cluster-wide and
  *asks* the monitor actors to record the samples.  The pump's messages go
  through the normal runtime path, so they appear in causal traces and in
  the profiler like any other workload.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ..runtime.actor import Actor, actor_method
from ..shm.model import DataPoint
from ..shm.timeseries import BucketedAggregates
from ..storage.tsblocks import TieredSeries

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..kernel.scheduler import Task
    from ..runtime.runtime import AodbRuntime
    from .health import Alert, HealthMonitor

#: Metric-name prefixes the pump ships by default: the platform's own
#: subsystems.  Everything else (application metrics) stays out of the
#: self-telemetry stream unless explicitly included.
TELEMETRY_PREFIXES = (
    "runtime.", "silo.", "kernel.", "net.", "storage.",
    "ingest.", "placement.", "cluster.", "health.", "profile.", "trace.",
)

#: Histogram-summary fields worth keeping as time series, with how samples
#: from different label sets combine (quantiles take the worst, counts add).
_HISTOGRAM_FIELDS = (("p50", max), ("p99", max), ("mean", max), ("count", sum))


def flatten_snapshot(
    snapshot: dict[str, Any],
    include: tuple[str, ...] = TELEMETRY_PREFIXES,
) -> dict[str, float]:
    """Collapse a registry snapshot into ``{metric: value}`` samples.

    Label sets with the same bare name are summed (per-silo counters roll
    up, matching ``cluster_totals``); histogram summaries expand into
    ``name.p50`` / ``name.p99`` / ``name.mean`` / ``name.count`` samples.
    NaN probe values (dead targets) are skipped.
    """
    out: dict[str, float] = {}
    for key, value in snapshot.items():
        name = key.split("{", 1)[0]
        if include and not name.startswith(include):
            continue
        if isinstance(value, dict):
            for field, combine in _HISTOGRAM_FIELDS:
                sample = value.get(field)
                if sample is None or sample != sample:  # None or NaN
                    continue
                field_name = f"{name}.{field}"
                if field_name in out:
                    out[field_name] = combine((out[field_name], float(sample)))
                else:
                    out[field_name] = float(sample)
            continue
        if not isinstance(value, (int, float)) or value != value:
            continue
        out[name] = out.get(name, 0.0) + float(value)
    return out


class SiloMonitor(Actor):
    """Per-silo telemetry history: one bounded window per metric.

    Keyed by silo id.  Non-durable on purpose: telemetry is operational
    state whose windows are bounded; history beyond the window belongs in
    the aggregator's buckets.
    """

    placement = "hash"

    def __init__(self, context) -> None:
        super().__init__(context)
        self._series: dict[str, TieredSeries] = {}
        self._window_capacity = 512
        self._max_series = 512
        self.series_dropped = 0
        self._downstream_id: str | None = None

    async def configure(
        self,
        window_capacity: int = 512,
        max_series: int = 512,
        downstream_id: str | None = None,
    ) -> dict:
        """Set window bounds and an optional aggregator to forward to."""
        self._window_capacity = window_capacity
        self._max_series = max_series
        self._downstream_id = downstream_id
        return {"monitor_id": self.actor_id, "window_capacity": window_capacity}

    async def record(self, timestamp: float, values: dict) -> int:
        """Ingest one snapshot's samples; returns how many were stored."""
        stored = 0
        for metric, value in values.items():
            window = self._series.get(metric)
            if window is None:
                if len(self._series) >= self._max_series:
                    # Same discipline as the registry's cardinality guard:
                    # never let one noisy producer balloon monitor memory.
                    self.series_dropped += 1
                    continue
                window = TieredSeries(self._window_capacity, block_size=0)
                self._series[metric] = window
            window.append(timestamp, value)
            stored += 1
        if self._downstream_id is not None:
            self.context.actor("TelemetryAggregator", self._downstream_id).tell(
                "merge", timestamp, dict(values)
            )
        return stored

    @actor_method(read_only=True)
    async def query_range(
        self, metric: str, start: float, end: float
    ) -> list[tuple[float, float]]:
        """Samples of one metric with start <= timestamp < end."""
        window = self._series.get(metric)
        if window is None:
            return []
        return window.range(start, end)

    @actor_method(read_only=True)
    async def latest(self, metric: str) -> tuple[float, float] | None:
        """The most recent sample of one metric (None when unknown)."""
        window = self._series.get(metric)
        return window.latest() if window is not None else None

    @actor_method(read_only=True)
    async def series_names(self) -> list[str]:
        """Every metric this monitor holds history for."""
        return sorted(self._series)

    @actor_method(read_only=True)
    async def describe(self) -> dict:
        return {
            "monitor_id": self.actor_id,
            "series": len(self._series),
            "series_dropped": self.series_dropped,
            "window_capacity": self._window_capacity,
        }


class TelemetryAggregator(Actor):
    """Cluster-level telemetry: bucketed stats per metric + the alert log."""

    placement = "hash"

    def __init__(self, context) -> None:
        super().__init__(context)
        self._buckets: dict[str, BucketedAggregates] = {}
        self._bucket_seconds = 5.0
        self._max_buckets: int | None = None
        self._max_series = 512
        self.series_dropped = 0
        self._alerts: list[dict] = []
        self._max_alerts = 1000
        self.alerts_dropped = 0
        self.samples = 0

    async def configure(
        self,
        bucket_seconds: float = 5.0,
        max_series: int = 512,
        max_alerts: int = 1000,
        max_buckets: int | None = None,
    ) -> dict:
        """``max_buckets`` bounds per-metric retention: the oldest bucket
        is evicted when a new one would exceed the cap (None = unbounded,
        which on long-lived clusters grows without limit)."""
        self._bucket_seconds = bucket_seconds
        self._max_buckets = max_buckets
        self._max_series = max_series
        self._max_alerts = max_alerts
        return {
            "aggregator_id": self.actor_id,
            "bucket_seconds": bucket_seconds,
        }

    async def merge(self, timestamp: float, values: dict) -> int:
        """Fold one snapshot's samples into the per-metric buckets."""
        merged = 0
        for metric, value in values.items():
            buckets = self._buckets.get(metric)
            if buckets is None:
                if len(self._buckets) >= self._max_series:
                    self.series_dropped += 1
                    continue
                buckets = BucketedAggregates(
                    self._bucket_seconds, max_buckets=self._max_buckets
                )
                self._buckets[metric] = buckets
            buckets.observe(DataPoint(timestamp, value))
            merged += 1
        self.samples += merged
        return merged

    async def record_alert(self, alert: dict) -> int:
        """Append one SLO alert transition to the cluster health log."""
        if len(self._alerts) >= self._max_alerts:
            del self._alerts[0]
            self.alerts_dropped += 1
        self._alerts.append(dict(alert))
        return len(self._alerts)

    @actor_method(read_only=True)
    async def series(
        self, metric: str, start: float, end: float
    ) -> list[tuple[int, dict]]:
        """Bucket summaries of one metric overlapping [start, end)."""
        buckets = self._buckets.get(metric)
        if buckets is None:
            return []
        return buckets.series(start, end)

    @actor_method(read_only=True)
    async def stats_at(self, metric: str, timestamp: float) -> dict | None:
        """Summary of the bucket containing ``timestamp`` (None if empty)."""
        buckets = self._buckets.get(metric)
        if buckets is None:
            return None
        stats = buckets.stats_for(buckets.bucket_of(timestamp))
        return None if stats is None else stats.snapshot()

    @actor_method(read_only=True)
    async def alerts(self, limit: int = 100) -> list[dict]:
        """The most recent SLO alert transitions, oldest first."""
        if limit <= 0:
            return []
        return [dict(alert) for alert in self._alerts[-limit:]]

    @actor_method(read_only=True)
    async def metric_names(self) -> list[str]:
        return sorted(self._buckets)

    @actor_method(read_only=True)
    async def describe(self) -> dict:
        return {
            "aggregator_id": self.actor_id,
            "bucket_seconds": self._bucket_seconds,
            "series": len(self._buckets),
            "samples": self.samples,
            "alerts": len(self._alerts),
        }


TELEMETRY_ACTOR_CLASSES = (SiloMonitor, TelemetryAggregator)


class TelemetryPump:
    """Periodic self-ingestion of metrics snapshots into telemetry actors.

    One pump per runtime.  Each tick snapshots the registry per silo and
    cluster-wide, flattens the snapshots to ``{metric: value}`` samples and
    sends them to the telemetry hierarchy through ordinary actor calls.
    When a :class:`~repro.obs.health.HealthMonitor` is supplied, its alert
    transitions are forwarded into the aggregator's health log, so "what
    happened to the cluster?" is answerable entirely through actor asks.
    """

    def __init__(
        self,
        runtime: "AodbRuntime",
        interval: float = 1.0,
        include: tuple[str, ...] = TELEMETRY_PREFIXES,
        window_capacity: int = 512,
        bucket_seconds: float = 5.0,
        max_buckets: int | None = None,
        aggregator_id: str = "cluster",
        monitor: "HealthMonitor | None" = None,
    ) -> None:
        if interval <= 0:
            raise ValueError("telemetry interval must be positive")
        self.runtime = runtime
        self.interval = interval
        self.include = tuple(include)
        self.window_capacity = window_capacity
        self.bucket_seconds = bucket_seconds
        self.max_buckets = max_buckets
        self.aggregator_id = aggregator_id
        self.monitor = monitor
        self.ticks = 0
        self.tick_errors = 0
        self._task: "Task | None" = None
        self._stopped = False
        self._configured = False
        self._configured_monitors: set[str] = set()

    # -- lifecycle -------------------------------------------------------------

    def install(self) -> None:
        """Register the telemetry actor classes (idempotent)."""
        for actor_class in TELEMETRY_ACTOR_CLASSES:
            self.runtime.register_actor(actor_class)
        self.runtime.metrics.register_probe("telemetry.ticks", lambda: self.ticks)
        self.runtime.metrics.register_probe(
            "telemetry.tick_errors", lambda: self.tick_errors
        )

    def start(self) -> "Task":
        """Install, subscribe to health alerts and begin the tick loop."""
        if self._task is not None:
            raise RuntimeError("telemetry pump already started")
        self.install()
        if self.monitor is not None:
            self.monitor.listeners.append(self._on_alert)
        self._stopped = False
        self._task = self.runtime.scheduler.spawn(
            self._loop(), name="telemetry-pump"
        )
        return self._task

    def stop(self) -> None:
        """Stop the tick loop (history stays queryable)."""
        self._stopped = True
        if self._task is not None:
            self._task.cancel()
            self._task = None
        if self.monitor is not None and self._on_alert in self.monitor.listeners:
            self.monitor.listeners.remove(self._on_alert)

    async def _loop(self) -> None:
        while not self._stopped:
            await self.runtime.scheduler.sleep(self.interval)
            if self._stopped:
                return
            try:
                await self.tick()
            except Exception:  # noqa: BLE001 - telemetry must not kill the host
                self.tick_errors += 1

    # -- one ingestion round ----------------------------------------------------

    async def _configure_targets(self) -> None:
        await self.runtime.ref("TelemetryAggregator", self.aggregator_id).configure(
            bucket_seconds=self.bucket_seconds, max_buckets=self.max_buckets
        )
        self._configured = True

    async def tick(self) -> dict[str, dict[str, float]]:
        """Snapshot → record once; returns what was sent per target actor.

        The per-target sample dicts are returned so tests (and the profile
        bench) can check the stored history against exactly what was
        shipped, without re-deriving snapshots.
        """
        runtime = self.runtime
        if not self._configured:
            await self._configure_targets()
        now = runtime.scheduler.now
        tracer = runtime.tracer
        root = None
        if tracer.enabled:
            # Telemetry rounds are ordinary traffic: give each tick a root
            # span so its fan-out shows up as a causal tree like any tenant
            # request.
            root = tracer.begin("telemetry-tick", "client", "client", now)
        recorded: dict[str, dict[str, float]] = {}
        for silo in runtime.silos():
            values = flatten_snapshot(
                runtime.metrics.snapshot(silo=silo.silo_id), self.include
            )
            if not values:
                continue
            try:
                ref = runtime.ref("SiloMonitor", silo.silo_id, trace=root)
                if silo.silo_id not in self._configured_monitors:
                    await ref.configure(window_capacity=self.window_capacity)
                    self._configured_monitors.add(silo.silo_id)
                await ref.record(now, values)
                recorded[silo.silo_id] = values
            except Exception:  # noqa: BLE001 - a dying silo must not stop the rest
                self.tick_errors += 1
        cluster = flatten_snapshot(runtime.metrics.snapshot(), self.include)
        if cluster:
            try:
                await runtime.ref(
                    "TelemetryAggregator", self.aggregator_id, trace=root
                ).merge(now, cluster)
                recorded["cluster"] = cluster
            except Exception:  # noqa: BLE001
                self.tick_errors += 1
        if root is not None:
            tracer.finish(root, runtime.scheduler.now)
        self.ticks += 1
        return recorded

    def _on_alert(self, alert: "Alert") -> None:
        try:
            self.runtime.ref("TelemetryAggregator", self.aggregator_id).tell(
                "record_alert", alert.as_dict()
            )
        except Exception:  # noqa: BLE001 - alert logging is best-effort
            self.tick_errors += 1
