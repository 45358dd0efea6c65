"""SLO health monitoring: declarative rules over metrics snapshots.

An operator's second question (after "who is eating the cluster?" —
:mod:`repro.obs.profile`) is "is the platform healthy *right now*?".  This
module answers it with a small rule engine over
:class:`~repro.obs.metrics.MetricsRegistry` snapshots:

- :class:`SloRule` declares one objective — a metric name, an optional
  histogram field (``p99``), a value/rate mode, a comparison and a
  threshold — plus hysteresis (``for_seconds`` before firing,
  ``clear_seconds`` before clearing) so alerts do not flap on single-tick
  spikes;
- :class:`HealthMonitor` evaluates every rule on a virtual-time timer,
  emits typed :class:`Alert` events on state *transitions* only, and keeps
  a bounded alert log plus the set of currently-firing rules.

Evaluation is pull-only: nothing on the message hot path knows the monitor
exists.  One evaluation costs one registry snapshot plus a few comparisons,
at the operator-chosen interval.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from .metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..kernel.scheduler import Scheduler, Task

_OPS: dict[str, Callable[[float, float], bool]] = {
    ">": operator.gt,
    ">=": operator.ge,
    "<": operator.lt,
    "<=": operator.le,
}

_AGGREGATES = {
    "sum": sum,
    "max": max,
    "min": min,
}


@dataclass(frozen=True)
class SloRule:
    """One declarative service-level objective.

    ``metric`` names a registry instrument (bare name — label sets are
    combined per ``aggregate``).  ``value_field`` selects a field from
    histogram summaries (``p99``, ``mean`` …).  ``mode="rate"`` evaluates
    the per-second delta between consecutive snapshots, which is how
    cumulative counters (error totals) become levels.
    A rule whose metric is absent from the snapshot is skipped — rules may
    be declared for subsystems that are not deployed.
    """

    name: str
    metric: str
    op: str = ">"
    threshold: float = 0.0
    value_field: str | None = None
    mode: str = "value"  # "value" | "rate"
    aggregate: str = "sum"  # "sum" | "max" | "min" across label sets
    for_seconds: float = 0.0
    clear_seconds: float = 0.0
    severity: str = "warning"  # "warning" | "critical"
    description: str = ""

    def validate(self) -> None:
        if self.op not in _OPS:
            raise ValueError(f"rule {self.name!r}: unknown op {self.op!r}")
        if self.mode not in ("value", "rate"):
            raise ValueError(f"rule {self.name!r}: unknown mode {self.mode!r}")
        if self.aggregate not in _AGGREGATES:
            raise ValueError(
                f"rule {self.name!r}: unknown aggregate {self.aggregate!r}"
            )
        if self.for_seconds < 0 or self.clear_seconds < 0:
            raise ValueError(f"rule {self.name!r}: negative hysteresis")


@dataclass(frozen=True)
class Alert:
    """A typed health event: one rule crossing into or out of breach."""

    rule: str
    severity: str
    state: str  # "firing" | "cleared"
    at: float  # virtual time of the transition
    value: float  # the observed value that crossed (or recovered)
    threshold: float
    description: str = ""

    def as_dict(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "state": self.state,
            "at": self.at,
            "value": self.value,
            "threshold": self.threshold,
            "description": self.description,
        }


class _RuleState:
    """Hysteresis bookkeeping for one rule."""

    __slots__ = (
        "firing", "breach_since", "ok_since", "last_value",
        "prev_raw", "prev_at",
    )

    def __init__(self) -> None:
        self.firing = False
        self.breach_since: float | None = None
        self.ok_since: float | None = None
        self.last_value = math.nan
        # Previous raw sample for rate mode.
        self.prev_raw: float | None = None
        self.prev_at: float | None = None


class HealthMonitor:
    """Evaluates SLO rules on a timer; emits alerts with hysteresis."""

    def __init__(
        self,
        registry: MetricsRegistry,
        rules: list[SloRule],
        max_alerts: int = 1000,
    ) -> None:
        for rule in rules:
            rule.validate()
        names = [rule.name for rule in rules]
        if len(set(names)) != len(names):
            raise ValueError("duplicate SLO rule names")
        self.registry = registry
        self.rules = list(rules)
        self.max_alerts = max_alerts
        self.alerts: list[Alert] = []
        self.alerts_dropped = 0
        self.evaluations = 0
        self.listeners: list[Callable[[Alert], None]] = []
        self._states: dict[str, _RuleState] = {r.name: _RuleState() for r in rules}
        self._task: "Task | None" = None
        registry.register_probe("health.active_alerts", lambda: len(self.active()))
        registry.register_probe("health.alerts_emitted", self._alerts_emitted)
        registry.register_probe("health.evaluations", lambda: self.evaluations)

    def _alerts_emitted(self) -> int:
        return len(self.alerts) + self.alerts_dropped

    # -- rule evaluation --------------------------------------------------------

    def _observe(
        self, rule: SloRule, samples: "list[Any] | tuple", now: float
    ) -> float | None:
        """The rule's current value, or None when it cannot be evaluated.

        ``samples`` are the snapshot values of the rule's metric, one per
        label set, in snapshot order.
        """
        values: list[float] = []
        for value in samples:
            if isinstance(value, dict):
                if rule.value_field is None:
                    continue
                value = value.get(rule.value_field)
            if not isinstance(value, (int, float)) or (
                isinstance(value, float) and math.isnan(value)
            ):
                continue
            values.append(float(value))
        if not values:
            return None
        raw = _AGGREGATES[rule.aggregate](values)
        if rule.mode == "value":
            return raw
        # Rate mode: per-second delta between consecutive evaluations.
        state = self._states[rule.name]
        prev_raw, prev_at = state.prev_raw, state.prev_at
        state.prev_raw, state.prev_at = raw, now
        if prev_raw is None or prev_at is None or now <= prev_at:
            return None  # first sample — no rate yet
        return (raw - prev_raw) / (now - prev_at)

    def _emit(self, alert: Alert) -> None:
        if len(self.alerts) >= self.max_alerts:
            del self.alerts[0]
            self.alerts_dropped += 1
        self.alerts.append(alert)
        for listener in self.listeners:
            listener(alert)

    def evaluate(self, now: float) -> list[Alert]:
        """One evaluation pass; returns the alerts it emitted (if any)."""
        self.evaluations += 1
        # Group the snapshot by bare metric name once, not once per rule.
        by_metric: dict[str, list[Any]] = {}
        for key, value in self.registry.snapshot().items():
            name = key.split("{", 1)[0]
            samples = by_metric.get(name)
            if samples is None:
                by_metric[name] = [value]
            else:
                samples.append(value)
        emitted: list[Alert] = []
        for rule in self.rules:
            state = self._states[rule.name]
            value = self._observe(rule, by_metric.get(rule.metric, ()), now)
            if value is None:
                continue  # metric absent (or no rate yet): no verdict
            state.last_value = value
            breached = _OPS[rule.op](value, rule.threshold)
            if breached:
                state.ok_since = None
                if state.breach_since is None:
                    state.breach_since = now
                if (
                    not state.firing
                    and now - state.breach_since >= rule.for_seconds
                ):
                    state.firing = True
                    alert = Alert(
                        rule.name, rule.severity, "firing", now,
                        value, rule.threshold, rule.description,
                    )
                    self._emit(alert)
                    emitted.append(alert)
            else:
                state.breach_since = None
                if state.ok_since is None:
                    state.ok_since = now
                if state.firing and now - state.ok_since >= rule.clear_seconds:
                    state.firing = False
                    alert = Alert(
                        rule.name, rule.severity, "cleared", now,
                        value, rule.threshold, rule.description,
                    )
                    self._emit(alert)
                    emitted.append(alert)
        return emitted

    # -- introspection ----------------------------------------------------------

    def active(self) -> list[str]:
        """Names of the rules currently firing."""
        return [name for name, state in self._states.items() if state.firing]

    def last_value(self, rule_name: str) -> float:
        """Most recently observed value for one rule (NaN before any)."""
        return self._states[rule_name].last_value

    # -- timer-driven operation -------------------------------------------------

    def attach(self, scheduler: "Scheduler", interval: float = 1.0) -> "Task":
        """Evaluate every ``interval`` virtual seconds until :meth:`detach`."""
        if interval <= 0:
            raise ValueError("health interval must be positive")
        if self._task is not None:
            raise RuntimeError("health monitor already attached")

        async def loop() -> None:
            while True:
                await scheduler.sleep(interval)
                self.evaluate(scheduler.now)

        self._task = scheduler.spawn(loop(), name="health-monitor")
        return self._task

    def detach(self) -> None:
        """Stop the evaluation loop (idempotent)."""
        if self._task is not None:
            self._task.cancel()
            self._task = None


def default_slo_rules(
    p99_ask_latency: float = 0.5,
    max_backlog: float = 1000.0,
    max_error_rate: float = 1.0,
    max_cpu_imbalance: float = 3.0,
    max_view_staleness: float = 1.0,
    max_head_bytes: float = 256e6,
) -> list[SloRule]:
    """The stock rule set an SHM-platform operator would start from.

    Rules whose metric is not deployed (e.g. ``runtime.ask_latency_seconds``
    without the profiler) simply never evaluate, so the set is safe on any
    runtime.
    """
    return [
        SloRule(
            name="ask-p99-latency",
            metric="runtime.ask_latency_seconds",
            value_field="p99",
            op=">",
            threshold=p99_ask_latency,
            for_seconds=2.0,
            clear_seconds=2.0,
            severity="critical",
            description="p99 ask latency above SLO",
        ),
        SloRule(
            name="heartbeat-misses",
            metric="cluster.silos_suspected",
            op=">=",
            threshold=1.0,
            severity="critical",
            description="a silo is missing membership heartbeats",
        ),
        SloRule(
            name="silo-quarantined",
            metric="cluster.quarantined_silos",
            op=">=",
            threshold=1.0,
            severity="critical",
            description="a silo lost its membership lease and self-quarantined",
        ),
        SloRule(
            name="mailbox-backlog",
            metric="silo.mailbox_depth",
            aggregate="max",
            op=">",
            threshold=max_backlog,
            for_seconds=1.0,
            clear_seconds=1.0,
            description="an activation mailbox is backing up",
        ),
        SloRule(
            name="error-rate",
            metric="runtime.errors",
            mode="rate",
            op=">",
            threshold=max_error_rate,
            for_seconds=1.0,
            clear_seconds=2.0,
            description="actor calls are failing",
        ),
        SloRule(
            name="cluster-imbalance",
            metric="cluster.cpu_imbalance",
            op=">",
            threshold=max_cpu_imbalance,
            for_seconds=3.0,
            clear_seconds=3.0,
            description=(
                "silo CPU utilization is imbalanced (max/min ratio) — "
                "hot actors are concentrating on few silos"
            ),
        ),
        SloRule(
            name="view-staleness",
            # Registered only when a ViewRegistry has standing queries, so
            # the rule never evaluates (metric absent) on view-less
            # deployments.  The probe reports the age of the oldest delta
            # not yet folded into its view shard — the freshness bound a
            # dashboard reader actually observes.
            metric="views.staleness_seconds",
            aggregate="max",
            op=">",
            threshold=max_view_staleness,
            for_seconds=0.5,
            clear_seconds=1.0,
            description=(
                "materialized views are falling behind the ingest stream "
                "(unfolded deltas older than the staleness bound)"
            ),
        ),
        SloRule(
            name="tsblocks-head-memory",
            # Raw (uncompressed) points across all hot heads.  Sustained
            # growth past the budget means sensors are not sealing blocks —
            # block_size misconfigured (0 = tiering off) or capacities were
            # raised without raising the budget — and per-sensor history is
            # back to costing raw-Python memory.
            metric="storage.head_bytes",
            op=">",
            threshold=max_head_bytes,
            for_seconds=2.0,
            clear_seconds=2.0,
            description=(
                "hot-head memory of the tiered time-series store exceeds "
                "its budget (points are not being sealed into blocks)"
            ),
        ),
        SloRule(
            name="trace-drops",
            # Registered only when a FlightRecorder attaches, so the rule
            # never evaluates (metric absent) unless the recorder is on —
            # with retention active, any span drop means the tracer was
            # left on the bounded store path and is losing evidence.
            metric="trace.dropped_spans",
            mode="rate",
            op=">",
            threshold=0.0,
            description=(
                "spans are being dropped while the flight recorder is "
                "enabled — tail-based retention should make drops impossible"
            ),
        ),
    ]
