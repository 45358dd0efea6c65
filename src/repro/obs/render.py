"""Render trace trees, critical paths and metrics snapshots as text.

The output format is the one documented in DESIGN.md's observability
section: one line per span, indented by causal depth, with the virtual-time
breakdown in milliseconds (``[queue | cpu | net | sto | wait]``)::

    live_data trace 42 (18 spans, 3.1 ms end-to-end)
    └─ ask Organization/org-0.live_data  3.1ms  [queue 0.0 | cpu 0.4 | ...]
       ├─ ask PhysicalSensorChannel/....latest  1.2ms  [...]
       ...
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .metrics import MetricsRegistry
from .trace import Span, TraceTree

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .health import Alert, HealthMonitor
    from .profile import ProfileReport


def _ms(value: float) -> str:
    return f"{value * 1000:.2f}"


def format_span_line(span: Span) -> str:
    """One span rendered as ``kind name duration [breakdown]``."""
    b = span.breakdown()
    parts = (
        f"queue {_ms(b['queue'])} | cpu {_ms(b['cpu'])} | "
        f"net {_ms(b['network'])} | sto {_ms(b['storage'])} | "
        f"wait {_ms(b['other'])}"
    )
    attempt = f" attempt={span.attempt}" if span.attempt else ""
    status = "" if span.status == "ok" else f" !{span.status}"
    silo = f" @{span.silo_id}" if span.silo_id else ""
    return (
        f"{span.kind} {span.name}{silo}  {_ms(span.duration)}ms  "
        f"[{parts}]{attempt}{status}"
    )


def render_tree(tree: TraceTree, title: str = "", max_lines: int = 200) -> str:
    """The whole causal tree, one indented line per span."""
    walk = tree.walk()
    root = tree.root
    header = (
        f"{title or root.name}: trace {root.trace_id} "
        f"({len(walk)} spans, {_ms(root.duration)} ms end-to-end)"
    )
    lines = [header]
    for depth, span in walk[:max_lines]:
        prefix = "  " * depth + ("└─ " if depth else "── ")
        lines.append(prefix + format_span_line(span))
    if len(walk) > max_lines:
        lines.append(f"  … {len(walk) - max_lines} more spans")
    return "\n".join(lines)


def render_critical_path(tree: TraceTree) -> str:
    """The root→leaf chain that determined the end-to-end latency."""
    path = tree.critical_path()
    lines = [f"critical path ({len(path)} spans):"]
    previous_end = tree.root.start
    for span in path:
        contribution = (span.end or span.start) - previous_end
        previous_end = span.end or span.start
        lines.append(
            f"  +{_ms(max(0.0, contribution))}ms  {format_span_line(span)}"
        )
    totals = tree.totals()
    lines.append(
        "tree totals: "
        + " ".join(f"{key}={_ms(value)}ms" for key, value in totals.items())
    )
    return "\n".join(lines)


def _bar(fraction: float, width: int = 24) -> str:
    filled = max(0, min(width, round(fraction * width)))
    return "█" * filled + "·" * (width - filled)


def render_profile(
    report: "ProfileReport",
    title: str = "continuous profile",
    max_rows: int = 30,
) -> str:
    """The flame-style report: hottest (class, method) rows, bar-scaled.

    One line per method row — CPU service share of the kernel total as a
    bar, then the service/wait/queue/storage split in milliseconds — plus
    the hot-activation and mailbox-backlog sections.
    """
    total = report.total_cpu_seconds
    lines = [
        f"{title}: {_ms(report.attributed_cpu_seconds)} of "
        f"{_ms(total)} ms CPU attributed "
        f"({report.coverage * 100:.1f}% coverage, {report.turns} turns)"
    ]
    for row in report.rows[:max_rows]:
        share = row.cpu_service / total if total > 0 else 0.0
        lines.append(
            f"  {_bar(share)} {share * 100:5.1f}%  {row.label}  "
            f"[cpu {_ms(row.cpu_service)} | core-wait {_ms(row.cpu_wait)} | "
            f"queue {_ms(row.queue_wait)} | sto {_ms(row.storage_wait)}] "
            f"calls={row.calls}"
            + (f" errors={row.errors}" if row.errors else "")
        )
    if len(report.rows) > max_rows:
        lines.append(f"  … {len(report.rows) - max_rows} more rows")
    if report.method_overflow or report.activation_overflow:
        lines.append(
            f"  (overflow: {report.method_overflow} method fetches, "
            f"{report.activation_overflow} activation fetches collapsed)"
        )
    lines.append("hot activations (by CPU service):")
    for row in report.hot_activations:
        lines.append(
            f"  {row.label}  cpu {_ms(row.cpu_service)}ms  "
            f"calls={row.calls}"
        )
    if not report.hot_activations:
        lines.append("  (none)")
    lines.append("mailbox backlogs (deepest first):")
    for actor, depth, silo_id in report.backlogs:
        lines.append(f"  {actor} @{silo_id}  depth={depth}")
    if not report.backlogs:
        lines.append("  (none)")
    return "\n".join(lines)


def render_alerts(alerts: "list[Alert]", title: str = "alerts") -> str:
    """The alert log, one transition per line, oldest first."""
    lines = [title]
    for alert in alerts:
        marker = "FIRING " if alert.state == "firing" else "cleared"
        lines.append(
            f"  t={alert.at:8.3f}  {marker} [{alert.severity}] {alert.rule}: "
            f"value {alert.value:.6g} vs threshold {alert.threshold:.6g}"
        )
    if not alerts:
        lines.append("  (none)")
    return "\n".join(lines)


def render_health(monitor: "HealthMonitor", title: str = "health") -> str:
    """Current rule states plus the alert history."""
    active = set(monitor.active())
    lines = [f"{title}: {len(active)} of {len(monitor.rules)} rules firing"]
    for rule in monitor.rules:
        value = monitor.last_value(rule.name)
        shown = "n/a" if value != value else f"{value:.6g}"  # NaN → unevaluated
        state = "FIRING" if rule.name in active else "ok"
        lines.append(
            f"  [{state:6}] {rule.name}: {rule.metric}"
            + (f".{rule.value_field}" if rule.value_field else "")
            + (" rate" if rule.mode == "rate" else "")
            + f" {rule.op} {rule.threshold:.6g} (last {shown})"
        )
    lines.append(render_alerts(monitor.alerts, "alert history:"))
    return "\n".join(lines)


def render_metrics(
    registry: MetricsRegistry,
    title: str = "metrics appendix",
    only_prefixes: tuple[str, ...] = (),
) -> str:
    """A sorted ``name{labels} = value`` listing of the registry."""
    lines = [title]
    snapshot = registry.snapshot()
    for key in sorted(snapshot):
        value = snapshot[key]
        if only_prefixes and not any(key.startswith(p) for p in only_prefixes):
            continue
        if isinstance(value, dict):
            inner = ", ".join(f"{k}={v:.6g}" for k, v in value.items())
            lines.append(f"  {key} = {{{inner}}}")
        else:
            lines.append(f"  {key} = {value:.6g}")
    return "\n".join(lines)
