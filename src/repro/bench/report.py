"""Render experiment results as the tables recorded in EXPERIMENTS.md."""

from __future__ import annotations

import json

from .chaos import ChaosResult, format_chaos_report
from .experiments import AblationResult, FigResult


def _table(headers: list[str], rows: list[list[str]]) -> str:
    def column_width(i: int) -> int:
        if not rows:
            return len(headers[i])
        return max(len(headers[i]), *(len(row[i]) for row in rows))

    widths = [column_width(i) for i in range(len(headers))]

    def line(cells):
        padded = (cell.ljust(width) for cell, width in zip(cells, widths))
        return "  ".join(padded).rstrip()

    separator = "  ".join("-" * width for width in widths)
    return "\n".join([line(headers), separator] + [line(row) for row in rows])


def _ms(value: float | None) -> str:
    return "-" if value is None else f"{value * 1000:.0f}"


_APPENDIX_METRICS = (
    # The cluster-total counters worth printing under every figure table;
    # everything else stays available via MetricsRegistry.snapshot().
    "runtime.asks",
    "runtime.tells",
    "runtime.replies",
    "runtime.errors",
    "runtime.activations_created",
    "runtime.activations_collected",
    "runtime.calls_retried",
    "runtime.deadlines_exceeded",
    "net.messages",
    "net.remote_messages",
    "net.loopback_messages",
    "storage.rcu_consumed",
    "storage.wcu_consumed",
    "storage.throttled_reads",
    "storage.throttled_writes",
    "ingest.accepted",
    "ingest.shed",
    "placement.decisions",
)


def format_metrics_appendix(totals: dict) -> str:
    """Render a run's cluster-total metrics as an indented appendix."""
    if not totals:
        return ""
    lines = ["  metrics appendix (cluster totals, final run):"]
    shown = [name for name in _APPENDIX_METRICS if totals.get(name)]
    for name in shown:
        value = totals[name]
        rendered = f"{value:.4g}" if isinstance(value, float) else str(value)
        lines.append(f"    {name} = {rendered}")
    if not shown:
        return ""
    return "\n" + "\n".join(lines)


def _figure_appendix(result: FigResult) -> str:
    if not result.points:
        return ""
    return format_metrics_appendix(result.points[-1].metrics)


def format_throughput_figure(result: FigResult) -> str:
    """Figures 6 and 7: throughput vs offered load."""
    headers = [
        "sensors", "servers", "offered req/s", "throughput req/s", "+/-", "util %",
    ]
    rows = [
        [
            str(p.sensors),
            str(p.servers),
            f"{p.offered_rps:.0f}",
            f"{p.throughput:.0f}",
            f"{p.throughput_std:.0f}",
            f"{p.utilization * 100:.0f}",
        ]
        for p in result.points
    ]
    body = _table(headers, rows)
    notes = "".join(f"\n  {key}: {value}" for key, value in result.notes.items())
    return f"{result.figure}: {result.title}\n{body}{notes}{_figure_appendix(result)}"


def format_latency_figure(result: FigResult, kind: str) -> str:
    """Figures 8 and 9: latency percentiles vs sensors (milliseconds)."""
    headers = ["sensors", "util %", "n", "p50 ms", "p90 ms", "p99 ms", "p99.9 ms"]
    rows = []
    for point in result.points:
        summary = getattr(point, kind)
        rows.append(
            [
                str(point.sensors),
                f"{point.utilization * 100:.0f}",
                str(summary.requests if summary else 0),
                _ms(summary.p50 if summary else None),
                _ms(summary.p90 if summary else None),
                _ms(summary.p99 if summary else None),
                _ms(summary.p999 if summary else None),
            ]
        )
    body = _table(headers, rows)
    return f"{result.figure}: {result.title}\n{body}{_figure_appendix(result)}"


def format_ablation(result: AblationResult) -> str:
    """Generic ablation table from its row dictionaries."""
    if not result.rows:
        return f"ablation {result.name}: no rows"
    headers = list(result.rows[0].keys())
    rows = []
    for row in result.rows:
        cells = []
        for header in headers:
            value = row[header]
            if isinstance(value, float):
                cells.append(f"{value:.4g}")
            else:
                cells.append(str(value))
        rows.append(cells)
    body = _table(headers, rows)
    notes = "".join(f"\n  {key}: {value}" for key, value in result.notes.items())
    return f"ablation: {result.name}\n{body}{notes}"


def format_payload(payload: dict) -> str:
    """A gated bench's payload: its summary, then one table per series of
    points (the seed and fast sweeps of Figures 6 and 7)."""
    lines = [
        f"{payload['bench']} ({payload['mode']}): {json.dumps(payload['summary'])}"
    ]
    for label, rows in payload["series"].items():
        if isinstance(rows, list):
            cells = [[str(value) for value in row.values()] for row in rows]
            lines += [f"{label} series:", _table(list(rows[0]), cells)]
    return "\n".join(lines)


def format_result(result: FigResult | AblationResult) -> str:
    """Dispatch to the right formatter."""
    if isinstance(result, ChaosResult):
        return format_chaos_report(result)
    if isinstance(result, tuple) and result and isinstance(result[0], ChaosResult):
        # (on, off, replay): the replay only feeds the determinism check.
        return format_chaos_report(*result[:2])
    if isinstance(result, AblationResult):
        return format_ablation(result)
    if result.figure in ("fig6", "fig7"):
        return format_throughput_figure(result)
    kind = "raw" if result.figure == "fig8" else "live"
    return format_latency_figure(result, kind)
