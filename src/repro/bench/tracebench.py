"""Traced demonstration run: causal trees for the paper's two request kinds.

``python -m repro.bench trace`` provisions a small single-silo deployment
with the causal tracer on, drives one **insert wave** (every sensor sends
one batch, as in §6.1's benchmarking client) and one **live-data request**
(the organization fan-out of §4.2), then renders both reconstructed trees,
their critical paths, and the run's metrics appendix.

Every run verifies the tracing invariants — exactly one root per tree,
every span finished, every measured breakdown component non-negative;
``--smoke`` shrinks the scenario, making it a cheap CI gate for the whole
observability layer.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..obs.render import render_critical_path, render_tree as _render_spans
from ..obs.trace import Span, TraceTree
from ..shm.platform import channel_id_for
from .instances import M5_LARGE
from .report import format_metrics_appendix
from .workload import build_deployment, provision, synth_value

MAX_TREE_LINES = 48  # full fan-outs repeat per channel; cap the render


@dataclass
class TraceScenario:
    """A completed traced run, ready to render or assert against."""

    sensors: int
    org_id: str
    insert_tree: TraceTree
    live_tree: TraceTree
    metrics: dict


def run_scenario(sensors: int = 12, seed: int = 2019) -> TraceScenario:
    """Provision, drive one traced insert wave + one live-data request."""
    deployment = build_deployment([M5_LARGE], seed=seed, tracing=True)
    scheduler = deployment.scheduler
    platform = deployment.platform
    tracer = deployment.runtime.tracer
    scheduler.run_until_complete(
        provision(deployment, sensors, sensors_per_org=sensors)
    )
    # Provisioning produces its own (large) trees; the demo traces only the
    # steady-state requests.
    tracer.clear()
    report = deployment.report
    org_id = report.org_ids[0]

    async def insert_wave() -> Span:
        root = tracer.begin("insert-wave", "client", "client", scheduler.now)
        wave_time = scheduler.now

        async def one(sensor_id: str) -> None:
            batches = {}
            for channel in (0, 1):
                batches[channel_id_for(sensor_id, channel)] = [
                    (wave_time + i * 0.1, synth_value(channel, wave_time))
                    for i in range(10)
                ]
            await platform.ingest(sensor_id, batches, trace=root)

        tasks = [scheduler.spawn(one(s)) for s in report.sensor_ids]
        await scheduler.gather(tasks)
        tracer.finish(root, scheduler.now)
        return root

    async def live_request() -> Span:
        root = tracer.begin(
            f"live-data:{org_id}", "client", "client", scheduler.now
        )
        await platform.live_data(org_id, trace=root)
        tracer.finish(root, scheduler.now)
        return root

    insert_root = scheduler.run_until_complete(insert_wave())
    live_root = scheduler.run_until_complete(live_request())
    return TraceScenario(
        sensors=sensors,
        org_id=org_id,
        insert_tree=TraceTree.build(
            tracer.spans(insert_root.trace_id), insert_root
        ),
        live_tree=TraceTree.build(tracer.spans(live_root.trace_id), live_root),
        metrics=deployment.runtime.metrics.cluster_totals(),
    )


def render_tree(tree: TraceTree, title: str) -> str:
    """The tree, then its critical path + totals (obs.render formats)."""
    return "\n".join(
        [
            _render_spans(tree, title, max_lines=MAX_TREE_LINES),
            render_critical_path(tree),
        ]
    )


def check_invariants(tree: TraceTree) -> list[str]:
    """One tree's assertions; returns human-readable violations."""
    problems: list[str] = []
    for _depth, span in tree.walk():
        if span.end is None:
            problems.append(f"span #{span.span_id} {span.name} never finished")
            continue
        for component in ("queue", "cpu", "network", "storage"):
            if getattr(span, component) < -1e-9:
                problems.append(
                    f"span #{span.span_id} {span.name}: negative "
                    f"{component} ({getattr(span, component):.9f})"
                )
        if span.duration < -1e-9:
            problems.append(
                f"span #{span.span_id} {span.name}: negative duration"
            )
    return problems


def run_trace_bench(smoke: bool = False) -> TraceScenario:
    """The ``trace`` bench's run: the demo scenario, shrunk for ``--smoke``."""
    return run_scenario(sensors=4 if smoke else 12)


def check_trace(scenario: TraceScenario) -> list[str]:
    """Both trees complete and consistent, and as large as the fan-outs."""
    problems = check_invariants(scenario.insert_tree) + check_invariants(
        scenario.live_tree
    )
    if scenario.insert_tree.size() < 1 + scenario.sensors:
        problems.append(
            f"insert tree too small: {scenario.insert_tree.size()} spans "
            f"for {scenario.sensors} sensors"
        )
    if scenario.live_tree.size() < 2:
        problems.append("live-data tree has no fan-out")
    return problems


def render_trace(scenario: TraceScenario) -> str:
    """Both trees with their critical paths, then the metrics appendix."""
    sections = [
        f"trace: causal trees from a traced run "
        f"({scenario.sensors} sensors, 1 organization)",
        "",
        render_tree(scenario.insert_tree, "insert wave"),
        "",
        render_tree(scenario.live_tree, f"live-data fan-out ({scenario.org_id})"),
        format_metrics_appendix(scenario.metrics),
    ]
    return "\n".join(sections)
