"""One rep of one workload, in this process, in one measurement mode.

Modes:

``timed``     instruments detached; gives every end-to-end metric, the exact
              counters and ``virtual_digest``.
``profile``   the same run under ``cProfile`` (external; the program is not
              touched) — host self time per layer, named entry points.
``tracer``    the program's own ``Tracer`` switched on by constructor, one
              root span per write passed as ``trace=`` — the virtual ack
              breakdown.
``attached``  tracer + the virtual-time ``Profiler`` both on, nothing read
              from them: its host cost over ``timed`` is the obs overhead.
``ladder``    the ``ingest_wave`` offered-rate ladder.

:mod:`run` launches each rep in a fresh subprocess (clean RSS, GC state and
caches) and reads the JSON this module prints.
"""

from __future__ import annotations

import cProfile
import gc
import hashlib
import json
import os
import pstats
import resource
import time

from repro.obs import TraceTree
from repro.storage import SealedBlock, TieredSeries

from .attribution import attribute, entry_point
from .hostspeed import SpeedSampler
from .stats import percentile, trimmed_rate
from .workloads import WORKLOADS
from .workloads.ingest_wave import run_rate_ladder

MODES = ("timed", "profile", "tracer", "attached", "ladder")

#: Virtual latency metric per read kind (ms, p99).
READ_KIND_METRICS = {
    "live": "shm.live_p99_ms",
    "raw_recent": "shm.raw_recent_p99_ms",
    "raw_cold": "storage.raw_cold_p99_ms",
    "view": "aodb.view_read_p99_ms",
}

_DRIVER_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class _Spans:
    """Driver spans: name, parent, host and virtual start/end."""

    def __init__(self) -> None:
        self.rows: list[dict] = []
        self._origin = time.perf_counter()

    def phase(self, name: str, workload, action):
        """Run one phase under a span; returns the phase's result."""
        scheduler = workload.scheduler
        virtual_start = scheduler.now if scheduler is not None else 0.0
        host_start = time.perf_counter()
        result = action()
        host_end = time.perf_counter()
        self.rows.append(
            {
                "name": name,
                "parent": None,
                "host_start_s": host_start - self._origin,
                "host_end_s": host_end - self._origin,
                "virtual_start_s": virtual_start,
                "virtual_end_s": workload.scheduler.now,
            }
        )
        return result

    def op_kinds(self, workload) -> None:
        load = next(row for row in self.rows if row["name"] == "load")
        for kind in workload.recorder.kinds():
            first, last = workload.recorder.span(kind)
            self.rows.append(
                {
                    "name": f"op:{kind}",
                    "parent": "load",
                    "count": workload.recorder.count(kind),
                    "host_start_s": load["host_start_s"],
                    "host_end_s": load["host_end_s"],
                    "virtual_start_s": first,
                    "virtual_end_s": last,
                }
            )


def _virtual_metrics(workload) -> dict[str, float]:
    recorder = workload.recorder
    every_kind = recorder.kinds()
    acks = recorder.latencies(workload.write_kinds)
    out = {
        "ops_per_sim_s": trimmed_rate(
            recorder.completions(every_kind),
            workload.load_start,
            workload.load_end,
            workload.rate_window,
        ),
        "ack_p50_ms": percentile(acks, 0.50) * 1000.0,
        "ack_p99_ms": percentile(acks, 0.99) * 1000.0,
    }
    reads = recorder.latencies(workload.read_kinds)
    if reads:
        out["read_p50_ms"] = percentile(reads, 0.50) * 1000.0
        out["read_p99_ms"] = percentile(reads, 0.99) * 1000.0
    for kind, metric in READ_KIND_METRICS.items():
        latencies = recorder.latencies((kind,))
        if latencies:
            out[metric] = percentile(latencies, 0.99) * 1000.0
    out.update(workload.virtual_extras())
    return out


def _digest(payload: dict) -> str:
    """sha256 over the virtual metrics and exact counters, float-exact."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _profile_tables(profiler: cProfile.Profile, workload) -> dict:
    stats = pstats.Stats(profiler).stats
    table = attribute(stats, driver_dir=_DRIVER_DIR)
    sealed_points = (
        workload.counters().get("storage.blocks_sealed", 0) * workload.block_size
    )
    # metric -> (function, units of work; None = its own call count)
    entry_points = {
        "storage.seal_host_us_per_point": (SealedBlock.seal, sealed_points),
        "storage.decode_host_us_per_block": (SealedBlock.decode, None),
        "storage.append_host_us_per_point": (TieredSeries.append_many, workload.points),
        "storage.range_host_us_per_call": (TieredSeries.range, None),
    }
    shares = {}
    for metric, (function, work) in entry_points.items():
        seconds, calls = entry_point(stats, function)
        work = calls if work is None else work
        if calls and work:
            shares[metric] = seconds / table["total_s"] / work
    return {**table, "entry_points": shares}


def _ack_breakdown(workload) -> dict:
    """Mean virtual ms per write op, by where the ack's critical path waited."""
    tracer = workload.tracer()
    spans = tracer.spans()
    by_trace: dict[int, list] = {}
    for span in spans:
        by_trace.setdefault(span.trace_id, []).append(span)
    totals = {"queue": 0.0, "cpu": 0.0, "network": 0.0, "storage": 0.0}
    roots = [s for s in spans if s.parent_id is None and workload.is_ack_root(s)]
    for root in roots:
        path = TraceTree.build(by_trace[root.trace_id], root).critical_path()
        for span in path:
            totals["queue"] += span.queue
            totals["cpu"] += span.cpu
            totals["network"] += span.network
            totals["storage"] += span.storage
    writes = sum(workload.recorder.count(kind) for kind in workload.write_kinds)
    return {
        "runtime.ack_queue_ms": totals["queue"] / writes * 1000.0,
        "runtime.ack_cpu_ms": totals["cpu"] / writes * 1000.0,
        "net.ack_network_ms": totals["network"] / writes * 1000.0,
        "storage.ack_storage_ms": totals["storage"] / writes * 1000.0,
        "obs.spans_per_op": len(spans) / workload.ops,
        "spans_dropped": tracer.dropped,
        "ack_roots": len(roots),
    }


def run_rep(name: str, seed: int, mode: str = "timed", scale: float = 1.0) -> dict:
    """Run one rep and return its result document."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "ladder":
        return {"workload": name, "seed": seed, "mode": mode, "scale": scale,
                "ladder": run_rate_ladder(seed, scale)}
    traced = mode in ("tracer", "attached")
    workload = WORKLOADS[name](
        seed, scale, tracing=traced, profiling=mode == "attached"
    )
    spans = _Spans()
    try:
        with SpeedSampler() as setup_speed:
            spans.phase("setup", workload, workload.setup)
        gc.collect()
        if mode == "profile":
            # No speed sampler under cProfile: its slices would be profiled
            # (and slowed) too.  Only shares are read from this rep.
            profiler = cProfile.Profile()
            started = time.perf_counter()
            profiler.enable()
            spans.phase("load", workload, workload.load)
            profiler.disable()
            load_s = raw_load_s = time.perf_counter() - started
        else:
            profiler = None
            with SpeedSampler() as load_speed:
                spans.phase("load", workload, workload.load)
            load_s, raw_load_s = load_speed.normalised_s, load_speed.raw_s
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        workload.after_load()
        spans.phase("drain", workload, workload.drain)
        audits = spans.phase("audit", workload, workload.audit)
        spans.op_kinds(workload)
        ops = workload.ops
        samples = {
            kind: workload.recorder.count(kind) for kind in workload.recorder.kinds()
        }
        virtual = _virtual_metrics(workload)
        counters = workload.counters()
        info = {
            "ops": ops,
            "points": workload.points,
            "sim_s": workload.load_end - workload.load_start,
            "samples": samples,
        }
        op_counts = {"attempted": workload.attempted, "failed": workload.failed}
        result = {
            "workload": name,
            "seed": seed,
            "mode": mode,
            "scale": scale,
            "host": {
                "setup_s": setup_speed.normalised_s,
                "load_s": load_s,
                "host_us_per_op": load_s / ops * 1e6,
                "host_peak_rss_mb": peak_rss_mb,
                "raw_setup_s": setup_speed.raw_s,
                "raw_load_s": raw_load_s,
                "raw_host_us_per_op": raw_load_s / ops * 1e6,
                "setup_mops": setup_speed.mops,
                "load_mops": load_speed.mops if profiler is None else None,
            },
            "virtual": virtual,
            "counters": counters,
            "info": info,
            "ops": op_counts,
            "audits": [vars(audit) for audit in audits],
            "virtual_digest": _digest(
                {"virtual": virtual, "counters": counters, "info": info,
                 "ops": op_counts}
            ),
            "spans": spans.rows,
        }
        if profiler is not None:
            result["profile"] = _profile_tables(profiler, workload)
        if mode == "tracer":
            result["ack_breakdown"] = _ack_breakdown(workload)
        return result
    finally:
        workload.teardown()
