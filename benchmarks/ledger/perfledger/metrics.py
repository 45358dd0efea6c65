"""Every metric the ledger emits: unit, direction, clock, where it applies.

``BENCHMARK.json`` carries name/unit/better (and bounds) for the driver;
this table adds what that schema has no room for — the clock a metric is
read on and the workloads it is declared on — and ``run.py --selfcheck``
holds the two in agreement.

Units name the clock: ``s``/``us``/``MB`` are host quantities, ``sim_ms``,
``sim_s`` and ``1/sim_s`` are virtual (simulated) time.  Virtual and exact
metrics are deterministic for one seed; host metrics are medians over reps.
"""

from __future__ import annotations

from dataclasses import dataclass

from .attribution import LAYERS

ALL = ("kernel_floor", "ingest_wave", "dashboard_mix", "history_scan",
       "durable_scaleout", "cattle_txn")
RUNTIME = ALL[1:]
SHM = ("ingest_wave", "dashboard_mix", "history_scan", "durable_scaleout")
READERS = ("dashboard_mix", "history_scan", "cattle_txn")
#: Where blocks seal and are read back (small windows or backfill + scans).
SEALING = ("dashboard_mix", "history_scan")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    clock: str  # host | virtual | exact
    workloads: tuple[str, ...]
    doc: str




END_TO_END = (
    Metric(
        "setup_s", "s", "lower", "host", ALL,
        "build deployment, provision actors, register views, generate inputs "
        "(wall time normalised to the reference host speed)",
    ),
    Metric(
        "host_us_per_op", "us", "lower", "host", ALL,
        "wall microseconds of the timed region per completed op (normalised to "
        "the reference host speed, see perfledger.hostspeed)",
    ),
    Metric(
        "host_peak_rss_mb", "MB", "lower", "host", ALL,
        "ru_maxrss of the rep's subprocess at the end of the timed region",
    ),
    Metric(
        "ops_per_sim_s", "1/sim_s", "higher", "virtual", ALL,
        "acked ops per virtual second (first/last 1 s window trimmed on wave "
        "workloads, whole run otherwise)",
    ),
    Metric(
        "ack_p50_ms", "sim_ms", "lower", "virtual", ALL,
        "median write-ack latency (insert, bulk insert, transaction, wave ack)",
    ),
    Metric(
        "ack_p99_ms", "sim_ms", "lower", "virtual", ALL,
        "99th percentile write-ack latency",
    ),
)

def _host_layer_metrics() -> list[Metric]:
    """Per layer: profiled host time and call count (``other`` has no calls)."""
    metrics = []
    for layer in (*LAYERS, "other"):
        metrics.append(Metric(
            f"{layer}.host_us_per_op", "us/op", "lower", "host", ALL,
            f"profiled self-time share of {layer} x untraced host_us_per_op",
        ))
        if layer != "other":
            metrics.append(Metric(
                f"{layer}.calls_per_op", "1/op", "lower", "exact", ALL,
                f"profiled function calls charged to {layer} per op",
            ))
    return metrics


PER_LAYER = (
    # -- user-visible metrics that do not exist on every workload -------------
    Metric(
        "read_p50_ms", "sim_ms", "lower", "virtual", READERS,
        "median pooled read latency",
    ),
    Metric(
        "read_p99_ms", "sim_ms", "lower", "virtual", READERS,
        "99th percentile pooled read latency",
    ),
    Metric(
        "view_staleness_p99_ms", "sim_ms", "lower", "virtual", ("dashboard_mix",),
        "p99 of ViewRegistry.staleness_seconds() sampled every 20 virtual ms",
    ),
    Metric(
        "stored_bytes_per_point", "B/point", "lower", "exact", SHM,
        "(head + sealed block + archive block bytes) / points ingested",
    ),
    Metric(
        "sustainable_ops_per_sim_s", "1/sim_s", "higher", "virtual", ("ingest_wave",),
        "highest offered rate of {2400,2800,3200,3600} with ack p99 <= 1 s and "
        "throughput >= 0.98 x offered",
    ),
    Metric(
        "failed_op_share", "share", "lower", "exact", ALL,
        "ops failed, refused, aborted or timed out / ops attempted",
    ),
    # -- 1. host attribution by profiler ---------------------------------------
    *_host_layer_metrics(),
    # -- 2. named public entry points from the same profile -------------------
    Metric(
        "storage.seal_host_us_per_point", "us/point", "lower", "host", SEALING,
        "SealedBlock.seal cumulative / points sealed",
    ),
    Metric(
        "storage.decode_host_us_per_block", "us/block", "lower", "host", SEALING,
        "SealedBlock.decode cumulative / calls",
    ),
    Metric(
        "storage.append_host_us_per_point", "us/point", "lower", "host", SHM,
        "TieredSeries.append_many cumulative / points appended",
    ),
    Metric(
        "storage.range_host_us_per_call", "us/call", "lower", "host", SEALING,
        "TieredSeries.range cumulative / calls",
    ),
    # -- 3. exact counters read after the run ------------------------------------
    Metric(
        "kernel.events_per_op", "1/op", "lower", "exact", ALL,
        "scheduler events processed per op",
    ),
    Metric(
        "kernel.pending_events_peak", "count", "lower", "exact", ALL,
        "peak queued kernel events, sampled every 0.25 virtual s",
    ),
    Metric(
        "kernel.timer_cancels_per_op", "1/op", "lower", "exact", ALL,
        "timers cancelled per op (deadline timers detached by their ack)",
    ),
    Metric(
        "net.messages_per_op", "1/op", "lower", "exact", RUNTIME,
        "network messages per op",
    ),
    Metric(
        "net.remote_share", "share", "lower", "exact", RUNTIME,
        "messages that left their endpoint / all messages",
    ),
    Metric(
        "net.envelope_fill", "x", "higher", "exact", RUNTIME,
        "batched messages / envelopes",
    ),
    Metric(
        "net.delta_cohort", "x", "higher", "exact", ("dashboard_mix",),
        "view deltas / delta flushes",
    ),
    Metric(
        "runtime.asks_per_op", "1/op", "lower", "exact", RUNTIME,
        "asks per op",
    ),
    Metric(
        "runtime.directory_cache_hit_rate", "share", "higher", "exact", RUNTIME,
        "directory cache hits / lookups",
    ),
    Metric(
        "runtime.invocation_pool_hit_rate", "share", "higher", "exact", RUNTIME,
        "invocation freelist hits / acquisitions",
    ),
    Metric(
        "runtime.cpu_utilization", "share", "lower", "virtual", RUNTIME,
        "mean virtual silo CPU utilization over the load",
    ),
    Metric(
        "storage.kv_writes_per_op", "1/op", "lower", "exact", ("durable_scaleout",),
        "grain-store writes per op",
    ),
    Metric(
        "storage.groupcommit_cohort", "x", "higher", "exact", ("durable_scaleout",),
        "writes that shared a commit / commits",
    ),
    Metric(
        "storage.wal_appends_per_op", "1/op", "lower", "exact", ("durable_scaleout",),
        "redo-journal appends per op",
    ),
    Metric(
        "storage.wcu_per_op", "1/op", "lower", "exact", ("durable_scaleout",),
        "write capacity units consumed per op",
    ),
    Metric(
        "storage.throttle_stall_s", "sim_s", "lower", "virtual", ("durable_scaleout",),
        "virtual seconds writers waited for provisioned capacity",
    ),
    Metric(
        "storage.blocks_sealed", "count", "lower", "exact", SHM,
        "blocks sealed in the load",
    ),
    Metric(
        "storage.blocks_decoded", "count", "lower", "exact", SHM,
        "blocks decoded in the load",
    ),
    Metric(
        "storage.block_skip_rate", "share", "higher", "exact", SEALING,
        "blocks skipped by summary / blocks considered",
    ),
    Metric(
        "storage.summary_answer_share", "share", "higher", "exact", SEALING,
        "blocks answered from summaries / (summaries + decodes)",
    ),
    Metric(
        "storage.compression_ratio", "x", "higher", "exact", SEALING,
        "16 B/point raw / sealed-tier bytes",
    ),
    Metric(
        "aodb.deltas_per_op", "1/op", "lower", "exact", ("dashboard_mix",),
        "view deltas emitted per op",
    ),
    Metric(
        "aodb.view_read_asks", "1/op", "lower", "exact", ("dashboard_mix",),
        "asks per one-group view read (quiesced probe)",
    ),
    Metric(
        "aodb.txn_commit_share", "share", "higher", "exact", ("cattle_txn",),
        "commits / (commits + aborts)",
    ),
    Metric(
        "shm.points_per_op", "1/op", "higher", "exact", SHM,
        "points ingested per op",
    ),
    Metric(
        "shm.live_p99_ms", "sim_ms", "lower", "virtual", ("dashboard_mix",),
        "p99 live_data latency",
    ),
    Metric(
        "shm.raw_recent_p99_ms", "sim_ms", "lower", "virtual", SEALING,
        "p99 recent raw_range latency",
    ),
    Metric(
        "storage.raw_cold_p99_ms", "sim_ms", "lower", "virtual", SEALING,
        "p99 cold raw_range latency",
    ),
    Metric(
        "aodb.view_read_p99_ms", "sim_ms", "lower", "virtual", ("dashboard_mix",),
        "p99 view read latency",
    ),
    # -- 4. virtual ack breakdown from the program's Tracer --------------------
    Metric(
        "runtime.ack_queue_ms", "sim_ms", "lower", "virtual", RUNTIME,
        "mean mailbox wait on a write's critical path",
    ),
    Metric(
        "runtime.ack_cpu_ms", "sim_ms", "lower", "virtual", RUNTIME,
        "mean CPU wait + service on a write's critical path",
    ),
    Metric(
        "net.ack_network_ms", "sim_ms", "lower", "virtual", RUNTIME,
        "mean network transfer on a write's critical path",
    ),
    Metric(
        "storage.ack_storage_ms", "sim_ms", "lower", "virtual", RUNTIME,
        "mean grain-storage wait on a write's critical path",
    ),
    Metric(
        "obs.spans_per_op", "1/op", "lower", "exact", RUNTIME,
        "tracer spans per op",
    ),
    Metric(
        "obs.attached_overhead_x", "x", "lower", "host", ("ingest_wave",),
        "host_us_per_op with tracer + profiler attached / detached",
    ),
    Metric(
        "trace.overhead_x", "x", "lower", "host", ALL,
        "host time of the cProfile rep / untraced",
    ),
)

BY_NAME = {metric.name: metric for metric in (*END_TO_END, *PER_LAYER)}
