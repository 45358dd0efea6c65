"""Simulator calibration against the paper's reported operating points.

Exactly one quantity is *fitted*: the CPU cost of one sensor insert request,
chosen so that an m5.large (capacity 2.0 core-s/s) saturates near the
paper's ~1,800 requests/second (Figure 6).  Everything else — scale-out
linearity, latency percentiles, the raw-vs-live gap — emerges from the
queueing model.

Cost budget per insert request (one sensor, two physical channels,
10 points each):

====================  =========  =============================================
message               core-ms    notes
====================  =========  =============================================
Sensor.ingest           0.35     batch validation + fan-out
Channel.ingest (x2)     0.35     window append, alert check, forwards
VC.ingest_input (x2)    0.30     only every 10th sensor has a virtual channel
====================  =========  =============================================

Average per request: 0.35 + 2x0.35 + 0.1x(2x0.30) = **1.11 core-ms**
=> m5.large saturation at 2.0 / 0.00111 = ~1,800 req/s, matching Figure 6.

The paper's derived numbers then follow by its own arithmetic: 80% target
utilization => 1,400 req/s per m5.large; x1.5 ECU => **2,100 sensors per
m5.xlarge**, the Figure 7 baseline.
"""

from __future__ import annotations

from ..runtime.config import RuntimeConfig

# -- fitted constant ------------------------------------------------------------

SENSOR_INGEST_COST = 0.00035
CHANNEL_INGEST_COST = 0.00035
VIRTUAL_INGEST_COST = 0.00030

# Of each method's cost, the share that is per-message *dispatch* overhead
# (deserialization, scheduling, envelope handling) rather than application
# work — roughly 40% of a small message's service time, in line with the
# RPC-overhead share Orleans reports for sub-millisecond grain calls.  The
# ingestion fast path amortizes exactly this share across an envelope's
# cohort: a K-message envelope pays one dispatch, so each member charges
# (cost - overhead) + overhead/K.  With batching off (cohort 1) charges are
# bit-identical to the seed model, keeping the Figure 6 calibration intact.
DISPATCH_OVERHEAD_COST = 0.00015

# Envelope window on the calibrated fast path (virtual seconds).  1 ms is
# the sweet spot measured in EXPERIMENTS.md's batch-window sweep: wide
# enough that the CPU-serialized sensor→channel fan-out forms cohorts
# (~5 sends/ms at saturation), narrow enough to be invisible next to the
# hundreds of milliseconds of queueing delay at the saturation point.
BATCH_MAX_DELAY = 0.001

# -- derived (not fitted) ------------------------------------------------------

# Query-side costs: a raw range read scans one channel window; a live-data
# request fans out to ~210 channel `latest` calls plus the organization's
# own gather work.
CHANNEL_LATEST_COST = 0.00010  # per-RPC overhead dominates a tiny read
CHANNEL_RANGE_COST = 0.0010
ORG_LIVE_DATA_COST = 0.0015  # gather + assembly of ~210 channel replies
ORG_RECORD_ALERT_COST = 0.0002
AGGREGATOR_INGEST_COST = 0.00010

# Lifecycle costs.
ACTIVATION_COST = 0.0005
DEFAULT_METHOD_COST = 0.0001

# Network: one LAN hop between cluster endpoints (client <-> silo,
# silo <-> silo); loopback is free.
LAN_LATENCY_SECONDS = 0.0005

VIRTUAL_CHANNEL_FRACTION = 0.1  # every 10th sensor (paper §6.1)


def average_insert_cost() -> float:
    """Average core-seconds consumed by one insert request."""
    return (
        SENSOR_INGEST_COST
        + 2 * CHANNEL_INGEST_COST
        + VIRTUAL_CHANNEL_FRACTION * 2 * VIRTUAL_INGEST_COST
    )


def saturation_request_rate(capacity_core_seconds: float) -> float:
    """Predicted insert saturation throughput for a given silo capacity."""
    return capacity_core_seconds / average_insert_cost()


def shm_method_costs() -> dict[tuple[str, str], float]:
    """The calibrated per-method cost table for the SHM platform."""
    return {
        ("Sensor", "ingest"): SENSOR_INGEST_COST,
        ("PhysicalSensorChannel", "ingest"): CHANNEL_INGEST_COST,
        ("VirtualSensorChannel", "ingest_input"): VIRTUAL_INGEST_COST,
        ("PhysicalSensorChannel", "latest"): CHANNEL_LATEST_COST,
        ("VirtualSensorChannel", "latest"): CHANNEL_LATEST_COST,
        ("PhysicalSensorChannel", "query_range"): CHANNEL_RANGE_COST,
        ("VirtualSensorChannel", "query_range"): CHANNEL_RANGE_COST,
        ("Organization", "live_data"): ORG_LIVE_DATA_COST,
        ("Organization", "record_alert"): ORG_RECORD_ALERT_COST,
        ("Aggregator", "ingest"): AGGREGATOR_INGEST_COST,
    }


def calibrated_config(seed: int = 0, fast_path: bool = True) -> RuntimeConfig:
    """A runtime config carrying the calibrated cost model.

    ``fast_path`` enables the ingestion fast path (adaptive delivery
    batching with dispatch-overhead amortization and group-commit
    write-behind).  ``fast_path=False`` reproduces the seed operating
    point — the Figure 6 numbers the paper reports — and is what the BENCH
    baselines record as the "seed" series.
    """
    return RuntimeConfig(
        default_method_cost=DEFAULT_METHOD_COST,
        activation_cost=ACTIVATION_COST,
        method_costs=shm_method_costs(),
        # Benchmarks pre-verify message isolation separately; skip the
        # deep-copy overhead on the hot path so wall-clock stays sane.
        copy_messages=False,
        # Long idle timeout: the paper's sensors never go idle mid-run.
        idle_timeout=3600.0,
        collection_interval=600.0,
        seed=seed,
        batch_max_delay=BATCH_MAX_DELAY if fast_path else None,
        dispatch_overhead_cost=DISPATCH_OVERHEAD_COST if fast_path else 0.0,
        # Same 1 ms window as delivery batching: flushes from one wave's
        # drain collapse into shared BatchWriteItem round trips.
        group_commit_max_delay=BATCH_MAX_DELAY if fast_path else None,
    )
