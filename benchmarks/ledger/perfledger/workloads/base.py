"""What every ledger workload provides, and the counter plumbing they share.

A workload is driven through four phases by :mod:`perfledger.rep`:
``setup`` (build + provision + generate inputs from the seed), ``load``
(the timed region, run to the last ack), ``drain`` (quiesce, probes that
need an idle system) and ``audit`` (output correctness).  Everything a
workload reports is observed from outside the program: its own send/ack
log, and the public counters of ``Scheduler``, ``runtime.metrics``,
``runtime.stats``, ``network.stats``, the store and ``db.views``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..loadgen import WAVE_CADENCE, Recorder, sample_every

PENDING_SAMPLE_INTERVAL = 0.25


@dataclass
class Audit:
    name: str
    ok: bool
    detail: str = ""


def scaled(value: int, scale: float, floor: int = 1) -> int:
    """``value`` shrunk by ``scale`` (1/20 in the self-check), at least ``floor``."""
    return max(floor, round(value * scale))


class Workload:
    """Base class; subclasses fill in the phases."""

    name = ""
    #: One line for BENCHMARK.json: why this workload exists.
    why = ""
    #: Window for ``ops_per_sim_s`` trimming; None = whole run (no cadence).
    rate_window: float | None = WAVE_CADENCE
    write_kinds: tuple[str, ...] = ("insert",)
    read_kinds: tuple[str, ...] = ()
    #: Points per sealed block in this workload's channel windows (0 = no channels).
    block_size = 0

    def __init__(
        self,
        seed: int,
        scale: float = 1.0,
        tracing: bool = False,
        profiling: bool = False,
    ) -> None:
        self.seed = seed
        self.scale = scale
        self.tracing = tracing
        self.profiling = profiling
        self.rng = random.Random(seed)
        self.recorder = Recorder()
        self.scheduler = None
        self.attempted = 0
        self.failed = 0
        self.points = 0
        self.load_start = 0.0
        self.load_end = 0.0
        self.pending_samples: list[int] = []

    # -- phases ------------------------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def load(self) -> None:
        raise NotImplementedError

    def after_load(self) -> None:
        """Read state that idling would dilute (CPU utilization, counters)."""

    def drain(self) -> None:
        """Quiesce; run probes that need an idle system."""

    def audit(self) -> list[Audit]:
        raise NotImplementedError

    def teardown(self) -> None:
        """Undo process-wide edits (actor class policies) made by setup."""

    # -- results -----------------------------------------------------------------

    def counters(self) -> dict[str, float]:
        """Exact per-layer counters (per-layer metric name -> value)."""
        raise NotImplementedError

    def virtual_extras(self) -> dict[str, float]:
        """Workload-specific virtual/exact metrics beyond the latency log."""
        return {}

    def tracer(self):
        """The program's Tracer (tracer mode needs a runtime workload)."""
        raise NotImplementedError

    def is_ack_root(self, span) -> bool:
        """Whether a parentless span is one write op's root (tracer mode)."""
        return span.kind == "client"

    # -- helpers -----------------------------------------------------------------

    def _run_load(self, main_coro) -> None:
        """Run the load coroutine with the pending-events sampler beside it."""
        scheduler = self.scheduler
        running = True
        self.load_start = scheduler.now
        scheduler.spawn(
            sample_every(
                scheduler,
                PENDING_SAMPLE_INTERVAL,
                lambda: scheduler.pending_events,
                self.pending_samples,
                lambda: running,
            ),
            name="ledger-pending-sampler",
        )
        scheduler.run_until_complete(main_coro, name="ledger-load")
        running = False
        self.load_end = scheduler.now

    @property
    def ops(self) -> int:
        return sum(self.recorder.count(kind) for kind in self.recorder.kinds())


class RuntimeWorkload(Workload):
    """A workload over an ``AodbRuntime`` deployment, built by ``setup`` as
    ``self.dep``: shared counter snapshots around the timed region, the
    tracer handle and the stored-bytes accounting."""

    dep = None

    def _run_load(self, main_coro) -> None:
        self.counts = RuntimeCounters(self.dep)
        self.counts.mark_before()
        super()._run_load(main_coro)

    def after_load(self) -> None:
        self.counts.mark_after()

    def counters(self) -> dict[str, float]:
        return self.counts.per_layer(
            self.ops, self.points, max(self.pending_samples, default=0)
        )

    def virtual_extras(self) -> dict[str, float]:
        if not self.block_size:
            return {}
        return {
            "stored_bytes_per_point": self.counts.stored_bytes_per_point(self.points)
        }

    def tracer(self):
        return self.dep.runtime.tracer


class RuntimeCounters:
    """Before/after snapshots of a runtime's public counters."""

    def __init__(self, deployment) -> None:
        self.deployment = deployment
        self.before: dict[str, float] = {}
        self.after: dict[str, float] = {}
        self.cpu_utilization = 0.0

    def _snapshot(self) -> dict[str, float]:
        runtime = self.deployment.runtime
        totals = dict(runtime.metrics.cluster_totals())
        blocks = runtime.tsblock_stats
        totals["tsblocks.skipped"] = blocks.blocks_skipped
        totals["tsblocks.considered"] = blocks.blocks_considered
        database = self.deployment.database
        totals["txn.commits"] = database.stats_commits
        totals["txn.aborts"] = database.stats_aborts
        return totals

    def mark_before(self) -> None:
        self.before = self._snapshot()

    def mark_after(self) -> None:
        self.after = self._snapshot()
        silos = self.deployment.runtime.silos()
        self.cpu_utilization = sum(s.cpu.utilization() for s in silos) / len(silos)

    def stored_bytes_per_point(self, points: int) -> float:
        """(head + sealed block + archive block bytes) / points ingested."""
        stored = (
            self.after.get("storage.head_bytes", 0.0)
            + self.after.get("storage.block_bytes", 0.0)
            + self.deployment.platform.archive.block_bytes
        )
        return stored / points

    def delta(self, name: str) -> float:
        return self.after.get(name, 0.0) - self.before.get(name, 0.0)

    def ratio(self, numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    def per_layer(self, ops: int, points: int, pending_peak: int) -> dict[str, float]:
        """The exact-counter layer metrics every runtime workload shares."""
        d = self.delta
        ratio = self.ratio
        hits, misses = d("directory.cache_hits"), d("directory.cache_misses")
        pool_hits, pool_misses = d("pool.invocation_hits"), d("pool.invocation_misses")
        summaries, decoded = d("storage.summary_answers"), d("storage.blocks_decoded")
        commits, aborts = d("txn.commits"), d("txn.aborts")
        return {
            "kernel.events_per_op": ratio(d("kernel.events_processed"), ops),
            "kernel.pending_events_peak": pending_peak,
            "kernel.timer_cancels_per_op": ratio(d("kernel.timer_cancels"), ops),
            "net.messages_per_op": ratio(d("net.messages"), ops),
            "net.remote_share": ratio(d("net.remote_messages"), d("net.messages")),
            "net.envelope_fill": ratio(d("net.batched_messages"), d("net.envelopes")),
            "net.delta_cohort": ratio(d("views.deltas_emitted"), d("views.flushes")),
            "runtime.asks_per_op": ratio(d("runtime.asks"), ops),
            "runtime.directory_cache_hit_rate": ratio(hits, hits + misses),
            "runtime.invocation_pool_hit_rate": ratio(
                pool_hits, pool_hits + pool_misses
            ),
            "runtime.cpu_utilization": self.cpu_utilization,
            "storage.kv_writes_per_op": ratio(d("storage.writes"), ops),
            "storage.groupcommit_cohort": ratio(
                d("groupcommit.batched_writes"), d("groupcommit.batches")
            ),
            "storage.wal_appends_per_op": ratio(d("wal.appends"), ops),
            "storage.wcu_per_op": ratio(d("storage.wcu_consumed"), ops),
            "storage.throttle_stall_s": d("storage.throttle_stall_seconds"),
            "storage.blocks_sealed": d("storage.blocks_sealed"),
            "storage.blocks_decoded": decoded,
            "storage.block_skip_rate": ratio(
                d("tsblocks.skipped"), d("tsblocks.considered")
            ),
            "storage.summary_answer_share": ratio(summaries, summaries + decoded),
            "storage.compression_ratio": self.after.get(
                "storage.compression_ratio", 0.0
            ),
            "aodb.deltas_per_op": ratio(d("views.deltas_emitted"), ops),
            "aodb.txn_commit_share": ratio(commits, commits + aborts),
            "shm.points_per_op": ratio(points, ops),
        }
