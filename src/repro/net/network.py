"""A simulated message network between named endpoints.

The network knows three kinds of paths and charges a (possibly stochastic)
latency for each transfer:

- ``loopback``: sender and receiver are the same endpoint (same silo);
- ``lan``: two distinct endpoints in the cluster (silo to silo, or the
  benchmarking client to a silo);
- custom per-pair overrides for asymmetric topologies.

The actor runtime commits every request and every reply to the wire
through :meth:`Network.plan_envelope` (one envelope per message, or one per
batch on the ingestion fast path), which is what makes placement strategies
(§5 of the paper: random vs. prefer-local) observable in benchmarks.  The
network only *plans*: it returns the sampled delay (or ``None`` for a lost
envelope) and the caller schedules the arrival itself — one timer event per
hop with a positive delay, none at zero delay — so no task waits on the
wire.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..kernel.rng import RngRegistry
from ..kernel.scheduler import Scheduler
from .faults import NetworkFaultInjector, PartitionInjector
from .latency import ConstantLatency, LatencyModel, ZERO_LATENCY


@dataclass
class NetworkStats:
    """Counters the benchmarks read after a run."""

    messages: int = 0
    loopback_messages: int = 0
    remote_messages: int = 0
    lost_messages: int = 0
    duplicated_messages: int = 0
    partitioned_messages: int = 0
    total_latency: float = 0.0
    per_endpoint_sent: dict[str, int] = field(default_factory=dict)
    # Envelope accounting: wire transfers actually performed.  Without
    # batching every message is its own envelope; with batching
    # ``envelopes < messages`` and the gap is the saved per-message work.
    envelopes: int = 0
    batched_messages: int = 0
    largest_envelope: int = 0


class Network:
    """Latency-modeled transfers between registered endpoints."""

    def __init__(
        self,
        scheduler: Scheduler,
        rng: RngRegistry | None = None,
        loopback: LatencyModel | None = None,
        lan: LatencyModel | None = None,
    ) -> None:
        self._scheduler = scheduler
        self._rng = (rng or RngRegistry(0)).stream("network")
        self.loopback_model = loopback or ZERO_LATENCY
        self.lan_model = lan or ConstantLatency(0.0005)
        self._endpoints: set[str] = set()
        self._overrides: dict[tuple[str, str], LatencyModel] = {}
        self.faults: NetworkFaultInjector | None = None
        self.partitions: PartitionInjector | None = None
        self.stats = NetworkStats()

    def inject_faults(self, injector: NetworkFaultInjector | None) -> None:
        """Attach (or, with None, detach) a chaos fault injector."""
        self.faults = injector

    def inject_partitions(self, injector: PartitionInjector | None) -> None:
        """Attach (or, with None, detach) a scripted partition injector."""
        self.partitions = injector

    def partitioned(self, source: str, target: str) -> bool:
        """Whether a scripted partition currently cuts this directed pair."""
        return self.partitions is not None and self.partitions.blocks(
            source, target, self._scheduler.now
        )

    def register(self, endpoint: str) -> None:
        """Add an endpoint; transfers to unknown endpoints are rejected."""
        self._endpoints.add(endpoint)

    def unregister(self, endpoint: str) -> None:
        """Remove an endpoint (a silo leaving the cluster)."""
        self._endpoints.discard(endpoint)

    def knows(self, endpoint: str) -> bool:
        """Return True if ``endpoint`` is registered."""
        return endpoint in self._endpoints

    def set_path_latency(self, source: str, target: str, model: LatencyModel) -> None:
        """Override the latency model for the directed pair (source, target)."""
        self._overrides[(source, target)] = model

    def should_duplicate(self, source: str, target: str) -> bool:
        """Chaos hook: whether the delivery just transferred arrives twice.

        Consulted by the runtime after a successful transfer; duplication is
        a *delivery* phenomenon, so re-enqueueing is the receiver side's job.
        """
        if self.faults is None:
            return False
        if not self.faults.duplicates(source, target, self._scheduler.now):
            return False
        self.stats.duplicated_messages += 1
        return True

    def plan_envelope(self, source: str, target: str, count: int) -> float | None:
        """Commit one envelope of ``count`` messages to the wire.

        Validates endpoints, rolls the loss chance once for the whole
        envelope (a dropped envelope loses every message aboard, exactly
        like a lost datagram carrying a batched payload), samples its
        latency and records stats.  Returns the delay the envelope takes to
        arrive, or ``None`` when it was lost — the caller then schedules no
        arrival for the affected messages, so only a caller-side deadline
        turns that silence into an error.

        Raises :class:`KeyError` if either endpoint is unknown — an unknown
        target means cluster membership and the caller's routing disagree,
        which should fail loudly rather than silently deliver.
        """
        # Partition check, latency sampling and stats bookkeeping are written
        # out in this one body: it runs once per unbatched message and once
        # per reply, so a method-call fan-out would be part of the
        # per-message bill.
        endpoints = self._endpoints
        if source not in endpoints:
            raise KeyError(f"unknown source endpoint {source!r}")
        if target not in endpoints:
            raise KeyError(f"unknown target endpoint {target!r}")
        stats = self.stats
        partitions = self.partitions
        if partitions is not None and partitions.blocks(
            source, target, self._scheduler.now
        ):
            partitions.record_blocked(count)
            stats.partitioned_messages += count
            stats.lost_messages += count
            recorder = self._scheduler.recorder
            if recorder is not None:
                recorder.net.record("partition-block", source, target)
            return None
        faults = self.faults
        if faults is not None and faults.drops(source, target, self._scheduler.now):
            stats.lost_messages += count
            return None
        loopback = source == target
        override = self._overrides.get((source, target)) if self._overrides else None
        if override is not None:
            delay = override.sample(self._rng)
        elif loopback:
            delay = self.loopback_model.sample(self._rng)
        else:
            delay = self.lan_model.sample(self._rng)
        if faults is not None:
            delay += faults.extra_delay_for(source, target, self._scheduler.now)
        stats.messages += count
        if loopback:
            stats.loopback_messages += count
        else:
            stats.remote_messages += count
        stats.total_latency += delay * count
        sent = stats.per_endpoint_sent
        sent[source] = sent.get(source, 0) + count
        stats.envelopes += 1
        if count > 1:
            stats.batched_messages += count
        if count > stats.largest_envelope:
            stats.largest_envelope = count
        return delay

    def register_metrics(self, registry: "object") -> None:
        """Export the network counters as pull-probes on ``registry``.

        Typed loosely to avoid importing :mod:`repro.obs` here (the net
        layer sits below the observability package in the import graph).
        """
        stats = self.stats
        registry.register_probe("net.messages", lambda: stats.messages)
        registry.register_probe("net.remote_messages", lambda: stats.remote_messages)
        registry.register_probe(
            "net.loopback_messages", lambda: stats.loopback_messages
        )
        registry.register_probe("net.lost_messages", lambda: stats.lost_messages)
        registry.register_probe(
            "net.duplicated_messages", lambda: stats.duplicated_messages
        )
        registry.register_probe(
            "net.partitioned_messages", lambda: stats.partitioned_messages
        )
        registry.register_probe(
            "net.total_latency_seconds", lambda: stats.total_latency
        )
        registry.register_probe("net.envelopes", lambda: stats.envelopes)
        registry.register_probe("net.batched_messages", lambda: stats.batched_messages)
        registry.register_probe("net.largest_envelope", lambda: stats.largest_envelope)
