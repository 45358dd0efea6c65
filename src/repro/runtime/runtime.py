"""The actor-oriented database runtime facade.

:class:`AodbRuntime` ties the substrates together: it registers actor types,
manages the cluster of silos, routes messages (placement → network →
mailbox → turn → reply), runs the idle-activation collector and the
durable-reminder pump, and exposes the statistics benchmarks read.  No task
runs per message: each hop (request or reply) is one timer event, or none
at zero wire delay (DESIGN §11 has the event audit).

The public surface an application touches is small::

    runtime = AodbRuntime(scheduler)
    runtime.register_actor(Cow)
    runtime.add_silo("silo-1", cores=4)
    cow = runtime.ref("Cow", "dk-0042")
    await cow.record_reading(reading)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Iterable

import math

from ..errors import (
    ActorDeactivatedError,
    ConditionalCheckFailedError,
    DeadlineExceededError,
    FencedWriteError,
    MailboxOverflowError,
    QuarantinedSiloError,
    ReentrancyError,
    ReproError,
    SiloUnavailableError,
    UnknownActorTypeError,
)
from ..kernel.futures import _PENDING as _F_PENDING
from ..kernel.futures import Future
from ..kernel.rng import RngRegistry
from ..kernel.scheduler import Scheduler, Task
from ..net.batching import EnvelopeBatcher
from ..net.network import Network
from ..obs.metrics import MetricsRegistry
from ..obs.profile import Profiler
from ..obs.trace import Span, Tracer
from ..storage.groupcommit import GroupCommitWriter
from ..storage.kv import InMemoryKVStore, KeyValueStore
from ..storage.serde import snapshot
from ..storage.system_store import SystemStore
from ..storage.tsblocks import BlockStats
from ..storage.wal import RedoJournal
from .activation import Activation
from .actor import Actor
from .config import RuntimeConfig
from .directory import DirectoryCache, GrainDirectory
from .key import ActorKey
from .messages import DeliveryReceipt, Invocation
from .persistence import WritePolicy
from .placement import PinnedPlacement, build_strategies
from .reference import ActorRef
from .resilience import RetryPolicy
from .silo import Silo

CLIENT_ENDPOINT = "client"
# Pseudo network endpoint standing in for cluster system storage: never
# registered with the Network (the store is not message-routed), but a
# PartitionInjector may name it in a group to model silos losing sight of
# the membership table.  The runtime consults the injector directly for
# lease refreshes and fence acquisition.
SYSTEM_STORE_ENDPOINT = "system-store"
# Placement strategy for actor types that do not choose one (Orleans'
# default: random is adequate for load balancing at scale).
DEFAULT_PLACEMENT = "random"
# Quorum fraction of non-dead membership rows that must be active for the
# failure detector to commit an eviction (a view change).  At 0.5 a
# partition minority — which sees the majority's rows as suspected — can
# never evict the majority, while a 2-silo cluster with one crashed member
# still makes progress (1 of 2 meets the bar; the system store is the
# tiebreak, as in lease-based membership).
EVICTION_QUORUM = 0.5


@dataclass
class RuntimeStats:
    """Counters accumulated across the life of the runtime."""

    asks: int = 0
    tells: int = 0
    replies: int = 0
    errors: int = 0
    dropped_messages: int = 0
    dropped_replies: int = 0  # an endpoint left the network mid-turn
    activations_created: int = 0
    activations_collected: int = 0
    activations_crashed: int = 0
    activation_failures: int = 0
    reminders_delivered: int = 0
    # Fault-tolerance counters.  ``calls_retried`` counts retry *attempts*
    # issued by the resilient call path; ``deadlines_exceeded`` counts ask
    # attempts failed by a (call or per-attempt) deadline.
    calls_retried: int = 0
    deadlines_exceeded: int = 0
    silos_suspected: int = 0
    silos_evicted: int = 0
    activations_replaced: int = 0
    # Partition-tolerance counters: silos that parked themselves after
    # losing their membership lease, and silos that re-announced (with a
    # fresh epoch) after the partition healed.
    silos_quarantined: int = 0
    silos_rejoined: int = 0
    # Elasticity counters: completed live migrations, migrations that could
    # not run (missing/closing activation, bad target), and graceful drains.
    migrations: int = 0
    migration_failures: int = 0
    silos_drained: int = 0
    last_error: str = ""
    failed_keys: list[str] = field(default_factory=list)


class AodbRuntime:
    """An actor-oriented database over simulated cluster hardware."""

    def __init__(
        self,
        scheduler: Scheduler | None = None,
        config: RuntimeConfig | None = None,
        grain_storage: KeyValueStore | None = None,
        network: Network | None = None,
        system_store: SystemStore | None = None,
        rng: RngRegistry | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        profiler: Profiler | None = None,
    ) -> None:
        self.scheduler = scheduler or Scheduler()
        self.config = config or RuntimeConfig()
        self.config.validate()
        self.rng = rng or RngRegistry(self.config.seed)
        # Explicit None checks: a Tracer with no spans and an empty registry
        # are falsy-adjacent objects we must not silently replace.
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.profiler = profiler if profiler is not None else Profiler(enabled=False)
        self.network = network or Network(self.scheduler, rng=self.rng)
        self.system_store = system_store or SystemStore(self.scheduler)
        # Explicit None check: stores define __len__, so an empty store is
        # falsy and `or` would silently discard it.
        self.grain_storage = (
            grain_storage if grain_storage is not None else InMemoryKVStore()
        )
        # Group-commit write-behind: state flushes issued within one window
        # collapse into a single storage round trip (None = direct puts).
        self.group_commit: GroupCommitWriter | None = None
        if self.config.group_commit_max_delay is not None:
            self.group_commit = GroupCommitWriter(
                self.grain_storage,
                self.scheduler,
                max_delay=self.config.group_commit_max_delay,
            )
        self.directory = GrainDirectory()
        # Per-endpoint directory caches on the send path, invalidated via
        # directory subscription (created lazily, one per caller endpoint).
        self._directory_caches: dict[str, DirectoryCache] = {}
        # Interned ActorKeys: ref() runs once per outbound call, and keys
        # are immutable pure values, so the frozen-dataclass construction
        # (+ validation) is paid once per distinct actor instead of per call.
        self._actor_keys: dict[tuple[str, str], ActorKey] = {}
        # Ingestion fast path: coalesce same-path deliveries into envelopes.
        self._batcher: EnvelopeBatcher | None = None
        if self.config.batch_max_delay is not None:
            self._batcher = EnvelopeBatcher(
                self.network,
                self.scheduler,
                self._arrive,
                lambda invocation, _, exc: self._fail_invocation(invocation, exc),
                max_delay=self.config.batch_max_delay,
            )
        self.strategies = build_strategies(
            self.rng.stream("placement"),
            load_probe=self._silo_load,
            fallback=self.config.placement_fallback,
        )
        self.stats = RuntimeStats()
        self._actor_types: dict[str, type[Actor]] = {}
        self._silos: dict[str, Silo] = {}
        # Cluster services (collector, reminder pump, failure detector), in
        # spawn order; empty until start().
        self._services: list[Task] = []
        self._suspected: set[str] = set()
        self._heartbeats: dict[str, Task] = {}
        # Write-ahead redo journal + per-silo pumps (None/empty while
        # config.redo_lag == 0, the paper's benchmarked configuration).
        self.redo_journal: RedoJournal | None = None
        self._redo_pumps: dict[str, Task] = {}
        self._reminder_due: dict[tuple[str, str], float] = {}
        self._stopped = False
        # Set by AodbDatabase when database features are layered on top.
        self.database: Any = None
        # Cluster-wide tiered time-series counters: every TieredSeries the
        # actors open feeds these, exported as storage.* probes below.
        self.tsblock_stats = BlockStats()
        self.network.register(CLIENT_ENDPOINT)
        self.network.register_metrics(self.metrics)
        # Provisioned stores export RCU/WCU/throttling probes; the plain
        # in-memory store has nothing to report.
        register = getattr(self.grain_storage, "register_metrics", None)
        if register is not None:
            register(self.metrics)
        else:
            # Stores with their own register_metrics export this themselves;
            # plain stores still need the split-brain rejection counter.
            self.metrics.register_probe(
                "storage.fenced_writes",
                lambda: getattr(self.grain_storage, "fenced_writes", 0),
            )
        if self.group_commit is not None:
            self.group_commit.register_metrics(self.metrics)
        self._register_runtime_metrics()
        self.profiler.register_metrics(self.metrics)
        if self.config.redo_lag > 0:
            self.enable_redo_journal()
        # End-to-end ask latency feeds the p99 SLO rule; observed only on
        # profiled runs so the unprofiled reply path stays untouched.
        self._ask_latency = self.metrics.histogram("runtime.ask_latency_seconds")

    def _register_runtime_metrics(self) -> None:
        """Export kernel + runtime state as pull-probes (snapshot-time only)."""
        registry = self.metrics
        scheduler = self.scheduler
        stats = self.stats
        registry.register_probe(
            "kernel.pending_events", lambda: scheduler.pending_events
        )
        registry.register_probe(
            "kernel.events_processed", lambda: scheduler.events_processed
        )
        registry.register_probe("kernel.virtual_time", lambda: scheduler.now)
        # Cancel counts expose the timer-leak class of bug the heap once had.
        registry.register_probe(
            "kernel.timer_cancels", lambda: scheduler.timer_cancels
        )
        for name in (
            "asks", "tells", "replies", "errors", "dropped_messages",
            "dropped_replies", "activations_created", "activations_collected",
            "activations_crashed", "activation_failures",
            "reminders_delivered", "calls_retried", "deadlines_exceeded",
            "silos_suspected", "silos_evicted", "activations_replaced",
            "silos_quarantined", "silos_rejoined",
            "migrations", "migration_failures", "silos_drained",
        ):
            registry.register_probe(
                f"runtime.{name}", lambda n=name: getattr(stats, n)
            )
        registry.register_probe(
            "runtime.total_activations", lambda: self.total_activations()
        )
        registry.register_probe(
            "trace.spans_recorded", lambda: len(self.tracer)
        )
        registry.register_probe("trace.spans_dropped", lambda: self.tracer.dropped)
        registry.register_probe(
            "metrics.dropped_label_sets", lambda: registry.dropped_label_sets
        )
        if self._batcher is not None:
            batcher = self._batcher
            registry.register_probe("batch.flushes", lambda: batcher.flushes)
            registry.register_probe(
                "batch.immediate_flushes", lambda: batcher.immediate_flushes
            )
            # Coalescing effectiveness: how many messages shared each envelope.
            batcher.cohort_histogram = registry.histogram(
                "batch.cohort_size", boundaries=(1, 2, 4, 8, 16, 32, 64)
            )
        caches = self._directory_caches
        registry.register_probe(
            "directory.cache_hits",
            lambda: sum(c.stats.hits for c in caches.values()),
        )
        registry.register_probe(
            "directory.cache_misses",
            lambda: sum(c.stats.misses for c in caches.values()),
        )
        registry.register_probe(
            "directory.cache_invalidations",
            lambda: sum(c.stats.invalidations for c in caches.values()),
        )
        # Membership view, for the health monitor's heartbeat rules.
        registry.register_probe(
            "cluster.silos_active",
            lambda: sum(
                1 for s in self.system_store.active_silos() if s in self._silos
            ),
        )
        registry.register_probe(
            "cluster.silos_suspected",
            lambda: sum(
                1
                for entry in self.system_store.members()
                if self.system_store.status_of(entry.silo_id) == "suspected"
            ),
        )
        registry.register_probe(
            "elastic.silos_draining",
            lambda: sum(1 for s in self._silos.values() if s.draining),
        )
        registry.register_probe(
            "cluster.quarantined_silos",
            lambda: sum(1 for s in self._silos.values() if s.quarantined),
        )
        registry.register_probe(
            "cluster.membership_epoch", lambda: self.system_store.epoch
        )
        registry.register_probe("cluster.cpu_imbalance", self.cpu_imbalance)
        self.tsblock_stats.register_metrics(registry)

    def cpu_imbalance(self) -> float:
        """Max/min silo CPU utilization ratio (1.0 = perfectly balanced).

        Draining and crashed silos are excluded (they are leaving the
        cluster, their emptiness is intentional).  A small epsilon keeps the
        ratio finite when a silo is fully idle, so the health engine can
        threshold it (``cluster-imbalance`` in ``default_slo_rules``)
        without special-casing infinity.
        """
        utilizations = [
            silo.cpu.utilization()
            for silo in self._silos.values()
            if not silo.crashed and not silo.draining
        ]
        if len(utilizations) < 2:
            return 1.0
        epsilon = 0.05
        return (max(utilizations) + epsilon) / (min(utilizations) + epsilon)

    # -- registration ------------------------------------------------------------

    def register_actor(
        self, actor_class: type[Actor], name: str | None = None
    ) -> type[Actor]:
        """Register an actor class under ``name`` (default: class name).

        Usable as a decorator: ``@runtime.register_actor``.
        """
        if not issubclass(actor_class, Actor):
            raise TypeError(f"{actor_class!r} is not an Actor subclass")
        type_name = name or actor_class.__name__
        existing = self._actor_types.get(type_name)
        if existing is not None and existing is not actor_class:
            raise ValueError(f"actor type {type_name!r} already registered")
        self._actor_types[type_name] = actor_class
        return actor_class

    def register_actors(self, actor_classes: Iterable[type[Actor]]) -> None:
        """Register several actor classes at once."""
        for actor_class in actor_classes:
            self.register_actor(actor_class)

    def actor_type(self, type_name: str) -> type[Actor]:
        """The registered class for ``type_name`` (raises if unknown)."""
        actor_class = self._actor_types.get(type_name)
        if actor_class is None:
            raise UnknownActorTypeError(type_name)
        return actor_class

    # -- cluster management ----------------------------------------------------------

    def add_silo(
        self,
        silo_id: str,
        cores: int = 2,
        speed: float = 1.0,
        instance_type: str = "generic",
    ) -> Silo:
        """Bring a new silo (server) into the cluster."""
        if silo_id in self._silos:
            raise ValueError(f"silo {silo_id!r} already exists")
        silo = Silo(
            self.scheduler,
            silo_id,
            cores=cores,
            speed=speed,
            instance_type=instance_type,
        )
        self._silos[silo_id] = silo
        self.network.register(silo_id)
        self.system_store.announce(silo_id, instance_type=instance_type)
        self._heartbeats[silo_id] = self.scheduler.spawn(
            self._heartbeat_loop(silo_id), name=f"heartbeat:{silo_id}"
        )
        if self.redo_journal is not None and silo_id not in self._redo_pumps:
            self._redo_pumps[silo_id] = self.scheduler.spawn(
                self._redo_pump(silo_id), name=f"redo-pump:{silo_id}"
            )
        self.metrics.register_probe(
            "silo.mailbox_depth", silo.mailbox_backlog, silo=silo_id
        )
        self.metrics.register_probe(
            "silo.activations", lambda: silo.activation_count, silo=silo_id
        )
        self.metrics.register_probe(
            "silo.cpu_utilization", silo.cpu.utilization, silo=silo_id
        )
        return silo

    async def _heartbeat_loop(self, silo_id: str) -> None:
        # Keep the membership lease fresh while the silo lives, as Orleans
        # silos do against their system store.  The loop also carries the
        # silo-local half of the partition-tolerance protocol: when the
        # store is unreachable the silo tracks its own lease expiry and
        # self-quarantines once it can no longer prove membership, and when
        # the store comes back it either refreshes (lease still held),
        # rejoins (quarantined, or its row was evicted meanwhile) or keeps
        # serving as if nothing happened.
        interval = self.system_store.lease_seconds / 3
        lease_until = self.scheduler.now + self.system_store.lease_seconds
        while silo_id in self._silos:
            await self.scheduler.sleep(interval)
            silo = self._silos.get(silo_id)
            if silo is None:
                return
            if silo.crashed:
                continue
            if self._store_reachable(silo_id):
                if silo.quarantined:
                    self.rejoin_silo(silo_id)
                    lease_until = (
                        self.scheduler.now + self.system_store.lease_seconds
                    )
                    continue
                try:
                    self.system_store.refresh_lease(silo_id)
                except SiloUnavailableError:
                    # Our row went dead while we could not see the table
                    # (evicted behind our back): the lease is gone for good,
                    # only a fresh announce readmits us.
                    self.rejoin_silo(silo_id)
                lease_until = self.scheduler.now + self.system_store.lease_seconds
            elif (
                self.config.quarantine_on_lease_loss
                and not silo.quarantined
                and self.scheduler.now >= lease_until
            ):
                await self.quarantine_silo(silo_id)

    def silo(self, silo_id: str) -> Silo:
        """The silo object for ``silo_id`` (raises if unknown)."""
        silo = self._silos.get(silo_id)
        if silo is None:
            raise SiloUnavailableError(silo_id)
        return silo

    def silos(self) -> list[Silo]:
        """All silos in the cluster."""
        return list(self._silos.values())

    async def shutdown_silo(self, silo_id: str) -> int:
        """Gracefully stop one silo: deactivate (and persist) everything.

        Returns the number of activations that were deactivated.  This is
        the paper's durability story for the benchmarks: "the upload of data
        points to the grain state storage has been configured to only happen
        when the Orleans silo service is shut down".
        """
        silo = self.silo(silo_id)
        silo.stopping = True
        count = 0
        for activation in silo.activations():
            await self._deactivate(activation)
            count += 1
        self._stop_silo_services(silo_id)
        self._remove_silo(silo_id)
        return count

    def crash_silo(self, silo_id: str, *, detected: bool = True) -> int:
        """Fail one silo *without* any graceful shutdown.

        Unlike :meth:`shutdown_silo`, nothing is flushed and no
        ``on_deactivate`` hooks run: in-memory state since the last
        persistence point is lost, queued and in-flight requests fail with
        :class:`~repro.errors.SiloUnavailableError`, and the crashed
        activations' keys re-place on surviving silos at next use.
        Returns the number of activations lost.

        With ``detected=False`` the crash is *silent*: the rest of the
        cluster keeps believing the silo is alive — its membership row stays
        until the lease lapses and its directory registrations stay stale —
        so calls routed to it keep failing until the failure detector (or
        lease expiry) repairs the cluster view.  This is the realistic
        process-crash mode the chaos harness uses; ``detected=True`` models
        an operator-announced failure where cleanup is immediate.
        """
        silo = self.silo(silo_id)
        fault = SiloUnavailableError(f"silo {silo_id!r} crashed")
        lost = self._abort_activations(silo, fault, unregister=detected)
        self.stats.activations_crashed += lost
        self._stop_silo_services(silo_id)
        if detected:
            self._remove_silo(silo_id)
        else:
            silo.crashed = True
        self._silo_event(
            silo_id,
            "silo-crash",
            lost,
            {"silo": silo_id, "lost_activations": lost, "detected": detected},
        )
        return lost

    # A silo's exit, in up to three steps taken in this order: abort its
    # activations, stop its services, remove it.  Aborts and cancels queue
    # events, so the order is part of the schedule.

    def _abort_activations(
        self, silo: Silo, fault: BaseException, *, unregister: bool
    ) -> int:
        """Abort and uncatalog every activation on ``silo``; returns the count.

        With ``unregister``, directory entries pointing here go too.
        """
        count = 0
        for activation in silo.activations():
            activation.abort(fault)
            silo.remove_activation(activation.key)
            if unregister and self.directory.lookup(activation.key) == silo.silo_id:
                self.directory.unregister(activation.key)
            count += 1
        return count

    def _stop_silo_services(self, silo_id: str) -> None:
        """Cancel the silo's heartbeat, then its redo pump."""
        for services in (self._heartbeats, self._redo_pumps):
            task = services.pop(silo_id, None)
            if task is not None:
                task.cancel()

    def _remove_silo(self, silo_id: str) -> None:
        """Retire the silo's row and drop it from network, catalog and probes."""
        self.system_store.retire(silo_id)
        self.network.unregister(silo_id)
        del self._silos[silo_id]
        self.metrics.unregister_probes(silo=silo_id)

    # -- partition tolerance -------------------------------------------------------

    def _store_reachable(self, silo_id: str) -> bool:
        """Whether ``silo_id`` can currently reach cluster system storage.

        The system store is not a network endpoint, so reachability is
        decided by asking the partition injector about the pseudo-endpoint
        ``SYSTEM_STORE_ENDPOINT`` directly.  With no injector attached the
        store is always reachable.
        """
        return not self.network.partitioned(silo_id, SYSTEM_STORE_ENDPOINT)

    def acquire_fence(self, activation: Activation) -> int:
        """Issue a fence token for one activation's storage key.

        Every durable activation acquires a monotonic token at load time and
        stamps its flushes with it, so grain storage rejects a stale
        (minority-side zombie) writer with ``FencedWriteError`` instead of
        letting it clobber the successor's state.  Acquiring a fence is a
        system-store round trip, so a silo that cannot reach the store (or
        is quarantined) cannot activate durable grains — which is exactly
        the guarantee that makes the token worth carrying.
        """
        silo = activation.silo
        if silo.quarantined or not self._store_reachable(silo.silo_id):
            raise SiloUnavailableError(
                f"silo {silo.silo_id!r} cannot reach the system store to "
                f"acquire a fence for {activation.key.qualified()}"
            )
        return self.system_store.acquire_fence(activation.key.storage_key())

    async def quarantine_silo(self, silo_id: str) -> int:
        """Self-quarantine a silo that lost its membership lease.

        Every live activation is *parked* — queued and future messages fail
        fast with :class:`~repro.errors.QuarantinedSiloError` (retryable, so
        callers land on the successor placement) — and dirty durable state
        is scram-flushed directly (bypassing group commit).  Grain storage
        is assumed reachable from both sides of a silo-fabric partition
        (the DynamoDB deployment the paper describes); the fence tokens on
        those flushes are what keeps them safe: any state a successor has
        already taken over is rejected with ``FencedWriteError`` instead of
        being clobbered.  Returns the number of activations parked.
        """
        silo = self._silos.get(silo_id)
        if silo is None or silo.quarantined or silo.crashed:
            return 0
        silo.quarantined = True
        self.stats.silos_quarantined += 1
        fault = QuarantinedSiloError(
            f"silo {silo_id!r} lost its membership lease and is quarantined"
        )
        parked = 0
        for activation in silo.activations():
            if activation.closing:
                continue
            activation.park(fault)
            parked += 1
        self._silo_event(silo_id, "quarantine", parked)
        for activation in silo.activations():
            cell = activation.instance._state_cell
            if cell is None:
                continue
            try:
                activation.instance.snapshot_state()
                if cell.dirty:
                    await cell.flush(direct=True)
            except ReproError as exc:
                # Fenced/conflicted/throttled: the successor (or the redo
                # journal) owns this state now; losing the scram write is
                # the safe outcome.  A fence bounce is the interesting case
                # (split-brain averted) and gets its own span.
                if isinstance(exc, FencedWriteError):
                    self.tracer.emit(
                        activation.key,
                        "fenced-write",
                        silo_id,
                        self.scheduler.now,
                        method="scram-flush",
                        status="bounced",
                        error=str(exc),
                    )
                continue
        return parked

    def rejoin_silo(self, silo_id: str) -> bool:
        """Re-admit a silo after a partition heals.

        Stale activations (parked during quarantine, or zombies that kept
        serving when ``quarantine_on_lease_loss`` is off) are aborted — the
        majority side re-placed those grains long ago, so this side's
        incarnations are history, their unflushed effects covered by the
        scram flush and the fence floors.  The silo then re-announces,
        which bumps the membership epoch and grants a fresh lease.
        """
        silo = self._silos.get(silo_id)
        if silo is None or silo.crashed:
            return False
        fault = SiloUnavailableError(
            f"silo {silo_id!r} is rejoining after a partition"
        )
        self._abort_activations(silo, fault, unregister=True)
        silo.quarantined = False
        if not self.network.knows(silo_id):
            self.network.register(silo_id)
        self.system_store.announce(silo_id, instance_type=silo.instance_type)
        self._suspected.discard(silo_id)
        self.stats.silos_rejoined += 1
        self._silo_event(silo_id, "rejoin", self.system_store.epoch)
        return True

    def _silo_event(
        self, silo_id: str, kind: str, detail: Any, incident: dict | None = None
    ) -> None:
        """Log a membership event in the silo's flight-recorder ring.

        With ``incident`` (the trigger details), the event also snapshots a
        postmortem stamped with the current virtual time.
        """
        recorder = self.scheduler.recorder
        if recorder is not None:
            recorder.silo_journal(silo_id).record(kind, silo_id, detail)
            if incident is not None:
                incident["at"] = self.scheduler.now
                recorder.record_incident(kind, incident)

    # -- write-ahead redo journal --------------------------------------------------

    def enable_redo_journal(self) -> RedoJournal:
        """Create (or retrofit) the WAL and start per-silo redo pumps.

        Called automatically from ``__init__`` when ``config.redo_lag > 0``;
        deployments that decide after construction set ``config.redo_lag``
        and call it.
        """
        if self.config.redo_lag <= 0:
            raise ValueError("redo_lag must be positive to enable the redo journal")
        if self.redo_journal is None:
            self.redo_journal = RedoJournal(
                self.scheduler,
                store=self.grain_storage,
                writer=self.group_commit,
            )
            self.redo_journal.register_metrics(self.metrics)
        for silo_id in self._silos:
            if silo_id not in self._redo_pumps:
                self._redo_pumps[silo_id] = self.scheduler.spawn(
                    self._redo_pump(silo_id), name=f"redo-pump:{silo_id}"
                )
        return self.redo_journal

    async def _redo_pump(self, silo_id: str) -> None:
        # Every redo_lag window, journal the dirty state of lazily-flushed
        # durable actors (INTERVAL / ON_DEACTIVATE): a crash then loses at
        # most one window of acknowledged work instead of everything since
        # the last flush.  WRITE_THROUGH/MANUAL actors are skipped — the
        # former are already durable per ack, the latter opted out.
        lazy = (WritePolicy.INTERVAL, WritePolicy.ON_DEACTIVATE)
        while silo_id in self._silos:
            await self.scheduler.sleep(self.config.redo_lag)
            silo = self._silos.get(silo_id)
            if silo is None or self.redo_journal is None or silo.crashed:
                return
            if silo.quarantined:
                continue
            for activation in silo.activations():
                if (
                    activation.closing
                    or activation.parked is not None
                    or activation.broken is not None
                ):
                    continue
                cell = activation.instance._state_cell
                if cell is None or activation.actor_class.write_policy not in lazy:
                    continue
                try:
                    activation.instance.snapshot_state()
                except Exception:  # noqa: BLE001 - actor bug must not kill pump
                    continue
                if not cell.dirty:
                    continue
                span = None
                if self.tracer.enabled:
                    span = self.tracer.begin(
                        activation.key,
                        "wal-journal",
                        silo_id,
                        self.scheduler.now,
                        method="redo-append",
                    )
                try:
                    await self.redo_journal.append(
                        activation.key.storage_key(),
                        cell.document,
                        base_etag=cell.etag,
                        fence=cell.fence,
                    )
                except Exception:  # noqa: BLE001 - journal write best-effort
                    self.tracer.finish(
                        span,
                        self.scheduler.now,
                        status="error",
                        error="redo journal append failed",
                    )
                    continue
                self.tracer.finish(span, self.scheduler.now)

    def _silo_load(self, silo_id: str) -> tuple[float, float]:
        """A comparable load sample for placement probes (lower = idler).

        Mailbox backlog dominates (it is the queueing signal callers feel),
        activation count breaks ties.  Unknown/crashed silos sort last so a
        load-aware probe never prefers them.
        """
        silo = self._silos.get(silo_id)
        if silo is None or silo.crashed or silo.quarantined:
            return (float("inf"), float("inf"))
        return (float(silo.mailbox_backlog()), float(silo.activation_count))

    # -- live migration and graceful drain -----------------------------------------

    async def migrate(self, key: ActorKey, target_silo_id: str) -> bool:
        """Move a live activation to ``target_silo_id`` without losing messages.

        The protocol (DESIGN §9) reuses the deactivate/reactivate machinery
        so per-message semantics are identical to an ordinary deactivation:

        1. *Repoint* — in one atomic step (no awaits) the directory entry is
           moved to the target (invalidating every ``DirectoryCache`` via
           the ``unregister`` subscription) and a successor activation is
           catalogued there.  From this instant new sends resolve to the
           target.
        2. *Drain* — the source activation closes: a barrier enters its
           mailbox, queued turns run to completion on the source, state
           persists through the normal persistence path, ``on_deactivate``
           runs.  Messages that raced the move — already in flight to the
           source — observe ``closing``, wait for the barrier, re-resolve
           and are forwarded to the target.
        3. *Hand over* — the successor's boot blocks on the source's
           ``closed`` event before loading state, so it observes the final
           flush and turn-based single-activation semantics are preserved:
           at no virtual instant do two activations of the grain execute.

        Returns True when the activation moved; False when there was
        nothing to move (no live activation, already on the target, or the
        activation was concurrently closing).  Raises on a target that does
        not accept activations (unknown, crashed, quarantined, draining, or
        stopping).
        """
        try:
            target = self.silo(target_silo_id)
        except SiloUnavailableError:
            self.stats.migration_failures += 1
            raise
        if not target.accepts_activations:
            self.stats.migration_failures += 1
            raise SiloUnavailableError(
                f"silo {target_silo_id!r} cannot accept migrations"
            )
        source_id = self.directory.lookup(key)
        source = self._silos.get(source_id) if source_id is not None else None
        activation = source.get_activation(key) if source is not None else None
        if (
            activation is None
            or activation.closing
            or source is None
            or source.crashed
            or source_id == target_silo_id
        ):
            self.stats.migration_failures += 1
            return False
        span = None
        if self.tracer.enabled:
            span = self.tracer.begin(
                key,
                "migrate",
                source_id,
                self.scheduler.now,
                method=f"migrate->{target_silo_id}",
            )
        # Atomic repoint: directory moves and the successor is catalogued
        # with no awaits in between, so every racer that re-resolves from
        # here on lands on the target.
        self.directory.unregister(key)  # fans out to every DirectoryCache
        self.directory.register(key, target_silo_id)
        successor = Activation(
            self,
            self.actor_type(key.type_name),
            key,
            target,
            predecessor_closed=activation.closed,
        )
        stale = target.get_activation(key)
        if stale is not None:
            # An earlier link in this key's close chain is still draining on
            # the target (its close has not yet retired it from the catalog).
            # The directory no longer points at it, so it is strictly earlier
            # in the chain than `activation` and the successor's barrier
            # transitively covers its flush; evicting it only removes the
            # catalog entry — the drain itself keeps running.
            target.remove_activation(key)
        target.add_activation(successor)
        self.stats.activations_created += 1
        self.metrics.counter(
            "elastic.migrations", source=source_id, target=target_silo_id
        ).inc()
        # Drain the source to its barrier (persisting state on the way out).
        await activation.close()
        if source.get_activation(key) is activation:
            source.remove_activation(key)
        self.stats.migrations += 1
        self.tracer.finish(span, self.scheduler.now)
        recorder = self.scheduler.recorder
        if recorder is not None:
            qualified = key.qualified()
            recorder.silo_journal(source_id).record(
                "migrate-out", qualified, target_silo_id
            )
            recorder.silo_journal(target_silo_id).record(
                "migrate-in", qualified, source_id
            )
        return True

    async def drain_silo(self, silo_id: str) -> int:
        """Gracefully decommission one silo: migrate everything out, then stop.

        Unlike :meth:`shutdown_silo` (which deactivates in place, leaving
        re-activation to future demand) and :meth:`crash_silo` (which loses
        in-memory state), a drain keeps every actor *live*: the silo is
        first excluded from placement, then each activation is migrated to
        the least-loaded remaining silo, and only then does the shutdown
        complete.  Returns the number of activations migrated out.
        """
        silo = self.silo(silo_id)
        others = [
            s
            for s in self._silos.values()
            if s.silo_id != silo_id and s.accepts_activations
        ]
        if not others:
            raise SiloUnavailableError(
                f"cannot drain {silo_id!r}: no other active silo to receive "
                f"its activations"
            )
        silo.draining = True
        migrated = 0
        for activation in silo.activations():
            if activation.closing:
                continue
            target = min(others, key=lambda s: self._silo_load(s.silo_id))
            try:
                if await self.migrate(activation.key, target.silo_id):
                    migrated += 1
            except SiloUnavailableError:
                # The chosen target left the cluster (or stopped accepting
                # activations) mid-drain; retry the next activation against
                # the survivors.
                others = [
                    s
                    for s in others
                    if s.silo_id in self._silos and s.accepts_activations
                ]
                if not others:
                    break
        self.stats.silos_drained += 1
        await self.shutdown_silo(silo_id)
        return migrated

    @property
    def pinned_placement(self) -> PinnedPlacement:
        """The pin table used by the ``pinned`` placement strategy."""
        return self.strategies["pinned"]  # type: ignore[return-value]

    # -- references and messaging ------------------------------------------------------

    def ref(
        self,
        type_name: str,
        actor_id: str,
        caller_endpoint: str = CLIENT_ENDPOINT,
        chain: tuple[str, ...] = (),
        trace: Span | None = None,
    ) -> ActorRef:
        """A reference to the virtual actor ``type_name/actor_id``."""
        pair = (type_name, actor_id)
        key = self._actor_keys.get(pair)
        if key is None:
            self.actor_type(type_name)  # fail fast on unknown types
            key = ActorKey(type_name, actor_id)
            self._actor_keys[pair] = key
        return ActorRef(self, key, caller_endpoint, chain, trace=trace)

    def send(
        self,
        key: ActorKey,
        method: str,
        args: tuple,
        kwargs: dict[str, Any],
        caller_endpoint: str,
        one_way: bool = False,
        chain: tuple[str, ...] = (),
        deadline_at: float | None = None,
        parent_span: Span | None = None,
        attempt: int = 0,
    ) -> Future[Any]:
        """Route an ask-style invocation; returns the reply future.

        ``deadline_at`` is an absolute virtual time: if the reply is still
        pending then, it fails with
        :class:`~repro.errors.DeadlineExceededError` and the activation
        skips the invocation if it is still queued.
        """
        self.stats.asks += 1
        invocation = self._make_invocation(
            key, method, args, kwargs, caller_endpoint, one_way=False, chain=chain
        )
        if self.tracer.enabled:
            span = self.tracer.begin(
                key,
                "ask",
                caller_endpoint,
                self.scheduler.now,
                parent=parent_span,
                method=method,
            )
            if span is not None and attempt:
                span.attempt = attempt
            invocation.span = span
        invocation.deadline = deadline_at
        # Future() with the constructor frame elided: one reply per ask.
        reply: Future[Any] = Future.__new__(Future)
        reply._state = _F_PENDING
        reply._value = None
        reply._exception = None
        reply._cb0 = None
        reply._callbacks = None
        reply.name = "reply"
        invocation.reply = reply
        if deadline_at is not None:
            self._arm_deadline(invocation, deadline_at)
        self._route(invocation)
        return reply

    def _arm_deadline(self, invocation: Invocation, deadline_at: float) -> None:
        reply = invocation.reply

        def expire() -> None:
            if reply is not None and not reply.done():
                self.stats.deadlines_exceeded += 1
                reply.set_exception(
                    DeadlineExceededError(
                        f"{invocation.describe()} missed its deadline "
                        f"(t={deadline_at:.3f})"
                    )
                )
                self.tracer.finish(
                    invocation.span,
                    self.scheduler.now,
                    status="deadline",
                    error="deadline exceeded",
                )

        # The timer must not outlive the call: deadline-wrapped asks almost
        # always resolve early, and an uncancelled timer per ask is exactly
        # the heap leak Scheduler.timeout used to have.  Cancel on reply.
        handle = self.scheduler.call_at(deadline_at, expire)
        reply.add_done_callback(lambda _done: handle.cancel())

    def send_resilient(
        self,
        key: ActorKey,
        method: str,
        args: tuple,
        kwargs: dict[str, Any],
        caller_endpoint: str,
        chain: tuple[str, ...] = (),
        retry: RetryPolicy | None = None,
        deadline: float | None = None,
        parent_span: Span | None = None,
    ) -> Future[Any]:
        """Ask with a call deadline and/or transparent retries.

        ``deadline`` is *relative* (virtual seconds from now) and bounds the
        whole call including every retry; ``retry`` governs which transient
        errors are retried and how attempts back off.  The returned future
        resolves with the first successful attempt's result, or rejects with
        the last error once the policy is exhausted or the deadline passes.
        """
        deadline_at = (
            self.scheduler.now + deadline if deadline is not None else None
        )
        if retry is None:
            return self.send(
                key, method, args, kwargs, caller_endpoint,
                chain=chain, deadline_at=deadline_at, parent_span=parent_span,
            )
        retry.validate()
        outer: Future[Any] = Future("resilient")
        backoff_rng = self.rng.stream("retry")
        # Retried asks get an umbrella span; each attempt hangs under it, so
        # the trace shows attempts (with their own breakdowns) *and* the
        # total the caller experienced, backoff sleeps included.
        call_span = self.tracer.begin(
            key,
            "retrying-ask",
            caller_endpoint,
            self.scheduler.now,
            parent=parent_span,
            method=method,
        )

        async def drive() -> None:
            attempt = 0
            while True:
                attempt += 1
                attempt_deadline = deadline_at
                if retry.attempt_timeout is not None:
                    cap = self.scheduler.now + retry.attempt_timeout
                    attempt_deadline = (
                        cap if attempt_deadline is None
                        else min(attempt_deadline, cap)
                    )
                inner = self.send(
                    key, method, args, kwargs, caller_endpoint,
                    chain=chain, deadline_at=attempt_deadline,
                    parent_span=call_span if call_span is not None else parent_span,
                    attempt=attempt,
                )
                try:
                    result = await inner
                except BaseException as exc:  # noqa: BLE001 - policy decides
                    if outer.done():
                        return
                    expired = (
                        deadline_at is not None
                        and self.scheduler.now >= deadline_at
                    )
                    if expired or not retry.should_retry(exc, attempt):
                        outer.set_exception(exc)
                        self.tracer.finish(
                            call_span, self.scheduler.now,
                            status="error", error=str(exc),
                        )
                        return
                    delay = retry.delay_for(attempt, backoff_rng, exc)
                    if (
                        deadline_at is not None
                        and self.scheduler.now + delay >= deadline_at
                    ):
                        # No room for another attempt before the deadline.
                        outer.set_exception(exc)
                        self.tracer.finish(
                            call_span, self.scheduler.now,
                            status="error", error=str(exc),
                        )
                        return
                    self.stats.calls_retried += 1
                    if delay > 0:
                        await self.scheduler.sleep(delay)
                    if outer.done():
                        return
                    continue
                if not outer.done():
                    outer.set_result(result)
                self.tracer.finish(call_span, self.scheduler.now)
                return

        self.scheduler.spawn(drive(), name="retry")
        return outer

    def send_one_way(
        self,
        key: ActorKey,
        method: str,
        args: tuple,
        kwargs: dict[str, Any],
        caller_endpoint: str,
        chain: tuple[str, ...] = (),
        parent_span: Span | None = None,
        kind: str = "tell",
    ) -> DeliveryReceipt:
        """Route a tell-style invocation (no reply).

        ``kind`` names the span kind when tracing: plain tells say "tell",
        the reminder pump says "reminder", the ingest gateway "ingest".
        """
        self.stats.tells += 1
        invocation = self._make_invocation(
            key, method, args, kwargs, caller_endpoint, one_way=True, chain=chain
        )
        if self.tracer.enabled:
            invocation.span = self.tracer.begin(
                key,
                kind,
                caller_endpoint,
                self.scheduler.now,
                parent=parent_span,
                method=method,
            )
        self._route(invocation)
        return DeliveryReceipt(key, method, self.scheduler.now)

    def _make_invocation(
        self,
        key: ActorKey,
        method: str,
        args: tuple,
        kwargs: dict[str, Any],
        caller_endpoint: str,
        one_way: bool,
        chain: tuple[str, ...] = (),
    ) -> Invocation:
        if self.config.copy_messages:
            args = tuple(snapshot(arg) for arg in args)
            kwargs = {name: snapshot(value) for name, value in kwargs.items()}
        else:
            kwargs = dict(kwargs)
        return Invocation(
            target=key,
            method=method,
            args=args,
            kwargs=kwargs,
            caller_endpoint=caller_endpoint,
            one_way=one_way,
            sent_at=self.scheduler.now,
            chain=chain,
        )

    # -- dispatch ---------------------------------------------------------------------

    def _directory_cache(self, endpoint: str) -> DirectoryCache:
        """The (lazily created) directory cache for one caller endpoint."""
        cache = self._directory_caches.get(endpoint)
        if cache is None:
            cache = DirectoryCache(endpoint)
            self.directory.subscribe(cache)
            self._directory_caches[endpoint] = cache
        return cache

    def _resolve_activation(self, key: ActorKey, caller_endpoint: str) -> Activation:
        """Find or create (synchronously) the activation for ``key``."""
        cache = self._directory_caches.get(caller_endpoint)
        if cache is None:
            cache = self._directory_cache(caller_endpoint)
        cached = cache.get(key)
        if cached is not None:
            # A hit only short-circuits the *happy* path: the silo must
            # be up and the activation live.  Anything less drops the
            # entry and takes the authoritative path below, so crash and
            # repair semantics are those of the directory lookup.
            silo = self._silos.get(cached)
            if silo is not None and not silo.crashed and not silo.quarantined:
                activation = silo.get_activation(key)
                if activation is not None and not activation.closing:
                    cache.stats.hits += 1
                    return activation
            cache.invalidate(key)
        cache.stats.misses += 1
        silo_id = self.directory.lookup(key)
        predecessor = None
        if silo_id is not None:
            silo = self._silos.get(silo_id)
            if silo is not None and (silo.crashed or silo.quarantined):
                if self.system_store.status_of(silo_id) == "active":
                    # The cluster still believes the silo is alive, so the
                    # registration is authoritative: the call goes to a dead
                    # endpoint and fails.  Retry policies mask this window;
                    # the failure detector (or lease lapse) ends it.
                    raise SiloUnavailableError(
                        f"silo {silo_id!r} is not responding"
                    )
                # Membership no longer vouches for the silo: the entry is
                # stale, repair it and re-place on a surviving silo.  A
                # quarantined silo keeps its (parked) catalog entry — the
                # rejoin path aborts it; only a crash empties the catalog.
                self.directory.unregister(key)
                if silo.crashed:
                    silo.remove_activation(key)
            else:
                activation = silo.get_activation(key) if silo is not None else None
                if activation is not None and not activation.closing:
                    cache.put(key, silo_id)
                    return activation
                # Stale entry (collected, closing, or silo gone): clear it
                # and fall through to fresh placement.
                self.directory.unregister(key)
                if activation is not None:
                    silo.remove_activation(key)
                    predecessor = activation
        actor_class = self.actor_type(key.type_name)
        strategy_name = actor_class.placement or DEFAULT_PLACEMENT
        strategy = self.strategies.get(strategy_name)
        if strategy is None:
            raise ValueError(
                f"unknown placement strategy {strategy_name!r} "
                f"for actor type {key.type_name!r}"
            )
        # Draining and stopping silos are mid-decommission: they keep
        # serving what they host, but strategies must never place *new*
        # activations there (prefer-local would otherwise pin fresh actors
        # onto a silo that is about to shut down, and an ask racing
        # shutdown_silo would re-place its just-deactivated actor back on
        # the stopping silo, orphaning it when the silo is removed).
        active = [
            s
            for s in self.system_store.active_silos()
            if s in self._silos
            and not self._silos[s].draining
            and not self._silos[s].stopping
        ]
        if not active:
            raise SiloUnavailableError("no active silos in the cluster")
        silo_id = strategy.choose(key, caller_endpoint, active)
        self.metrics.counter(
            "placement.decisions", strategy=strategy_name, silo=silo_id
        ).inc()
        silo = self._silos[silo_id]
        if silo.crashed or silo.quarantined:
            # Membership hasn't noticed the crash yet, so placement can
            # still pick the dead silo — the call fails like a connection
            # to a dead host would.
            raise SiloUnavailableError(f"silo {silo_id!r} is not responding")
        stale = silo.get_activation(key)
        if stale is not None:
            # A dangling predecessor from a concurrent migration is still
            # draining on the chosen silo: the directory stopped pointing at
            # it when it was repointed, so it never hit the stale-entry branch
            # above.  Evict it from the catalog (its drain keeps running) and,
            # absent a directory-entry predecessor, use its close as the
            # barrier so the fresh activation cannot load state before the
            # dangling link's flush lands.
            silo.remove_activation(key)
            if predecessor is None:
                predecessor = stale
        self.directory.register(key, silo_id)
        cache.put(key, silo_id)
        activation = Activation(
            self,
            actor_class,
            key,
            silo,
            predecessor_closed=predecessor.closed if predecessor is not None else None,
        )
        silo.add_activation(activation)
        self.stats.activations_created += 1
        if self.database is not None:
            self.database.note_activation(key)
        return activation

    def _route(self, invocation: Invocation) -> None:
        """Resolve the target and put the message on the wire, in the
        sender's event: the hop costs one timer event, none at zero delay."""
        reply = invocation.reply
        if reply is not None and reply._state is not _F_PENDING:
            # A deadline (or chaos) settled the caller's future: re-routing
            # would run an abandoned request on a successor activation.
            return
        source = invocation.caller_endpoint
        try:
            activation = self._resolve_activation(invocation.target, source)
            target = activation.silo.silo_id
            if self._batcher is not None:
                self._batcher.join(source, target, (invocation, activation))
                return
            delay = self.network.plan_envelope(source, target, 1)
        except Exception as exc:  # noqa: BLE001 - surfaced on the reply
            self._fail_invocation(invocation, exc)
            return
        if delay is None:
            return  # lost on the wire: only the caller's deadline notices
        if delay > 0:
            arrive = partial(self._arrive, invocation, activation, delay)
            self.scheduler.call_at(self.scheduler.now + delay, arrive)
        else:
            self._arrive(invocation, activation, 0.0)

    def _arrive(
        self,
        invocation: Invocation,
        activation: Activation,
        delay: float,
        cohort: int = 1,
    ) -> None:
        """The message lands after ``delay`` (wire time, plus the batch wait
        when it rode an envelope of ``cohort``): queue it on the activation."""
        invocation.batch_cohort = cohort
        span = invocation.span
        if span is not None and span.end is None:
            span.network += delay
        try:
            activation.enqueue(invocation)
        except (MailboxOverflowError, ReentrancyError, QuarantinedSiloError) as exc:
            # A full mailbox, a would-be deadlock, or a parked (alive, never
            # closing) activation on a leaseless silo: fail the call fast.
            if isinstance(exc, MailboxOverflowError):
                self.stats.dropped_messages += 1
            self._fail_invocation(invocation, exc)
            return
        except ActorDeactivatedError:
            # Closing: route to the successor, one event past the barrier so
            # the closer (_deactivate, crash_silo) finishes its cleanup first.
            closed, scheduler = activation.closed, self.scheduler
            if closed.is_set():
                self._route(invocation)
            else:
                closed.wait().add_done_callback(
                    lambda _: scheduler.call_at(scheduler.now, self._route, invocation)
                )
            return
        network = self.network
        if network.faults is not None and network.should_duplicate(
            invocation.caller_endpoint, activation.silo.silo_id
        ):
            # Chaos: the invocation arrives twice.  The one-shot reply
            # dedupes an ask; a one-way runs twice (at-least-once hazard).
            try:
                activation.enqueue(invocation)
            except Exception:  # noqa: BLE001 - duplicate best-effort
                pass

    def _fail_invocation(self, invocation: Invocation, exc: BaseException) -> None:
        self.stats.errors += 1
        self.stats.last_error = f"{invocation.describe()}: {exc}"
        if invocation.reply is not None and not invocation.reply.done():
            invocation.reply.set_exception(exc)
        self.tracer.finish(
            invocation.span, self.scheduler.now, status="error", error=str(exc)
        )

    def _reply(
        self,
        invocation: Invocation,
        result: Any,
        error: BaseException | None,
        from_silo: str,
    ) -> None:
        """Send a method result (or error) back to the caller."""
        if error is not None:
            self.stats.errors += 1
            self.stats.last_error = f"{invocation.describe()}: {error}"
        if invocation.reply is None:
            # One-way: handling is done the moment the method returns.
            status, text = ("ok", "") if error is None else ("error", str(error))
            self.tracer.finish(invocation.span, self.scheduler.now, status, text)
            return
        if error is None and self.config.copy_messages:
            # Copy at return time: the caller must see the result as of the
            # method's return, not turns that ran while the reply was in
            # flight.
            result = snapshot(result)
        try:
            delay = self.network.plan_envelope(from_silo, invocation.caller_endpoint, 1)
        except KeyError as exc:
            # A silo left the network during the turn: raising would fail
            # the turn with a second reply that cannot be sent either, so
            # drop it.
            self.stats.dropped_replies += 1
            self.tracer.finish(
                invocation.span, self.scheduler.now, "error", f"reply dropped: {exc}"
            )
            return
        if delay is None:
            return  # lost on the wire: only the caller's deadline notices
        if delay > 0:
            land = partial(self._reply_landed, invocation, result, error, delay)
            self.scheduler.call_at(self.scheduler.now + delay, land)
        else:
            self._reply_landed(invocation, result, error, 0.0)

    def _reply_landed(
        self,
        invocation: Invocation,
        result: Any,
        error: BaseException | None,
        delay: float,
    ) -> None:
        span = invocation.span
        if span is not None and span.end is None:
            span.network += delay
        reply = invocation.reply
        if reply._state is not _F_PENDING:
            # Deadline or chaos already resolved the caller's future;
            # the span was finished by whoever resolved it.
            return
        if error is not None:
            reply.set_exception(error)
        else:
            reply.set_result(result)
        self.stats.replies += 1
        if self.profiler.enabled:
            self._ask_latency.observe(self.scheduler.now - invocation.sent_at)
        status, text = ("ok", "") if error is None else ("error", str(error))
        self.tracer.finish(span, self.scheduler.now, status, text)

    def _activation_failed(self, activation: Activation, exc: BaseException) -> None:
        self.stats.activation_failures += 1
        self.stats.last_error = f"activation {activation.key}: {exc}"
        self.stats.failed_keys.append(activation.key.qualified())
        self._forget(activation)  # the next message gets a fresh activation

    def _forget(self, activation: Activation) -> None:
        """Unlink ``activation`` from catalog and directory, unless replaced."""
        silo = self._silos.get(activation.silo.silo_id)
        if silo is not None and silo.get_activation(activation.key) is activation:
            silo.remove_activation(activation.key)
            if self.directory.lookup(activation.key) == activation.silo.silo_id:
                self.directory.unregister(activation.key)

    # -- lifecycle services ------------------------------------------------------------

    async def _deactivate(self, activation: Activation) -> None:
        await activation.close()
        self._forget(activation)
        self.stats.activations_collected += 1

    async def deactivate(self, type_name: str, actor_id: str) -> bool:
        """Explicitly deactivate one actor (persisting durable state)."""
        key = ActorKey(type_name, actor_id)
        silo_id = self.directory.lookup(key)
        if silo_id is None:
            return False
        silo = self._silos.get(silo_id)
        activation = silo.get_activation(key) if silo is not None else None
        if activation is None:
            return False
        await self._deactivate(activation)
        return True

    def start(self) -> None:
        """Start background services (collector, reminders, failure detector)."""
        if self._services:
            return
        services = [
            (self._collector_loop, "idle-collector"),
            (self._reminder_loop, "reminder-pump"),
        ]
        if self.config.failure_detection_interval is not None:
            services.append((self._failure_detector_loop, "failure-detector"))
        self._services = [
            self.scheduler.spawn(loop(), name=name) for loop, name in services
        ]

    async def stop(self) -> None:
        """Stop background services and shut every silo down gracefully."""
        if self._stopped:
            return
        self._stopped = True
        for task in self._services:
            task.cancel()
        self._services = []
        for silo_id in list(self._silos):
            await self.shutdown_silo(silo_id)

    async def _collector_loop(self) -> None:
        while True:
            await self.scheduler.sleep(self.config.collection_interval)
            await self.collect_idle_activations()

    async def collect_idle_activations(self) -> int:
        """One collector pass; returns how many activations were collected."""
        collected = 0
        for silo in list(self._silos.values()):
            for activation in silo.idle_candidates(self.config.idle_timeout):
                await self._deactivate(activation)
                collected += 1
        return collected

    async def _reminder_loop(self) -> None:
        while True:
            await self.scheduler.sleep(self.config.reminder_tick)
            self.pump_reminders()

    # -- failure detection -------------------------------------------------------

    async def _failure_detector_loop(self) -> None:
        while True:
            await self.scheduler.sleep(self.config.failure_detection_interval)
            self.evict_dead_silos()

    def evict_dead_silos(self) -> list[str]:
        """One failure-detector pass over the membership table.

        Silos whose lease has been lapsed for longer than
        ``config.suspicion_grace`` are declared dead: their membership row
        is retired, their directory registrations purged, and their actors
        re-placed on surviving silos ahead of demand, recovering persisted
        state.
        Returns the ids of the silos evicted by this pass.

        Eviction is a *view change*, and two safeguards keep it from being
        unilateral: (1) a **quorum gate** — at least
        ``ceil(members * EVICTION_QUORUM)`` of the non-dead membership rows
        must still be active, so the suspected minority of a partition can
        never evict the majority (the system store itself is the tiebreak,
        as in lease-based membership protocols); (2) an **epoch CAS** — the
        retirement is conditional on the membership epoch observed when the
        decision was made, so racing view changes resolve deterministically
        instead of compounding.
        """
        now = self.scheduler.now
        evicted: list[str] = []
        members = [
            entry
            for entry in self.system_store.members()
            if self.system_store.status_of(entry.silo_id) != "dead"
        ]
        required = max(1, math.ceil(len(members) * EVICTION_QUORUM))
        for entry in members:
            status = self.system_store.status_of(entry.silo_id)
            if status == "active":
                self._suspected.discard(entry.silo_id)
                continue
            if entry.silo_id not in self._suspected:
                self._suspected.add(entry.silo_id)
                self.stats.silos_suspected += 1
            if now < entry.lease_expires_at + self.config.suspicion_grace:
                continue
            active = sum(
                1
                for candidate in members
                if self.system_store.status_of(candidate.silo_id) == "active"
            )
            if active < required:
                # No quorum of live voters behind this view change: leave
                # the row suspected.  This is the branch that stops a
                # store-isolated minority from evicting the world.
                continue
            expected_epoch = self.system_store.epoch
            try:
                self.system_store.retire(entry.silo_id, expected_epoch=expected_epoch)
            except ConditionalCheckFailedError:
                # A concurrent view change won the CAS; re-decide next pass
                # against the fresh view.
                continue
            self._evict_silo(entry.silo_id)
            evicted.append(entry.silo_id)
        return evicted

    def _evict_silo(self, silo_id: str) -> None:
        """Declare a suspected silo dead and repair the cluster around it.

        Two shapes of eviction:

        - the silo is *gone* (crashed, or its object already removed):
          full teardown — abort activations, cancel services, unregister
          the endpoint;
        - the silo is *alive but partitioned* (a would-be zombie): the
          cluster cannot reach into it, so only the cluster-side view is
          repaired — membership retired, directory purged, grains re-placed.
          The zombie keeps running on its side of the split; its lease loss
          makes it self-quarantine (or, with quarantine off, its stale
          flushes bounce off the storage fence floors), and its heartbeat
          loop re-announces it when the partition heals.
        """
        fault = SiloUnavailableError(f"silo {silo_id!r} declared dead")
        registered = self.directory.entries_on(silo_id)
        silo = self._silos.get(silo_id)
        zombie = (
            silo is not None
            and not silo.crashed
            and (silo.quarantined or not self._store_reachable(silo_id))
        )
        if not zombie and silo is not None:
            # The row is already retired (by the caller's epoch CAS), so
            # the retire inside _remove_silo changes nothing.
            lost = self._abort_activations(silo, fault, unregister=False)
            self.stats.activations_crashed += lost
            self._stop_silo_services(silo_id)
            self._remove_silo(silo_id)
        for key in registered:
            if self.directory.lookup(key) == silo_id:
                self.directory.unregister(key)
        self._suspected.discard(silo_id)
        self.stats.silos_evicted += 1
        self._silo_event(
            silo_id,
            "silo-evicted",
            len(registered),
            {
                "silo": silo_id,
                "zombie": zombie,
                "registered_grains": len(registered),
            },
        )
        if not self._silos:
            return
        for key in registered:
            try:
                self._resolve_activation(key, CLIENT_ENDPOINT)
            except Exception:  # noqa: BLE001 - best-effort warmup
                continue
            self.stats.activations_replaced += 1

    def pump_reminders(self) -> int:
        """Fire every due reminder; returns the number delivered."""
        now = self.scheduler.now
        fired = 0
        for reminder in self.system_store.all_reminders():
            slot = (reminder.actor_key, reminder.name)
            due = self._reminder_due.get(slot, reminder.first_due)
            while due <= now:
                key = ActorKey.parse(reminder.actor_key)
                self.send_one_way(
                    key,
                    "receive_reminder",
                    (reminder.name,),
                    {},
                    caller_endpoint=CLIENT_ENDPOINT,
                    kind="reminder",
                )
                self.stats.reminders_delivered += 1
                fired += 1
                due += reminder.period
            self._reminder_due[slot] = due
        return fired

    # -- introspection -----------------------------------------------------------------

    def total_activations(self) -> int:
        """Live activations across the whole cluster."""
        return sum(silo.activation_count for silo in self._silos.values())

    def describe_cluster(self) -> dict[str, Any]:
        """A snapshot of cluster shape and load, for operators and tests."""
        return {
            "silos": {
                silo.silo_id: {
                    "instance_type": silo.instance_type,
                    "cores": silo.cpu.cores,
                    "speed": silo.cpu.speed,
                    "activations": silo.activation_count,
                    "utilization": silo.cpu.utilization(),
                }
                for silo in self._silos.values()
            },
            "directory_entries": len(self.directory),
            "actor_types": sorted(self._actor_types),
        }
