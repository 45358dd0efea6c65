"""The actor-oriented database runtime facade, and its lifecycle.

:class:`AodbRuntime` ties the substrates together, split by job over three
modules: :mod:`.routing` carries calls to activations and replies back,
:mod:`.membership` keeps the cluster view (heartbeats, crashes, eviction,
quarantine, fences, the redo journal), and this module keeps lifecycle:
construction, actor registration and the method table, silos, live
migration and drain, deactivation, the idle collector, the reminder pump,
and the statistics benchmarks read.

The public surface an application touches is small::

    runtime = AodbRuntime(scheduler)
    runtime.register_actor(Cow)
    runtime.add_silo("silo-1", cores=4)
    cow = runtime.ref("Cow", "dk-0042")
    await cow.record_reading(reading)
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Iterable

from ..errors import SiloUnavailableError, UnknownActorTypeError
from ..kernel.rng import RngRegistry
from ..kernel.scheduler import Scheduler, Task
from ..net.network import Network
from ..obs.metrics import MetricsRegistry
from ..obs.profile import Profiler
from ..obs.trace import Tracer
from ..storage.groupcommit import GroupCommitWriter
from ..storage.kv import InMemoryKVStore, KeyValueStore
from ..storage.system_store import SystemStore
from ..storage.tsblocks import BlockStats
from .activation import Activation
from .actor import DEFAULT_METHOD_OPTIONS, Actor, method_options
from .config import RuntimeConfig
from .directory import GrainDirectory
from .key import ActorKey
from .membership import EVICTION_QUORUM, SYSTEM_STORE_ENDPOINT, Membership
from .placement import PinnedPlacement, build_strategies
from .routing import CLIENT_ENDPOINT, DEFAULT_PLACEMENT, Routing
from .silo import Silo

__all__ = [
    "CLIENT_ENDPOINT",
    "DEFAULT_PLACEMENT",
    "EVICTION_QUORUM",
    "SYSTEM_STORE_ENDPOINT",
    "AodbRuntime",
    "RuntimeStats",
]

#: The method-table entry of a name that is no method of the actor type.
_NO_METHOD: tuple[Any, dict[str, Any], float] = (None, DEFAULT_METHOD_OPTIONS, 0.0)


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


class AodbRuntime(Routing, Membership):
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
        self._init_routing()
        self.strategies = build_strategies(
            self.rng.stream("placement"),
            load_probe=self._silo_load,
            fallback=self.config.placement_fallback,
        )
        self.stats = RuntimeStats()
        self._actor_types: dict[str, type[Actor]] = {}
        # Method dispatch, one table per actor type that all its activations
        # share: method name -> (function, options, resolved base cost).
        # An entry never changes (config.method_costs is fixed at
        # construction), so resolution runs once per type and method name.
        self._methods: dict[str, dict[str, tuple[Any, dict[str, Any], float]]] = {}
        self._silos: dict[str, Silo] = {}
        # Cluster services (collector, reminder pump, failure detector), in
        # spawn order; empty until start().
        self._services: list[Task] = []
        self._init_membership()
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
        for name in (f.name for f in fields(stats) if isinstance(f.default, int)):
            registry.register_probe(
                f"runtime.{name}", lambda n=name: getattr(stats, n)
            )
        registry.register_probe("runtime.total_activations", self.total_activations)
        registry.register_probe(
            "trace.spans_recorded", lambda: len(self.tracer)
        )
        registry.register_probe("trace.spans_dropped", lambda: self.tracer.dropped)
        registry.register_probe(
            "metrics.dropped_label_sets", lambda: registry.dropped_label_sets
        )
        self._register_routing_metrics()
        self._register_membership_metrics()
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

    def _method_table(
        self, type_name: str
    ) -> dict[str, tuple[Any, dict[str, Any], float]]:
        """The method table every activation of ``type_name`` dispatches on."""
        return self._methods.setdefault(type_name, {})

    def _resolve_method(
        self, type_name: str, method_name: str
    ) -> tuple[Any, dict[str, Any], float]:
        """Resolve one method of ``type_name`` into its table and return it.

        Only a public callable on the class is a method, and a turn calls it
        with the actor instance first.  Anything else (a missing name, an
        instance attribute such as ``state``, a flag such as ``reentrant``)
        resolves to no method: the call fails with ActorMethodError and
        costs no CPU.
        """
        actor_class = self.actor_type(type_name)
        function = (
            None if method_name[:1] == "_" else getattr(actor_class, method_name, None)
        )
        if not callable(function):
            entry = _NO_METHOD
        else:
            options = method_options(function)
            cost = self.config.method_costs.get((type_name, method_name))
            if cost is None:
                cost = options["cost"]
            if cost is None:
                cost = (
                    actor_class.default_method_cost
                    if actor_class.default_method_cost is not None
                    else self.config.default_method_cost
                )
            entry = (function, options, cost)
        self._method_table(type_name)[method_name] = entry
        return entry

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
        if self.redo_journal is not None:
            self._start_redo_pump(silo_id)
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
           moved to the target and a successor activation is catalogued
           there.  From this instant new sends resolve to the target.
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
        target = self._silos.get(target_silo_id)
        if target is None or not target.accepts_activations:
            self.stats.migration_failures += 1
            raise SiloUnavailableError(
                f"silo {target_silo_id!r} cannot accept migrations"
            )
        source_id = self.directory.lookup(key)
        source = self._silos.get(source_id)
        activation = source.get_activation(key) if source is not None else None
        if (
            activation is None
            or activation.closing
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
        self.directory.unregister(key)
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

    def _activation_failed(self, activation: Activation, exc: BaseException) -> None:
        self.stats.activation_failures += 1
        self.stats.last_error = f"activation {activation.key}: {exc}"
        self.stats.failed_keys.append(activation.key.qualified())
        self._forget(activation)  # the next message gets a fresh activation

    def _forget(self, activation: Activation) -> None:
        """Unlink ``activation`` from catalog and directory, unless replaced."""
        silo = self._silos.get(activation.silo_id)
        if silo is not None and silo.get_activation(activation.key) is activation:
            silo.remove_activation(activation.key)
            if self.directory.lookup(activation.key) == activation.silo_id:
                self.directory.unregister(activation.key)

    # -- lifecycle services ------------------------------------------------------------

    async def _deactivate(self, activation: Activation) -> None:
        await activation.close()
        self._forget(activation)
        self.stats.activations_collected += 1

    async def deactivate(self, type_name: str, actor_id: str) -> bool:
        """Explicitly deactivate one actor (persisting durable state)."""
        key = ActorKey(type_name, actor_id)
        silo = self._silos.get(self.directory.lookup(key))
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
