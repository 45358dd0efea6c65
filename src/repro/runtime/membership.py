"""Membership: silo liveness, failure, partitions and the redo journal.

:class:`Membership`, mixed into :class:`~repro.runtime.runtime.AodbRuntime`,
keeps the cluster view honest: per-silo heartbeats against the system
store, crashes (announced or silent), quorum-gated eviction, lease-loss
quarantine and rejoin, storage fences, and the write-ahead redo journal
with its per-silo pumps.  It owns the suspicion set, the heartbeat and
redo-pump tasks and the journal; the runtime owns the rest.
"""

from __future__ import annotations

import math
from typing import Any

from ..errors import (
    ConditionalCheckFailedError,
    FencedWriteError,
    QuarantinedSiloError,
    ReproError,
    SiloUnavailableError,
)
from ..kernel.scheduler import Task
from ..storage.wal import RedoJournal
from .activation import Activation
from .persistence import WritePolicy
from .routing import CLIENT_ENDPOINT
from .silo import Silo

# Pseudo network endpoint standing in for cluster system storage: never
# registered with the Network (the store is not message-routed), but a
# PartitionInjector may name it in a group to model silos losing sight of
# the membership table.  The runtime consults the injector directly for
# lease refreshes and fence acquisition.
SYSTEM_STORE_ENDPOINT = "system-store"
# Quorum fraction of non-dead membership rows that must be active for the
# failure detector to commit an eviction (a view change).  At 0.5 a
# partition minority — which sees the majority's rows as suspected — can
# never evict the majority, while a 2-silo cluster with one crashed member
# still makes progress (1 of 2 meets the bar; the system store is the
# tiebreak, as in lease-based membership).
EVICTION_QUORUM = 0.5


class Membership:
    """Heartbeats, crashes, eviction, quarantine and redo of :class:`AodbRuntime`."""

    def _init_membership(self) -> None:
        self._suspected: set[str] = set()
        self._heartbeats: dict[str, Task] = {}
        # Write-ahead redo journal + per-silo pumps (None/empty while
        # config.redo_lag == 0, the paper's benchmarked configuration).
        self.redo_journal: RedoJournal | None = None
        self._redo_pumps: dict[str, Task] = {}

    def _register_membership_metrics(self) -> None:
        registry = self.metrics
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
                else:
                    try:
                        self.system_store.refresh_lease(silo_id)
                    except SiloUnavailableError:
                        # Our row went dead while we could not see the table
                        # (evicted behind our back): the lease is gone for
                        # good, only a fresh announce readmits us.
                        self.rejoin_silo(silo_id)
                lease_until = self.scheduler.now + self.system_store.lease_seconds
            elif (
                self.config.quarantine_on_lease_loss
                and not silo.quarantined
                and self.scheduler.now >= lease_until
            ):
                await self.quarantine_silo(silo_id)

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
            if activation.fence is None:
                continue  # no durable state loaded
            try:
                activation.instance.snapshot_state()
                if activation.dirty:
                    await activation._write_state(direct=True)
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
            self._start_redo_pump(silo_id)
        return self.redo_journal

    def _start_redo_pump(self, silo_id: str) -> None:
        if silo_id not in self._redo_pumps:
            self._redo_pumps[silo_id] = self.scheduler.spawn(
                self._redo_pump(silo_id), name=f"redo-pump:{silo_id}"
            )

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
                if (
                    activation.fence is None
                    or activation.actor_class.write_policy not in lazy
                ):
                    continue
                try:
                    activation.instance.snapshot_state()
                except Exception:  # noqa: BLE001 - actor bug must not kill pump
                    continue
                if not activation.dirty:
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
                        activation.instance.state,
                        base_etag=activation.etag,
                        fence=activation.fence,
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
