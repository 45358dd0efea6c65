"""Partition tolerance: quarantine, rejoin, quorum-gated eviction, fencing."""

import pytest

from repro.errors import (
    ConditionalCheckFailedError,
    QuarantinedSiloError,
    SiloUnavailableError,
)
from repro.kernel import Scheduler
from repro.net import ConstantLatency, Network, PartitionInjector
from repro.runtime import Actor, AodbRuntime, RuntimeConfig, WritePolicy
from repro.runtime.runtime import SYSTEM_STORE_ENDPOINT
from repro.storage import InMemoryKVStore, SystemStore


class DurableNote(Actor):
    durable = True
    write_policy = WritePolicy.ON_DEACTIVATE

    async def set(self, value):
        self.state["value"] = value
        self.mark_dirty()
        return value

    async def get(self):
        return self.state.get("value")


@pytest.fixture
def sched():
    return Scheduler()


def build(sched, silos=1, lease_seconds=1.0, **config_kwargs):
    config = RuntimeConfig(
        default_method_cost=0.0, activation_cost=0.0, **config_kwargs
    )
    runtime = AodbRuntime(
        sched,
        config=config,
        grain_storage=InMemoryKVStore(),
        network=Network(sched, lan=ConstantLatency(0.0)),
        system_store=SystemStore(sched, lease_seconds=lease_seconds),
    )
    for i in range(silos):
        runtime.add_silo(f"silo-{i + 1}", cores=2)
    runtime.register_actor(DurableNote)
    return runtime


def test_quarantine_parks_activations_and_scram_flushes(sched):
    runtime = build(sched)
    store = runtime.grain_storage

    async def main():
        ref = runtime.ref("DurableNote", "n")
        await ref.set("precious")
        assert store.writes == 0  # ON_DEACTIVATE: nothing flushed yet
        parked = await runtime.quarantine_silo("silo-1")
        assert parked == 1
        # The scram flush made the dirty state durable before parking.
        item = await store.get("state/DurableNote/n")
        assert item.value["value"] == "precious"
        assert runtime.silo("silo-1").quarantined
        assert runtime.stats.silos_quarantined == 1
        # Every activation is parked with the retryable quarantine fault.
        for activation in runtime.silo("silo-1").activations():
            assert isinstance(activation.parked, QuarantinedSiloError)

    sched.run_until_complete(main())


def test_rejoin_aborts_stale_activations_and_bumps_epoch(sched):
    runtime = build(sched)

    async def main():
        ref = runtime.ref("DurableNote", "n")
        await ref.set("v1")
        await runtime.quarantine_silo("silo-1")
        epoch_before = runtime.system_store.epoch
        assert runtime.rejoin_silo("silo-1") is True
        assert runtime.system_store.epoch > epoch_before
        assert not runtime.silo("silo-1").quarantined
        assert runtime.stats.silos_rejoined == 1
        # The silo serves again, and the scram-flushed state is intact.
        return await ref.get()

    assert sched.run_until_complete(main()) == "v1"


def test_acquire_fence_fails_on_quarantined_or_partitioned_silo(sched):
    runtime = build(sched)

    async def main():
        await runtime.quarantine_silo("silo-1")
        # A quarantined silo cannot prove membership, so durable grains
        # cannot activate on it: the activation attempt fails loudly.
        with pytest.raises(SiloUnavailableError):
            await runtime.ref("DurableNote", "fresh").set("x")

    sched.run_until_complete(main())


def test_lease_loss_quarantines_and_heal_rejoins(sched):
    # End-to-end through the heartbeat loop: a silo partitioned away from
    # the system store self-quarantines once its lease lapses, then rejoins
    # (fresh epoch) when the partition heals.
    runtime = build(sched, lease_seconds=1.0)
    runtime.network.inject_partitions(
        PartitionInjector([([{"silo-1"}, {SYSTEM_STORE_ENDPOINT}], 0.0, 5.0)])
    )

    async def main():
        await sched.at(3.0)
        assert runtime.silo("silo-1").quarantined
        assert runtime.stats.silos_quarantined == 1
        await sched.at(7.0)
        assert not runtime.silo("silo-1").quarantined
        assert runtime.stats.silos_rejoined == 1
        return await runtime.ref("DurableNote", "n").set("after-heal")

    assert sched.run_until_complete(main()) == "after-heal"


def test_eviction_requires_a_quorum_of_live_voters(sched):
    # All three silos lose sight of the store: every lease lapses, no quorum
    # of active rows exists, and the failure detector must refuse to evict.
    runtime = build(
        sched,
        silos=3,
        lease_seconds=1.0,
        quarantine_on_lease_loss=False,
        suspicion_grace=0.5,
    )
    everyone = {"silo-1", "silo-2", "silo-3"}
    runtime.network.inject_partitions(
        PartitionInjector([([everyone, {SYSTEM_STORE_ENDPOINT}], 0.0, 100.0)])
    )

    async def main():
        await sched.at(10.0)  # far past lease + grace for every row
        return runtime.evict_dead_silos()

    assert sched.run_until_complete(main()) == []
    assert runtime.stats.silos_evicted == 0
    assert runtime.stats.silos_suspected == 3


def test_majority_evicts_partitioned_minority(sched):
    # Two of three silos keep their leases: quorum holds, the minority row
    # is retired via epoch CAS, and the cluster-side view is repaired.
    runtime = build(
        sched,
        silos=3,
        lease_seconds=1.0,
        quarantine_on_lease_loss=False,
        suspicion_grace=0.5,
    )
    runtime.network.inject_partitions(
        PartitionInjector([([{"silo-3"}, {SYSTEM_STORE_ENDPOINT}], 0.0, 100.0)])
    )

    async def main():
        await sched.at(10.0)
        return runtime.evict_dead_silos()

    assert sched.run_until_complete(main()) == ["silo-3"]
    assert runtime.stats.silos_evicted == 1
    assert runtime.system_store.status_of("silo-3") == "dead"
    # Zombie shape: the partitioned silo's process is still there, only the
    # cluster-side view was repaired.
    assert "silo-3" in [s.silo_id for s in runtime.silos()]


def test_retire_epoch_cas_rejects_stale_view_changes(sched):
    store = SystemStore(sched, lease_seconds=1.0)
    store.announce("a")
    store.announce("b")
    stale_epoch = store.epoch
    store.announce("c")  # a concurrent view change moves the epoch
    with pytest.raises(ConditionalCheckFailedError):
        store.retire("a", expected_epoch=stale_epoch)
    assert store.status_of("a") == "active"
    store.retire("a", expected_epoch=store.epoch)
    assert store.status_of("a") == "dead"


def test_zombie_scram_flush_bounces_off_the_fence_floor(sched):
    # A successor has already taken over (higher fence on the storage key):
    # the quarantining zombie's scram flush must be rejected, silently, and
    # the successor's document must survive.
    runtime = build(sched)
    store = runtime.grain_storage

    async def main():
        ref = runtime.ref("DurableNote", "n")
        await ref.set("zombie-view")
        key = "state/DurableNote/n"
        successor_fence = runtime.system_store.acquire_fence(key)
        await store.advance_fence(key, successor_fence)
        await store.put(key, {"value": "successor"}, fence=successor_fence)
        await runtime.quarantine_silo("silo-1")
        item = await store.get(key)
        return item.value, store.fenced_writes

    value, fenced = sched.run_until_complete(main())
    assert value == {"value": "successor"}
    assert fenced >= 1
