"""Routing through the grain directory after a registration goes away.

Every path that removes a registration — explicit deactivation, idle
collection, detected crash, failure-detector eviction — must leave the next
call to re-place the actor and recover its persisted state, and an
undetected (zombie) crash must fail the call until membership repairs the
view.  An ActorRef must never successfully send to a stale silo.
"""

import pytest

from repro.errors import SiloUnavailableError
from repro.kernel import Scheduler
from repro.net import ConstantLatency, Network
from repro.runtime import Actor, ActorKey, AodbRuntime, RuntimeConfig, WritePolicy
from repro.runtime.resilience import RetryPolicy
from repro.storage import SystemStore


def build_runtime(sched, silos=2, lease=None, **config_kwargs):
    config = RuntimeConfig(
        default_method_cost=0.0,
        activation_cost=0.0,
        **config_kwargs,
    )
    store = SystemStore(sched, lease_seconds=lease) if lease is not None else None
    runtime = AodbRuntime(
        sched,
        config=config,
        network=Network(sched, lan=ConstantLatency(0.001)),
        system_store=store,
    )
    for i in range(silos):
        runtime.add_silo(f"silo-{i}", cores=2)
    return runtime


class Durable(Actor):
    durable = True
    placement = "pinned"
    write_policy = WritePolicy.WRITE_THROUGH

    async def put(self, value):
        self.state["v"] = value
        self.mark_dirty()
        return value

    async def get(self):
        return self.state.get("v")


def test_repeat_sends_reach_one_activation():
    sched = Scheduler()
    runtime = build_runtime(sched)
    runtime.register_actor(Durable)
    runtime.pinned_placement.pin_prefix("Durable/", "silo-1")

    async def main():
        ref = runtime.ref("Durable", "a")
        await ref.put(1)
        return [await ref.get() for _ in range(5)], runtime.directory.lookup(ref.key)

    values, placed = sched.run_until_complete(main())
    assert values == [1] * 5
    assert placed == "silo-1"
    assert runtime.stats.activations_created == 1


def test_explicit_deactivation_reroutes():
    sched = Scheduler()
    runtime = build_runtime(sched)
    runtime.register_actor(Durable)
    runtime.pinned_placement.pin_prefix("Durable/", "silo-1")

    async def main():
        ref = runtime.ref("Durable", "a")
        await ref.put(2)
        await runtime.deactivate("Durable", "a")
        assert ref.key not in runtime.directory
        # Reactivation re-registers through the directory.
        return await ref.get()

    assert sched.run_until_complete(main()) == 2


def test_detected_crash_invalidates_and_reroutes():
    sched = Scheduler()
    runtime = build_runtime(sched)
    runtime.register_actor(Durable)
    runtime.pinned_placement.pin(ActorKey("Durable", "a"), "silo-1")

    async def main():
        ref = runtime.ref("Durable", "a")
        await ref.put(3)
        runtime.crash_silo("silo-1", detected=True)
        # Next send re-places on the survivor and recovers persisted state.
        value = await ref.get()
        return value, runtime.directory.lookup(ref.key)

    value, placed = sched.run_until_complete(main())
    assert value == 3
    assert placed == "silo-0"


def test_undetected_crash_fails_until_the_lease_lapses():
    """Until the lease lapses, membership vouches for the crashed silo, so
    the send fails with SiloUnavailableError; it never reaches the dead
    endpoint."""
    sched = Scheduler()
    runtime = build_runtime(sched, lease=2.0)
    runtime.register_actor(Durable)
    runtime.pinned_placement.pin_prefix("Durable/", "silo-1")

    async def main():
        ref = runtime.ref("Durable", "a")
        await ref.put(4)
        runtime.crash_silo("silo-1", detected=False)
        with pytest.raises(SiloUnavailableError):
            await ref.get()
        # After the lease lapses, on-demand repair re-places the actor.
        await sched.at(2.5)
        return await ref.get(), runtime.directory.lookup(ref.key)

    value, placed = sched.run_until_complete(main())
    assert value == 4
    assert placed == "silo-0"


def test_failure_detector_eviction_reroutes():
    """Chaos satellite: crash + failure-detector repair leaves no stale ref."""
    sched = Scheduler()
    runtime = build_runtime(
        sched,
        lease=2.0,
        failure_detection_interval=0.5,
        suspicion_grace=0.5,
    )
    runtime.register_actor(Durable)
    runtime.pinned_placement.pin_prefix("Durable/", "silo-1")
    runtime.start()

    async def main():
        ref = runtime.ref("Durable", "b")
        await ref.put("survives")
        runtime.crash_silo("silo-1", detected=False)
        # A resilient call issued *during* the outage window must land on
        # the repaired placement, never the crashed silo.
        value = await ref.get(
            retry=RetryPolicy(max_attempts=10, base_delay=0.5, jitter=0.0)
        )
        return value, runtime.directory.lookup(ref.key)

    value, placed = sched.run_until_complete(main())
    assert value == "survives"
    assert placed == "silo-0"
    assert runtime.stats.silos_evicted == 1


def test_idle_collection_reroutes():
    sched = Scheduler()
    runtime = build_runtime(sched, idle_timeout=1.0, collection_interval=0.5)
    runtime.register_actor(Durable)
    runtime.pinned_placement.pin_prefix("Durable/", "silo-1")

    async def main():
        ref = runtime.ref("Durable", "a")
        await ref.put(5)
        await sched.sleep(2.0)
        await runtime.collect_idle_activations()
        assert ref.key not in runtime.directory
        return await ref.get()

    assert sched.run_until_complete(main()) == 5
