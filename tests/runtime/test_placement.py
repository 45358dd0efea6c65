"""Placement strategies and multi-silo behaviour."""

import random

import pytest

from repro.net import ConstantLatency, Network
from repro.runtime import (
    Actor,
    ActorKey,
    AodbRuntime,
    HashPlacement,
    PinnedPlacement,
    PreferLocalPlacement,
    RandomPlacement,
    RuntimeConfig,
)


class Echo(Actor):
    async def where(self):
        return self.context.silo_id


class LocalEcho(Echo):
    placement = "prefer_local"


class HashedEcho(Echo):
    placement = "hash"


class PinnedEcho(Echo):
    placement = "pinned"


def multi_runtime(sched, silos=4):
    config = RuntimeConfig(default_method_cost=0.0, activation_cost=0.0)
    network = Network(sched, lan=ConstantLatency(0.001))
    runtime = AodbRuntime(sched, config=config, network=network)
    for i in range(silos):
        runtime.add_silo(f"silo-{i}", cores=2)
    runtime.register_actors([Echo, LocalEcho, HashedEcho, PinnedEcho])
    return runtime


# -- unit tests of the strategies themselves ---------------------------------------


def test_random_placement_spreads_load():
    strategy = RandomPlacement(random.Random(1))
    silos = ["a", "b", "c"]
    chosen = {
        strategy.choose(ActorKey("T", str(i)), "client", silos) for i in range(60)
    }
    assert chosen == {"a", "b", "c"}


def test_prefer_local_uses_caller_silo():
    strategy = PreferLocalPlacement(fallback=RandomPlacement(random.Random(1)))
    assert strategy.choose(ActorKey("T", "x"), "b", ["a", "b", "c"]) == "b"


def test_prefer_local_falls_back_for_external_callers():
    strategy = PreferLocalPlacement(fallback=RandomPlacement(random.Random(1)))
    chosen = strategy.choose(ActorKey("T", "x"), "client", ["a", "b"])
    assert chosen in ("a", "b")


def test_hash_placement_is_stable():
    strategy = HashPlacement()
    silos = ["a", "b", "c"]
    key = ActorKey("T", "some-id")
    first = strategy.choose(key, "client", silos)
    assert all(strategy.choose(key, "client", silos) == first for _ in range(5))


def test_hash_placement_distributes():
    strategy = HashPlacement()
    silos = ["a", "b", "c"]
    chosen = {
        strategy.choose(ActorKey("T", f"id-{i}"), "client", silos)
        for i in range(100)
    }
    assert chosen == {"a", "b", "c"}


def test_pinned_placement_exact_and_prefix():
    strategy = PinnedPlacement(fallback=HashPlacement())
    silos = ["a", "b"]
    strategy.pin(ActorKey("T", "special"), "b")
    strategy.pin_prefix("T/org-1/", "a")
    assert strategy.choose(ActorKey("T", "special"), "client", silos) == "b"
    assert strategy.choose(ActorKey("T", "org-1/x"), "client", silos) == "a"
    # Unpinned keys fall back.
    fallback = strategy.choose(ActorKey("T", "other"), "client", silos)
    assert fallback in silos


def test_pinned_placement_ignores_dead_silo():
    strategy = PinnedPlacement(fallback=HashPlacement())
    strategy.pin(ActorKey("T", "x"), "dead-silo")
    assert strategy.choose(ActorKey("T", "x"), "client", ["a"]) == "a"


# -- integration through the runtime ---------------------------------------------


def test_actors_spread_over_silos(sched):
    runtime = multi_runtime(sched)

    async def main():
        hosts = set()
        for i in range(40):
            hosts.add(await runtime.ref("Echo", f"e{i}").where())
        return hosts

    hosts = sched.run_until_complete(main())
    assert len(hosts) >= 3  # random placement touches most silos


def test_prefer_local_colocates_chains(sched):
    runtime = multi_runtime(sched)

    class Parent(Actor):
        async def spawn_child(self, child_id):
            child = self.context.actor("LocalEcho", child_id)
            return self.context.silo_id, await child.where()

    runtime.register_actor(Parent)

    async def main():
        pairs = []
        for i in range(10):
            pairs.append(await runtime.ref("Parent", f"p{i}").spawn_child(f"c{i}"))
        return pairs

    pairs = sched.run_until_complete(main())
    assert all(parent == child for parent, child in pairs)


def test_hash_placement_reactivates_on_same_silo(sched):
    runtime = multi_runtime(sched)

    async def main():
        ref = runtime.ref("HashedEcho", "stable-id")
        first = await ref.where()
        await runtime.deactivate("HashedEcho", "stable-id")
        second = await ref.where()
        return first, second

    first, second = sched.run_until_complete(main())
    assert first == second


def test_runtime_pinning_controls_placement(sched):
    runtime = multi_runtime(sched)
    runtime.pinned_placement.pin_prefix("PinnedEcho/org-2/", "silo-2")

    async def main():
        return await runtime.ref("PinnedEcho", "org-2/sensor-9").where()

    assert sched.run_until_complete(main()) == "silo-2"


def test_unknown_strategy_name_fails(sched):
    runtime = multi_runtime(sched)

    class Misconfigured(Actor):
        placement = "nonsense"

        async def ping(self):
            return 1

    runtime.register_actor(Misconfigured)

    async def main():
        with pytest.raises(ValueError, match="unknown placement strategy"):
            await runtime.ref("Misconfigured", "m").ping()

    sched.run_until_complete(main())


def test_no_silos_raises(sched):
    config = RuntimeConfig(default_method_cost=0.0, activation_cost=0.0)
    runtime = AodbRuntime(sched, config=config)
    runtime.register_actor(Echo)

    from repro.errors import SiloUnavailableError

    async def main():
        with pytest.raises(SiloUnavailableError):
            await runtime.ref("Echo", "e").where()

    sched.run_until_complete(main())


def test_shutdown_silo_moves_future_activations(sched):
    runtime = multi_runtime(sched, silos=2)

    async def main():
        # Force an actor onto silo-0 via pinning, then retire silo-0.
        runtime.pinned_placement.pin(ActorKey("PinnedEcho", "x"), "silo-0")
        ref = runtime.ref("PinnedEcho", "x")
        first = await ref.where()
        await runtime.shutdown_silo("silo-0")
        second = await ref.where()
        return first, second

    first, second = sched.run_until_complete(main())
    assert first == "silo-0"
    assert second == "silo-1"


def test_remote_calls_cost_lan_latency_local_calls_do_not(sched):
    runtime = multi_runtime(sched, silos=2)

    class Chatty(Actor):
        placement = "pinned"

        async def call_peer(self, peer_id, times):
            peer = self.context.actor("Chatty", peer_id)
            start = self.context.now
            for _ in range(times):
                await peer.noop()
            return self.context.now - start

        async def noop(self):
            return None

    runtime.register_actor(Chatty)
    runtime.pinned_placement.pin(ActorKey("Chatty", "a"), "silo-0")
    runtime.pinned_placement.pin(ActorKey("Chatty", "near"), "silo-0")
    runtime.pinned_placement.pin(ActorKey("Chatty", "far"), "silo-1")

    async def main():
        ref = runtime.ref("Chatty", "a")
        local_time = await ref.call_peer("near", 10)
        remote_time = await ref.call_peer("far", 10)
        return local_time, remote_time

    local_time, remote_time = sched.run_until_complete(main())
    # 10 remote round trips at 1ms per hop = 20ms; local round trips free.
    assert local_time == pytest.approx(0.0)
    assert remote_time == pytest.approx(0.020)
