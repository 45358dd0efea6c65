"""Elastic placement: power_of_two, the strategy registry, draining filters."""

import random

import pytest

from repro.runtime import Actor, ActorKey, AodbRuntime, RuntimeConfig
from repro.runtime.placement import PowerOfTwoPlacement, build_strategies


# -- power_of_two ------------------------------------------------------------------


def test_power_of_two_prefers_less_loaded_probe():
    loads = {"a": 10, "b": 0, "c": 10}
    strategy = PowerOfTwoPlacement(random.Random(3), loads.__getitem__)
    chosen = [
        strategy.choose(ActorKey("T", str(i)), "client", ["a", "b", "c"])
        for i in range(60)
    ]
    # "b" wins every probe pair it appears in — roughly 2/3 of draws.
    assert chosen.count("b") > 30
    assert set(chosen) <= {"a", "b", "c"}


def test_power_of_two_single_silo_short_circuits():
    strategy = PowerOfTwoPlacement(random.Random(1), lambda s: 0)
    assert strategy.choose(ActorKey("T", "x"), "client", ["only"]) == "only"


def test_power_of_two_tie_is_deterministic():
    strategy = PowerOfTwoPlacement(random.Random(7), lambda s: 0)
    silos = ["a", "b", "c"]
    mirror = PowerOfTwoPlacement(random.Random(7), lambda s: 0)
    for i in range(20):
        k = ActorKey("T", str(i))
        assert strategy.choose(k, "client", silos) == mirror.choose(
            k, "client", silos
        )


# -- registry ----------------------------------------------------------------------


def test_build_strategies_gates_power_of_two_on_probe():
    without = build_strategies(random.Random(1))
    assert "power_of_two" not in without
    assert {"random", "hash", "prefer_local", "pinned"} <= set(without)
    with_probe = build_strategies(random.Random(1), load_probe=lambda s: 0)
    assert "power_of_two" in with_probe


def test_build_strategies_rejects_unknown_fallback():
    with pytest.raises(ValueError, match="unknown placement fallback"):
        build_strategies(random.Random(1), fallback="bogus")


def test_build_strategies_fallback_feeds_prefer_local_and_pinned():
    strategies = build_strategies(
        random.Random(1), load_probe=lambda s: {"a": 9, "b": 0}[s],
        fallback="power_of_two",
    )
    # A client caller falls through prefer_local to the load-aware pick.
    choices = {
        strategies["prefer_local"].choose(ActorKey("T", str(i)), "client", ["a", "b"])
        for i in range(10)
    }
    assert choices == {"b"}


# -- draining silos are never placement targets ------------------------------------


class Echo(Actor):
    async def where(self):
        return self.context.silo_id


class LocalEcho(Echo):
    placement = "prefer_local"


class PinnedEcho(Echo):
    placement = "pinned"


class HashEcho(Echo):
    placement = "hash"


def build_runtime(sched, silos=3):
    config = RuntimeConfig(default_method_cost=0.0, activation_cost=0.0)
    runtime = AodbRuntime(sched, config=config)
    for i in range(1, silos + 1):
        runtime.add_silo(f"silo-{i}", cores=2)
    runtime.register_actors([Echo, LocalEcho, PinnedEcho, HashEcho])
    return runtime


def test_prefer_local_skips_draining_caller_silo(sched):
    runtime = build_runtime(sched)

    class Parent(Actor):
        placement = "pinned"

        async def spawn_child(self, child_id):
            child = self.context.actor("LocalEcho", child_id)
            return self.context.silo_id, await child.where()

    runtime.register_actor(Parent)
    runtime.pinned_placement.pin(ActorKey("Parent", "p"), "silo-1")

    async def main():
        ref = runtime.ref("Parent", "p")
        home, child_home = await ref.spawn_child("before")
        assert home == child_home == "silo-1"
        # Mark the parent's silo draining: it keeps serving the parent, but
        # fresh prefer-local children must land elsewhere.
        runtime.silo("silo-1").draining = True
        home, child_home = await ref.spawn_child("after")
        assert home == "silo-1"
        assert child_home != "silo-1"

    sched.run_until_complete(main())


def test_pinned_skips_draining_target(sched):
    runtime = build_runtime(sched)
    runtime.pinned_placement.pin(ActorKey("PinnedEcho", "x"), "silo-2")
    runtime.silo("silo-2").draining = True

    async def main():
        return await runtime.ref("PinnedEcho", "x").where()

    assert sched.run_until_complete(main()) != "silo-2"


def test_hash_through_runtime_avoids_draining_silo(sched):
    runtime = build_runtime(sched)
    runtime.silo("silo-3").draining = True

    async def main():
        hosts = set()
        for i in range(30):
            hosts.add(await runtime.ref("HashEcho", f"r{i}").where())
        return hosts

    hosts = sched.run_until_complete(main())
    assert "silo-3" not in hosts
    assert hosts == {"silo-1", "silo-2"}
