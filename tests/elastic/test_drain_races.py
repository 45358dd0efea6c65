"""Races between silo decommissioning and live traffic.

The ISSUE's elasticity acceptance: in-flight asks must survive both
``shutdown_silo`` (deactivate-in-place) and ``drain_silo`` (migrate-out),
and the DirectoryCache hit-validation path must stay correct when a
NetworkFaultInjector delays messages across the drain window.
"""

import random

import pytest

from repro.errors import SiloUnavailableError
from repro.net import ConstantLatency, Network, NetworkFaultInjector
from repro.runtime import (
    Actor,
    ActorKey,
    AodbRuntime,
    RuntimeConfig,
    WritePolicy,
)


class Tally(Actor):
    durable = True
    write_policy = WritePolicy.ON_DEACTIVATE
    placement = "pinned"

    async def bump(self):
        self.state["count"] = self.state.get("count", 0) + 1
        self.mark_dirty()
        return self.state["count"]

    async def count(self):
        return self.state.get("count", 0)

    async def where(self):
        return self.context.silo_id


def build_runtime(sched, silos=2):
    config = RuntimeConfig(
        default_method_cost=0.0,
        activation_cost=0.0,
        idle_timeout=100.0,
        collection_interval=10.0,
    )
    runtime = AodbRuntime(
        sched,
        config=config,
        network=Network(sched, lan=ConstantLatency(0.001)),
    )
    for i in range(silos):
        runtime.add_silo(f"silo-{i}", cores=2)
    runtime.register_actor(Tally)
    return runtime


def pin_on(runtime, silo_id, n):
    refs = []
    for i in range(n):
        runtime.pinned_placement.pin(ActorKey("Tally", f"t{i}"), silo_id)
        refs.append(runtime.ref("Tally", f"t{i}"))
    return refs


def test_shutdown_silo_races_in_flight_asks(sched):
    """Asks in flight when the silo stops all complete; none are lost."""
    runtime = build_runtime(sched)
    refs = pin_on(runtime, "silo-0", 5)

    async def main():
        for ref in refs:
            assert await ref.where() == "silo-0"
        # 10 asks per actor race the shutdown barrier.
        futures = [ref.ask("bump") for ref in refs for _ in range(10)]
        await runtime.shutdown_silo("silo-0")
        results = await sched.gather(futures)
        # Deactivation persisted whatever each source activation handled
        # before its barrier; racers re-resolved onto silo-1 (the pin is
        # ignored for a dead silo) and found the persisted count — so the
        # per-actor results are exactly 1..10 in some interleaving.
        for i, ref in enumerate(refs):
            per_actor = sorted(results[i * 10 : (i + 1) * 10])
            assert per_actor == list(range(1, 11))
            assert await ref.where() == "silo-1"
            assert await ref.count() == 10

    sched.run_until_complete(main())
    assert runtime.stats.dropped_messages == 0
    assert "silo-0" not in {s.silo_id for s in runtime.silos()}


def test_drain_silo_races_in_flight_asks(sched):
    """A graceful drain migrates live actors; racing asks are forwarded."""
    runtime = build_runtime(sched)
    refs = pin_on(runtime, "silo-0", 5)

    async def main():
        for ref in refs:
            assert await ref.where() == "silo-0"
        # Unpin so the migration is not undone at the next activation.
        runtime.pinned_placement._pins.clear()
        futures = [ref.ask("bump") for ref in refs for _ in range(10)]
        migrated = await runtime.drain_silo("silo-0")
        results = await sched.gather(futures)
        return migrated, results

    migrated, results = sched.run_until_complete(main())
    # Actors were live when the drain started (first ask activated them).
    assert migrated == 5
    for i in range(5):
        per_actor = sorted(results[i * 10 : (i + 1) * 10])
        assert per_actor == list(range(1, 11))

    async def verify():
        for ref in refs:
            assert await ref.where() == "silo-1"
            assert await ref.count() == 10

    sched.run_until_complete(verify())
    assert runtime.stats.silos_drained == 1
    assert runtime.stats.migrations == 5
    assert runtime.stats.dropped_messages == 0


def test_drain_silo_without_peers_raises(sched):
    runtime = build_runtime(sched, silos=1)

    async def main():
        with pytest.raises(SiloUnavailableError):
            await runtime.drain_silo("silo-0")

    sched.run_until_complete(main())
    # The silo survives a refused drain.
    assert not runtime.silo("silo-0").draining


def test_directory_cache_validation_under_chaos_during_drain(sched):
    """Stale cache entries self-repair while the network is degraded.

    A client keeps asking across a drain while every message takes extra
    delay (chaos that reorders timing but loses nothing, so exactly-once
    assertions stay honest).  Cache hits that point at the drained silo
    must fail validation, re-resolve, and land on the survivor.
    """
    runtime = build_runtime(sched)
    refs = pin_on(runtime, "silo-0", 4)

    async def main():
        # Warm the client-endpoint cache with silo-0 routes.
        for ref in refs:
            assert await ref.where() == "silo-0"
        runtime.pinned_placement._pins.clear()
        cache = runtime._directory_cache("client")
        assert all(cache.get(ref.key) == "silo-0" for ref in refs)

        runtime.network.inject_faults(
            NetworkFaultInjector(
                random.Random(11),
                extra_delay=0.005,
                start=sched.now,
                end=sched.now + 5.0,
            )
        )
        futures = [ref.ask("bump") for ref in refs for _ in range(8)]
        migrated = await runtime.drain_silo("silo-0")
        results = await sched.gather(futures)
        runtime.network.inject_faults(None)

        assert migrated == 4
        for i in range(4):
            per_actor = sorted(results[i * 8 : (i + 1) * 8])
            assert per_actor == list(range(1, 9))
        # Every stale route was invalidated by the migration fan-out; the
        # next sends re-resolved and repopulated the cache with silo-1.
        for ref in refs:
            assert cache.get(ref.key) in (None, "silo-1")
            assert await ref.where() == "silo-1"
            assert await ref.count() == 8

    sched.run_until_complete(main())
    cache_stats = runtime._directory_cache("client").stats
    assert cache_stats.invalidations >= 4
    assert runtime.stats.dropped_messages == 0


def test_cache_hit_on_draining_silo_still_serves(sched):
    """Draining only blocks *new placements* — residents keep serving, and
    cached routes to them stay valid until the migration repoints them."""
    runtime = build_runtime(sched)
    refs = pin_on(runtime, "silo-0", 1)

    async def main():
        ref = refs[0]
        await ref.bump()
        cache = runtime._directory_cache("client")
        assert cache.get(ref.key) == "silo-0"
        runtime.silo("silo-0").draining = True
        # A cached hit on a draining (but live) silo is still a valid route.
        assert await ref.where() == "silo-0"
        assert await ref.bump() == 2

    sched.run_until_complete(main())
