"""Directory-cache correctness: hit accounting and stale-route invalidation.

The fast path caches grain-directory lookups per caller endpoint.  The
cache must be *transparent*: every path that removes a registration —
explicit deactivation, idle collection, detected crash, failure-detector
eviction — must invalidate it, and an undetected (zombie) crash must fail
exactly like the uncached runtime until membership repairs the view.  An
ActorRef must never successfully send to a stale silo.
"""

import pytest

from repro.errors import SiloUnavailableError
from repro.kernel import Scheduler
from repro.net import ConstantLatency, Network
from repro.runtime import Actor, ActorKey, AodbRuntime, RuntimeConfig, WritePolicy
from repro.runtime.directory import DirectoryCache, GrainDirectory
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


def client_cache(runtime) -> DirectoryCache:
    return runtime._directory_cache("client")


# ---------------------------------------------------------------------------
# Unit behaviour
# ---------------------------------------------------------------------------


def test_cache_unit_semantics():
    cache = DirectoryCache("client")
    key = ActorKey("Durable", "a")
    assert cache.get(key) is None
    cache.put(key, "silo-1")
    assert cache.get(key) == "silo-1"
    assert key in cache and len(cache) == 1
    cache.invalidate(key)
    assert cache.get(key) is None
    assert cache.stats.invalidations == 1
    cache.invalidate(key)  # absent: no double count
    assert cache.stats.invalidations == 1


def test_directory_unregister_invalidates_every_subscriber():
    directory = GrainDirectory()
    key = ActorKey("Durable", "a")
    caches = [DirectoryCache("client"), DirectoryCache("silo-0")]
    for cache in caches:
        directory.subscribe(cache)
        cache.put(key, "silo-1")
    directory.register(key, "silo-1")
    assert directory.unregister(key)
    for cache in caches:
        assert cache.get(key) is None
        assert cache.stats.invalidations == 1


# ---------------------------------------------------------------------------
# Runtime integration
# ---------------------------------------------------------------------------


def test_repeat_sends_hit_the_cache():
    sched = Scheduler()
    runtime = build_runtime(sched)
    runtime.register_actor(Durable)
    runtime.pinned_placement.pin_prefix("Durable/", "silo-1")

    async def main():
        ref = runtime.ref("Durable", "a")
        await ref.put(1)
        for _ in range(5):
            await ref.get()

    sched.run_until_complete(main())
    stats = client_cache(runtime).stats
    assert stats.hits >= 5
    assert stats.misses >= 1  # the first resolution


def test_explicit_deactivation_invalidates_cached_route():
    sched = Scheduler()
    runtime = build_runtime(sched)
    runtime.register_actor(Durable)
    runtime.pinned_placement.pin_prefix("Durable/", "silo-1")

    async def main():
        ref = runtime.ref("Durable", "a")
        await ref.put(2)
        assert ref.key in client_cache(runtime)
        await runtime.deactivate("Durable", "a")
        assert ref.key not in client_cache(runtime)
        # Reactivation repopulates through the authoritative directory.
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
        assert client_cache(runtime).get(ref.key) == "silo-1"
        runtime.crash_silo("silo-1", detected=True)
        assert ref.key not in client_cache(runtime)
        # Next send re-places on the survivor and recovers persisted state.
        value = await ref.get()
        return value, runtime.directory.lookup(ref.key)

    value, placed = sched.run_until_complete(main())
    assert value == 3
    assert placed == "silo-0"


def test_undetected_crash_cached_route_fails_like_uncached():
    """A zombie silo's cached route must not change crash semantics.

    Until the lease lapses, membership vouches for the crashed silo, so the
    send fails with SiloUnavailableError — cache or no cache.  The cache
    hit-validates against the live silo and steps aside; it must never
    deliver to the dead endpoint.
    """
    sched = Scheduler()
    runtime = build_runtime(sched, lease=2.0)
    runtime.register_actor(Durable)
    runtime.pinned_placement.pin_prefix("Durable/", "silo-1")

    async def main():
        ref = runtime.ref("Durable", "a")
        await ref.put(4)
        assert client_cache(runtime).get(ref.key) == "silo-1"
        runtime.crash_silo("silo-1", detected=False)
        with pytest.raises(SiloUnavailableError):
            await ref.get()
        # The validated hit was dropped; no stale route remains cached.
        assert ref.key not in client_cache(runtime)
        # After the lease lapses, on-demand repair re-places the actor.
        await sched.at(2.5)
        return await ref.get(), runtime.directory.lookup(ref.key)

    value, placed = sched.run_until_complete(main())
    assert value == 4
    assert placed == "silo-0"
    assert client_cache(runtime).get(ActorKey("Durable", "a")) == "silo-0"


def test_failure_detector_eviction_purges_cached_routes():
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
        assert client_cache(runtime).get(ref.key) == "silo-1"
        runtime.crash_silo("silo-1", detected=False)
        # A resilient call issued *during* the outage window must land on
        # the repaired placement, never a stale cached silo.
        value = await ref.get(
            retry=RetryPolicy(max_attempts=10, base_delay=0.5, jitter=0.0)
        )
        return value, runtime.directory.lookup(ref.key)

    value, placed = sched.run_until_complete(main())
    assert value == "survives"
    assert placed == "silo-0"
    assert runtime.stats.silos_evicted == 1
    # The eviction funneled through GrainDirectory.unregister, so the old
    # route is gone from the client cache.
    assert client_cache(runtime).get(ActorKey("Durable", "b")) == "silo-0"


def test_idle_collection_invalidates_cached_route():
    sched = Scheduler()
    runtime = build_runtime(sched, idle_timeout=1.0, collection_interval=0.5)
    runtime.register_actor(Durable)
    runtime.pinned_placement.pin_prefix("Durable/", "silo-1")

    async def main():
        ref = runtime.ref("Durable", "a")
        await ref.put(5)
        assert ref.key in client_cache(runtime)
        await sched.sleep(2.0)
        await runtime.collect_idle_activations()
        assert ref.key not in client_cache(runtime)
        return await ref.get()

    assert sched.run_until_complete(main()) == 5
