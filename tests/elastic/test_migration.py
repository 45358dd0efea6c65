"""Live activation migration: lossless, exactly-once, state-preserving."""

import pytest

from repro.errors import SiloUnavailableError
from repro.obs.trace import Tracer
from repro.runtime import (
    Actor,
    ActorKey,
    AodbRuntime,
    RuntimeConfig,
    WritePolicy,
)
from repro.runtime.resilience import RetryPolicy


class Counter(Actor):
    """Durable counter: state rides the migration's persistence flush."""

    durable = True
    write_policy = WritePolicy.ON_DEACTIVATE

    async def add(self, n=1):
        self.state["value"] = self.state.get("value", 0) + n
        self.mark_dirty()
        return self.state["value"]

    async def record(self, seq):
        seen = self.state.setdefault("seen", [])
        seen.append(seq)
        self.mark_dirty()
        return len(seen)

    async def dump(self):
        return self.state.get("value", 0), list(self.state.get("seen", []))

    async def where(self):
        return self.context.silo_id


class VolatileCounter(Actor):
    """Non-durable: in-memory state follows ordinary deactivation rules."""

    async def add(self, n=1):
        self.value = getattr(self, "value", 0) + n
        return self.value


def key(actor_id="c1", type_name="Counter"):
    return ActorKey(type_name, actor_id)


def test_migrate_moves_live_activation_and_repoints_directory(sched, runtime):
    runtime.register_actor(Counter)

    async def main():
        ref = runtime.ref("Counter", "c1")
        await ref.add(5)
        source = runtime.directory.lookup(key())
        target = "silo-2" if source == "silo-1" else "silo-1"
        assert await runtime.migrate(key(), target) is True
        assert runtime.directory.lookup(key()) == target
        # Served on the target, with in-memory state carried over.
        assert await ref.where() == target
        assert await ref.add(1) == 6
        assert runtime.silo(source).get_activation(key()) is None
        assert runtime.silo(target).get_activation(key()) is not None

    sched.run_until_complete(main())
    assert runtime.stats.migrations == 1
    assert runtime.stats.migration_failures == 0


def test_migrate_state_round_trips_through_persistence(sched, runtime):
    runtime.register_actor(Counter)

    async def main():
        ref = runtime.ref("Counter", "c1")
        for _ in range(10):
            await ref.add(1)
        source = runtime.directory.lookup(key())
        target = "silo-2" if source == "silo-1" else "silo-1"
        assert await runtime.migrate(key(), target)
        # The close path flushed through persistence (ON_DEACTIVATE), and
        # the successor loaded the exact same snapshot.
        stored = await runtime.grain_storage.get(key().storage_key())
        assert stored.value == {"value": 10}
        assert await ref.add(1) == 11

    sched.run_until_complete(main())


def test_migrate_nondurable_resets_like_ordinary_deactivation(sched, runtime):
    """Volatile state follows the same rules as a normal deactivate cycle."""
    runtime.register_actor(VolatileCounter)

    async def main():
        ref = runtime.ref("VolatileCounter", "v1")
        await ref.add(5)
        k = key("v1", "VolatileCounter")
        source = runtime.directory.lookup(k)
        target = "silo-2" if source == "silo-1" else "silo-1"
        assert await runtime.migrate(k, target)
        # Non-durable actors restart fresh — identical to deactivation.
        assert await ref.add(1) == 1

    sched.run_until_complete(main())


def test_migrate_without_activation_returns_false(sched, runtime):
    runtime.register_actor(Counter)

    async def main():
        return await runtime.migrate(key(), "silo-2")

    assert sched.run_until_complete(main()) is False
    assert runtime.stats.migration_failures == 1


def test_migrate_to_current_silo_returns_false(sched, runtime):
    runtime.register_actor(Counter)

    async def main():
        ref = runtime.ref("Counter", "c1")
        await ref.add()
        source = runtime.directory.lookup(key())
        return await runtime.migrate(key(), source)

    assert sched.run_until_complete(main()) is False
    assert runtime.stats.migrations == 0


def test_migrate_rejects_unusable_targets(sched, runtime):
    runtime.register_actor(Counter)

    async def main():
        ref = runtime.ref("Counter", "c1")
        await ref.add()
        source = runtime.directory.lookup(key())
        other = "silo-2" if source == "silo-1" else "silo-1"
        runtime.silo(other).draining = True
        with pytest.raises(SiloUnavailableError):
            await runtime.migrate(key(), other)
        runtime.silo(other).draining = False
        runtime.crash_silo(other)
        with pytest.raises(SiloUnavailableError):
            await runtime.migrate(key(), other)
        with pytest.raises(SiloUnavailableError):
            await runtime.migrate(key(), "no-such-silo")

    sched.run_until_complete(main())
    assert runtime.stats.migrations == 0
    assert runtime.stats.migration_failures >= 2


def test_concurrent_sends_survive_migration_exactly_once(sched, runtime):
    """Messages racing the move are forwarded, never lost or duplicated."""
    runtime.register_actor(Counter)

    async def main():
        ref = runtime.ref("Counter", "c1")
        await ref.record(0)
        source = runtime.directory.lookup(key())
        target = "silo-2" if source == "silo-1" else "silo-1"
        futures = [ref.ask("record", seq) for seq in range(1, 101)]
        moved = await runtime.migrate(key(), target)
        await sched.gather(futures)
        assert moved
        _value, seen = await ref.ask("dump")
        return seen

    seen = sched.run_until_complete(main())
    # Exactly-once: every sequence number exactly once.  Concurrent
    # in-flight sends carry no ordering guarantee across the move (racers
    # parked at the drain barrier re-resolve after fresh sends reach the
    # target), so assert set-exactness, not order.
    assert sorted(seen) == list(range(101))


def test_sequential_asks_stay_ordered_across_migration(sched, runtime):
    runtime.register_actor(Counter)

    async def main():
        ref = runtime.ref("Counter", "c1")
        for seq in range(5):
            await ref.record(seq)
        source = runtime.directory.lookup(key())
        target = "silo-2" if source == "silo-1" else "silo-1"
        assert await runtime.migrate(key(), target)
        for seq in range(5, 10):
            await ref.record(seq)
        _value, seen = await ref.dump()
        return seen

    assert sched.run_until_complete(main()) == list(range(10))


def test_migration_emits_trace_span(sched):
    config = RuntimeConfig(default_method_cost=0.0, activation_cost=0.0)
    runtime = AodbRuntime(sched, config=config, tracer=Tracer(enabled=True))
    runtime.add_silo("silo-1", cores=2)
    runtime.add_silo("silo-2", cores=2)
    runtime.register_actor(Counter)

    async def main():
        ref = runtime.ref("Counter", "c1")
        await ref.add()
        source = runtime.directory.lookup(key())
        target = "silo-2" if source == "silo-1" else "silo-1"
        assert await runtime.migrate(key(), target)

    sched.run_until_complete(main())
    spans = [s for s in runtime.tracer.spans() if s.kind == "migrate"]
    assert len(spans) == 1
    assert "migrate->" in spans[0].name


def test_deadline_and_retry_semantics_unchanged_during_migration(sched, runtime):
    """A deadline'd resilient ask issued mid-move completes without retries."""
    runtime.register_actor(Counter)
    policy = RetryPolicy(max_attempts=3, base_delay=0.1)

    async def main():
        ref = runtime.ref("Counter", "c1")
        await ref.add()
        source = runtime.directory.lookup(key())
        target = "silo-2" if source == "silo-1" else "silo-1"
        future = ref.ask("add", 1, deadline=5.0, retry=policy)
        assert await runtime.migrate(key(), target)
        await future

    sched.run_until_complete(main())
    # The racer waited at the barrier and was forwarded — no retry fired,
    # no deadline tripped: semantics identical to an ordinary deactivation.
    assert runtime.stats.calls_retried == 0
    assert runtime.stats.deadlines_exceeded == 0


def test_directory_cache_invalidated_by_migration(sched, runtime):
    runtime.register_actor(Counter)

    async def main():
        ref = runtime.ref("Counter", "c1")
        await ref.add()
        source = runtime.directory.lookup(key())
        target = "silo-2" if source == "silo-1" else "silo-1"
        # Warm the client cache, then migrate: the unregister subscription
        # must purge the stale route so the next send re-resolves.
        cache = runtime._directory_cache("client")
        cache.put(key(), source)
        assert await runtime.migrate(key(), target)
        assert cache.get(key()) is None
        assert await ref.where() == target

    sched.run_until_complete(main())


class Brimful(Actor):
    # One queued ask behind a running 0.5 s turn fills the mailbox.
    mailbox_capacity = 1

    async def slow(self):
        await self.context.runtime.scheduler.sleep(0.5)
        return self.context.silo_id

    async def where(self):
        return self.context.silo_id


def test_migrating_a_full_mailbox_hands_over(sched, runtime):
    runtime.register_actor(Brimful)
    ref = runtime.ref("Brimful", "b")

    async def main():
        source = await ref.where()
        target = "silo-2" if source == "silo-1" else "silo-1"
        slow, queued = ref.slow(), ref.where()
        await sched.sleep(0.1)
        moved = await runtime.migrate(ref.key, target)
        later = await ref.ask("where", deadline=5.0)
        return source, target, moved, await slow, await queued, later

    source, target, moved, slow, queued, later = sched.run_until_complete(main())
    # The source drains what it had queued; the successor takes over.
    assert (moved, slow, queued, later) == (True, source, source, target)
    assert runtime.stats.migrations == 1
