"""Durable actor state: load on activation, write policies, silo shutdown."""

import pytest

from repro.net import ConstantLatency, Network
from repro.runtime import Actor, AodbRuntime, RuntimeConfig, WritePolicy
from repro.storage import InMemoryKVStore


def build_runtime(sched, store):
    config = RuntimeConfig(default_method_cost=0.0, activation_cost=0.0)
    network = Network(sched, lan=ConstantLatency(0.0))
    runtime = AodbRuntime(sched, config=config, grain_storage=store, network=network)
    runtime.add_silo("s1", cores=2)
    return runtime


class DurableCounter(Actor):
    durable = True
    write_policy = WritePolicy.ON_DEACTIVATE

    async def increment(self, by=1):
        self.state["count"] = self.state.get("count", 0) + by
        self.mark_dirty()
        return self.state["count"]

    async def read(self):
        return self.state.get("count", 0)


class WriteThroughCounter(DurableCounter):
    write_policy = WritePolicy.WRITE_THROUGH


class ManualCounter(DurableCounter):
    write_policy = WritePolicy.MANUAL


class IntervalCounter(DurableCounter):
    write_policy = WritePolicy.INTERVAL
    write_interval_seconds = 10.0


def test_on_deactivate_policy_writes_only_at_deactivation(sched):
    store = InMemoryKVStore()
    runtime = build_runtime(sched, store)
    runtime.register_actor(DurableCounter)

    async def main():
        ref = runtime.ref("DurableCounter", "d")
        await ref.increment()
        await ref.increment()
        assert store.writes == 0
        await runtime.deactivate("DurableCounter", "d")
        assert store.writes == 1
        # Reactivation loads the persisted state.
        return await ref.read()

    assert sched.run_until_complete(main()) == 2
    assert runtime.stats.activations_collected == 1


def test_write_through_policy_writes_every_mutation(sched):
    store = InMemoryKVStore()
    runtime = build_runtime(sched, store)
    runtime.register_actor(WriteThroughCounter)

    async def main():
        ref = runtime.ref("WriteThroughCounter", "w")
        await ref.increment()
        await ref.increment()
        return store.writes

    assert sched.run_until_complete(main()) == 2


def test_write_through_skips_read_only_methods(sched):
    store = InMemoryKVStore()
    runtime = build_runtime(sched, store)

    from repro.runtime import actor_method

    class ReadMostly(Actor):
        durable = True
        write_policy = WritePolicy.WRITE_THROUGH

        async def put(self, value):
            self.state["v"] = value

        @actor_method(read_only=True)
        async def get(self):
            return self.state.get("v")

    runtime.register_actor(ReadMostly)

    async def main():
        ref = runtime.ref("ReadMostly", "r")
        await ref.put(1)
        writes_after_put = store.writes
        await ref.get()
        await ref.get()
        return writes_after_put, store.writes

    after_put, after_gets = sched.run_until_complete(main())
    assert after_put == 1
    assert after_gets == 1


def test_manual_policy_never_writes_automatically(sched):
    store = InMemoryKVStore()
    runtime = build_runtime(sched, store)
    runtime.register_actor(ManualCounter)

    async def main():
        ref = runtime.ref("ManualCounter", "m")
        await ref.increment()
        await runtime.deactivate("ManualCounter", "m")
        return store.writes, await ref.read()

    writes, value = sched.run_until_complete(main())
    assert writes == 0
    assert value == 0  # state was lost, as MANUAL demands


def test_manual_policy_explicit_write_state(sched):
    store = InMemoryKVStore()
    runtime = build_runtime(sched, store)

    class Saver(ManualCounter):
        async def save(self):
            await self.write_state()
            return True

    runtime.register_actor(Saver)

    async def main():
        ref = runtime.ref("Saver", "s")
        await ref.increment(5)
        await ref.save()
        await runtime.deactivate("Saver", "s")
        return await ref.read()

    assert sched.run_until_complete(main()) == 5


class BufferedManualCounter(ManualCounter):
    """Keeps its count outside ``self.state`` until ``snapshot_state``."""

    def __init__(self, context):
        super().__init__(context)
        self.buffered = 0

    async def on_activate(self):
        self.buffered = self.state.get("count", 0)

    def snapshot_state(self):
        self.state["count"] = self.buffered

    async def increment(self, by=1):
        self.buffered += by
        self.mark_dirty()
        return self.buffered

    async def save(self):
        await self.write_state()
        return True


def test_write_state_snapshots_state_kept_outside_the_document(sched):
    store = InMemoryKVStore()
    runtime = build_runtime(sched, store)
    runtime.register_actor(BufferedManualCounter)

    async def main():
        ref = runtime.ref("BufferedManualCounter", "b")
        await ref.increment(3)
        await ref.save()
        item = await store.get("state/BufferedManualCounter/b")
        return item.value

    assert sched.run_until_complete(main()) == {"count": 3}


def test_interval_policy_flushes_periodically(sched):
    store = InMemoryKVStore()
    runtime = build_runtime(sched, store)
    runtime.register_actor(IntervalCounter)

    async def main():
        ref = runtime.ref("IntervalCounter", "i")
        await ref.increment()
        assert store.writes == 0
        await sched.sleep(10.5)  # one flush interval passes
        first = store.writes
        await sched.sleep(10.5)  # nothing dirty: no extra write
        second = store.writes
        await ref.increment()
        await sched.sleep(10.5)
        third = store.writes
        return first, second, third

    assert sched.run_until_complete(main()) == (1, 1, 2)


def test_silo_shutdown_persists_all_durable_state(sched):
    store = InMemoryKVStore()
    runtime = build_runtime(sched, store)
    runtime.register_actor(DurableCounter)

    async def main():
        for i in range(5):
            await runtime.ref("DurableCounter", f"d{i}").increment(i)
        count = await runtime.shutdown_silo("s1")
        return count

    assert sched.run_until_complete(main()) == 5
    assert store.writes == 5
    assert len(store) == 5


def test_state_survives_deactivate_reactivate_cycles(sched):
    store = InMemoryKVStore()
    runtime = build_runtime(sched, store)
    runtime.register_actor(DurableCounter)

    async def main():
        ref = runtime.ref("DurableCounter", "cycle")
        for expected in range(1, 4):
            value = await ref.increment()
            assert value == expected
            await runtime.deactivate("DurableCounter", "cycle")
        return await ref.read()

    assert sched.run_until_complete(main()) == 3


def test_non_durable_actor_write_state_raises(sched):
    store = InMemoryKVStore()
    runtime = build_runtime(sched, store)

    class Volatile(Actor):
        async def save(self):
            await self.write_state()

    runtime.register_actor(Volatile)

    async def main():
        from repro.errors import ActorMethodError

        with pytest.raises(ActorMethodError):
            await runtime.ref("Volatile", "v").save()

    sched.run_until_complete(main())


def test_clear_state_removes_document(sched):
    store = InMemoryKVStore()
    runtime = build_runtime(sched, store)

    class Clearable(DurableCounter):
        async def wipe(self):
            await self.clear_state()
            return True

    runtime.register_actor(Clearable)

    async def main():
        ref = runtime.ref("Clearable", "c")
        await ref.increment(3)
        await runtime.deactivate("Clearable", "c")
        assert len(store) == 1
        await ref.wipe()
        await runtime.deactivate("Clearable", "c")
        return await ref.read()

    assert sched.run_until_complete(main()) == 0


def test_write_through_conflict_surfaces_conditional_check_failure(sched):
    # An out-of-band writer bumping the etag means this activation's view of
    # the document is stale; the flush must fail loudly, not last-write-win.
    from repro.errors import ConditionalCheckFailedError

    store = InMemoryKVStore()
    runtime = build_runtime(sched, store)
    runtime.register_actor(WriteThroughCounter)

    async def main():
        ref = runtime.ref("WriteThroughCounter", "w")
        await ref.increment()  # flush at etag 1
        await store.put("state/WriteThroughCounter/w", {"count": 99})  # etag 2
        with pytest.raises(ConditionalCheckFailedError):
            await ref.increment()
        return (await store.get("state/WriteThroughCounter/w")).value

    # The out-of-band document wins; the stale flush changed nothing.
    assert sched.run_until_complete(main()) == {"count": 99}


def test_group_commit_conflict_surfaces_conditional_check_failure(sched):
    # Same conflict, but the flush rides a batched put_many: the failure must
    # come back through the individual group-commit ticket, not vanish into
    # the batch.
    from repro.errors import ConditionalCheckFailedError

    store = InMemoryKVStore()
    config = RuntimeConfig(
        default_method_cost=0.0, activation_cost=0.0, group_commit_max_delay=0.0
    )
    network = Network(sched, lan=ConstantLatency(0.0))
    runtime = AodbRuntime(sched, config=config, grain_storage=store, network=network)
    runtime.add_silo("s1", cores=2)
    runtime.register_actor(WriteThroughCounter)

    async def main():
        ref = runtime.ref("WriteThroughCounter", "w")
        await ref.increment()
        await store.put("state/WriteThroughCounter/w", {"count": 99})
        with pytest.raises(ConditionalCheckFailedError):
            await ref.increment()
        assert runtime.group_commit is not None
        return runtime.group_commit.batches >= 1

    assert sched.run_until_complete(main()) is True


class SlowStateStore(InMemoryKVStore):
    """State writes land ``delay`` virtual seconds after they are issued;
    journal (``wal/``) writes stay instant."""

    def __init__(self, sched, delay):
        super().__init__()
        self._sched = sched
        self.delay = delay

    async def put(self, key, value, expected_etag=None, fence=None):
        if key.startswith("state/"):
            await self._sched.sleep(self.delay)
        return await super().put(key, value, expected_etag, fence)


class EverySecondCounter(DurableCounter):
    write_policy = WritePolicy.INTERVAL
    write_interval_seconds = 1.0


def slow_flush_runtime(sched):
    """Redo pump every 0.4 s, interval flush every 1.0 s, state puts take
    0.5 s: the flush issued at 1.0 lands at 1.5, and the pump pass at 1.2
    journals the cell's document in between."""
    store = SlowStateStore(sched, delay=0.5)
    config = RuntimeConfig(default_method_cost=0.0, activation_cost=0.0, redo_lag=0.4)
    network = Network(sched, lan=ConstantLatency(0.0))
    runtime = AodbRuntime(sched, config=config, grain_storage=store, network=network)
    runtime.add_silo("s1", cores=2)
    runtime.register_actor(EverySecondCounter)
    return runtime, store


async def increment_across_the_first_landing(sched, runtime):
    """Two increments, then sleep to t=1.6, past the first flush's landing."""
    ref = runtime.ref("EverySecondCounter", "i")
    await ref.increment()  # t=0
    await sched.sleep(0.9)  # the 0.4 pump journaled count=1 (seq 1)
    await ref.increment()  # count=2, journaled by no pump before 1.0
    await sched.sleep(0.7)  # t=1.6: the first flush has landed


def test_a_flush_landing_keeps_a_record_journaled_while_it_was_in_flight(sched):
    # Landing may drop only the records journaled before the put was issued.
    runtime, store = slow_flush_runtime(sched)
    journal = runtime.redo_journal
    key = "state/EverySecondCounter/i"

    async def main():
        await increment_across_the_first_landing(sched, runtime)
        (activation,) = runtime.silo("s1").activations()
        landed = (await store.get(key)).value
        # The etag counts the flushes landed, from 0 for a fresh key.
        first = (journal.pending_records(key), activation.dirty, activation.etag)
        await sched.sleep(1.0)  # t=2.6: the next flush landed as well
        second = (journal.pending_records(key), activation.dirty, activation.etag)
        return landed, first, second

    landed, first, second = sched.run_until_complete(main())
    assert landed == {"count": 2}
    # The 1.2 record (seq 2) is newer than the journal at the put's issue: it
    # survives the landing, and the state stays dirty until a flush covers it.
    assert first == (1, True, 1)
    assert second == (0, False, 2)


def test_a_record_kept_across_a_landing_replays_on_the_landed_etag(sched):
    # The record the 1.2 pump pass journaled was based on etag 0, but the
    # store holds etag 1 once the flush lands.  A crash now re-loads etag 1,
    # so the kept record must be based on it, or its acked point is lost.
    runtime, store = slow_flush_runtime(sched)
    journal = runtime.redo_journal
    key = "state/EverySecondCounter/i"
    sched.run_until_complete(increment_across_the_first_landing(sched, runtime))
    assert sched.run_until_complete(store.get(key)).etag == 1
    record = journal.replay_for(key, 1, None)
    assert record is not None
    assert (record.seq, record.base_etag) == (2, 1)
    assert record.document == {"count": 2}
