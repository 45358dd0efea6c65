"""Group-commit write-behind: one round trip for N flushes, same durability."""

import pytest

from repro.errors import ConditionalCheckFailedError, ThrottledError
from repro.kernel import Scheduler
from repro.net.latency import ConstantLatency
from repro.storage import InMemoryKVStore, ProvisionedKVStore
from repro.storage.groupcommit import GroupCommitWriter


@pytest.fixture
def sched():
    return Scheduler()


# ---------------------------------------------------------------------------
# KeyValueStore.put_many (the storage half)
# ---------------------------------------------------------------------------


def test_put_many_default_impl_isolates_entry_failures(sched):
    store = InMemoryKVStore()

    async def main():
        await store.put("a", 1)
        return await store.put_many(
            [("a", 2, 1, None), ("b", 10, None, None), ("a", 99, 7, None)]
        )

    ok_a, ok_b, conflict = sched.run_until_complete(main())
    assert ok_a == 2
    assert ok_b == 1
    assert isinstance(conflict, ConditionalCheckFailedError)

    async def verify():
        return (await store.get("a")).value, (await store.get("b")).value

    assert sched.run_until_complete(verify()) == (2, 10)


def test_provisioned_put_many_charges_capacity_but_one_round_trip(sched):
    store = ProvisionedKVStore(
        sched, write_capacity_units=1000.0, latency=ConstantLatency(0.005)
    )

    async def main():
        started = sched.now
        results = await store.put_many(
            [(f"k{i}", {"v": i}, None, None) for i in range(8)]
        )
        return results, sched.now - started

    results, elapsed = sched.run_until_complete(main())
    assert results == [1] * 8
    # One BatchWriteItem round trip, not eight.
    assert elapsed == pytest.approx(0.005)
    assert store.write_batches == 1
    assert store.batched_round_trips_saved == 7
    # Capacity accounting stays honest: every item paid its write units.
    assert store.wcu_consumed == pytest.approx(8.0)


def test_provisioned_put_many_throttles_whole_batch(sched):
    store = ProvisionedKVStore(
        sched, write_capacity_units=2.0, on_overload="throttle"
    )

    async def main():
        with pytest.raises(ThrottledError):
            await store.put_many(
                [(f"k{i}", {"v": i}, None, None) for i in range(50)]
            )
        return await store.try_get("k0")

    assert sched.run_until_complete(main()) is None  # nothing landed


# ---------------------------------------------------------------------------
# GroupCommitWriter (the coalescing half)
# ---------------------------------------------------------------------------


def test_same_instant_puts_share_one_batch(sched):
    store = ProvisionedKVStore(
        sched, write_capacity_units=1000.0, latency=ConstantLatency(0.005)
    )
    writer = GroupCommitWriter(store, sched, max_batch=64, max_delay=0.0)

    async def main():
        tickets = [writer.put(f"k{i}", {"v": i}) for i in range(6)]
        return [await ticket for ticket in tickets]

    etags = sched.run_until_complete(main())
    assert etags == [1] * 6
    assert writer.batches == 1
    assert writer.largest_batch == 6
    assert writer.round_trips_saved == 5
    assert store.write_batches == 1


def test_batch_size_bound_flushes_early(sched):
    store = InMemoryKVStore()
    writer = GroupCommitWriter(store, sched, max_batch=2, max_delay=1.0)

    async def main():
        tickets = [writer.put(f"k{i}", i) for i in range(3)]
        # The first two flush at the size bound immediately; the third
        # waits for the window.
        await tickets[0]
        await tickets[1]
        sealed_at = sched.now
        await tickets[2]
        return sealed_at, sched.now

    sealed_at, last = sched.run_until_complete(main())
    assert sealed_at == 0.0
    assert last == pytest.approx(1.0)
    assert writer.batches == 2


def test_ack_means_durable(sched):
    """A resolved put future must mean the value is readable in the store."""
    store = ProvisionedKVStore(sched, latency=ConstantLatency(0.01))
    writer = GroupCommitWriter(store, sched, max_batch=64, max_delay=0.0)

    async def main():
        await writer.put("state", {"v": 42})
        return (await store.get("state")).value

    assert sched.run_until_complete(main()) == {"v": 42}


def test_conditional_conflict_fails_only_its_caller(sched):
    store = InMemoryKVStore()
    writer = GroupCommitWriter(store, sched, max_batch=64, max_delay=0.0)

    async def main():
        await store.put("a", 0)  # etag 1
        conflicted = writer.put("a", 1, expected_etag=9)
        clean = writer.put("b", 2)
        outcome = []
        try:
            await conflicted
            outcome.append("ok")
        except ConditionalCheckFailedError:
            outcome.append("conflict")
        outcome.append(await clean)
        return outcome

    assert sched.run_until_complete(main()) == ["conflict", 1]


def test_whole_batch_failure_rejects_every_ticket(sched):
    store = ProvisionedKVStore(
        sched, write_capacity_units=1.0, on_overload="throttle"
    )
    writer = GroupCommitWriter(store, sched, max_batch=64, max_delay=0.0)

    async def main():
        tickets = [writer.put(f"k{i}", {"v": "x" * 4096}) for i in range(4)]
        failures = 0
        for ticket in tickets:
            try:
                await ticket
            except ThrottledError:
                failures += 1
        return failures

    assert sched.run_until_complete(main()) == 4


def test_constructor_validation(sched):
    store = InMemoryKVStore()
    with pytest.raises(ValueError):
        GroupCommitWriter(store, sched, max_batch=0)
    with pytest.raises(ValueError):
        GroupCommitWriter(store, sched, max_delay=-1.0)
