"""Storage fault injection: throttle windows, random faults, transparency."""

import random

import pytest

from repro.errors import (
    InjectedFaultError,
    KeyNotFoundError,
    ThrottledError,
    ThrottlingError,
)
from repro.storage import ChaosKVStore, InMemoryKVStore, ProvisionedKVStore


def chaos_store(sched, **kwargs):
    return ChaosKVStore(sched, InMemoryKVStore(), **kwargs)


def test_transparent_passthrough_when_unarmed(sched):
    store = chaos_store(sched)

    async def main():
        await store.put("k", {"a": 1})
        item = await store.get("k")
        listed = await store.scan("k")
        deleted = await store.delete("k")
        return item.value, len(listed), deleted

    assert sched.run_until_complete(main()) == ({"a": 1}, 1, True)
    assert store.injected_throttles == 0
    assert len(store) == 0


def test_throttle_window_raises_typed_error_with_hint(sched):
    store = chaos_store(sched, retry_after=0.5)
    store.throttle_between(0.0, 2.0)

    async def main():
        with pytest.raises(ThrottledError) as excinfo:
            await store.put("k", 1)
        return excinfo.value

    error = sched.run_until_complete(main())
    # ThrottledError is a ThrottlingError (and carries the backoff hint),
    # so generic throttling handlers and retry policies both recognise it.
    assert isinstance(error, ThrottlingError)
    assert 0.0 < error.retry_after <= 0.5
    assert store.injected_throttles == 1


def test_throttle_window_expires(sched):
    store = chaos_store(sched)
    store.throttle_between(0.0, 1.0, kinds=("write",))

    async def main():
        with pytest.raises(ThrottledError):
            await store.put("k", 1)
        await sched.at(1.0)  # window is half-open: [start, end)
        await store.put("k", 2)
        return (await store.get("k")).value

    assert sched.run_until_complete(main()) == 2


def test_throttle_retry_after_never_overshoots_window(sched):
    store = chaos_store(sched, retry_after=10.0)
    store.throttle_between(0.0, 1.0)

    async def main():
        await sched.at(0.75)
        with pytest.raises(ThrottledError) as excinfo:
            await store.get("k")
        return excinfo.value.retry_after

    # Backing off by retry_after lands just past the window, not 10 s out.
    assert sched.run_until_complete(main()) == pytest.approx(0.25)


def test_probabilistic_faults_are_seeded(sched):
    store = chaos_store(
        sched, rng=random.Random(7), read_fault_rate=0.5, write_fault_rate=0.5
    )

    async def main():
        for i in range(20):
            try:
                await store.put(f"k{i}", i)
            except InjectedFaultError:
                pass
            try:
                await store.get(f"k{i}")
            except (InjectedFaultError, KeyNotFoundError):
                pass

    sched.run_until_complete(main())
    # A fair coin over 20 ops of each kind: some fault, some pass.
    assert 0 < store.injected_write_faults < 20
    assert 0 < store.injected_read_faults < 20


def test_clear_faults_disarms_everything(sched):
    store = chaos_store(sched, read_fault_rate=1.0, write_fault_rate=1.0)
    store.throttle_between(0.0)

    async def main():
        with pytest.raises(ThrottledError):
            await store.put("k", 1)
        store.clear_faults()
        await store.put("k", 1)
        return (await store.get("k")).value

    assert sched.run_until_complete(main()) == 1


def test_validation_rejects_bad_rates(sched):
    with pytest.raises(ValueError):
        chaos_store(sched, read_fault_rate=1.5)
    with pytest.raises(ValueError):
        chaos_store(sched).throttle_between(0.0, kinds=("sideways",))


def test_dynamo_throttle_carries_retry_after(sched):
    store = ProvisionedKVStore(
        sched, read_capacity_units=4.0, write_capacity_units=4.0
    )

    async def main():
        await store.put("k", "x" * 2048)  # ~3 WCU: nearly drains the bucket
        with pytest.raises(ThrottledError) as excinfo:
            await store.put("k", "y" * 2048)
        return excinfo.value

    error = sched.run_until_complete(main())
    assert error.retry_after > 0.0
    assert store.throttled_writes == 1


def test_put_many_fails_the_whole_batch_like_a_lost_round_trip(sched):
    # A batched write shares one round trip, so a throttle window must fail
    # every entry — not silently land some and drop the rest.
    store = chaos_store(sched)
    store.throttle_between(0.0, 1.0, kinds=("write",))

    async def main():
        with pytest.raises(ThrottledError):
            await store.put_many([("a", 1, None, 1), ("b", 2, None, None)])
        assert await store.try_get("a") is None
        assert await store.try_get("b") is None
        await sched.at(1.0)
        results = await store.put_many([("a", 1, None, 1), ("b", 2, None, None)])
        return results

    assert sched.run_until_complete(main()) == [1, 1]
    assert store.injected_throttles == 1


def test_group_commit_batch_through_chaos_rejects_every_ticket(sched):
    # Regression: GroupCommitWriter coalesces tickets into one put_many; if
    # the chaos layer only faulted put(), batched flushes would dodge every
    # scripted outage and chaos runs would overstate durability.
    from repro.storage.groupcommit import GroupCommitWriter

    store = chaos_store(sched)
    store.throttle_between(0.0, 1.0, kinds=("write",))
    writer = GroupCommitWriter(store, sched, max_batch=8, max_delay=0.0)

    async def main():
        first = writer.put("a", {"v": 1})
        second = writer.put("b", {"v": 2})
        failures = []
        for ticket in (first, second):
            try:
                await ticket
            except ThrottledError as error:
                failures.append(error)
        return failures

    failures = sched.run_until_complete(main())
    assert len(failures) == 2
    assert store.injected_throttles == 1  # one round trip, one fault roll
    assert len(store) == 0


def test_chaos_wrapper_exported_from_storage_package():
    import repro.storage as storage

    assert storage.ChaosKVStore is ChaosKVStore
    assert storage.ThrottledError is ThrottledError
