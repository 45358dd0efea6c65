"""Unit tests for the provisioned (DynamoDB-like) store."""

import pytest

from repro.errors import ThrottlingError
from repro.net import ConstantLatency
from repro.storage import ProvisionedKVStore


def make_store(sched, **kwargs):
    kwargs.setdefault("latency", ConstantLatency(0.005))
    return ProvisionedKVStore(sched, **kwargs)


def test_requests_pay_latency(sched):
    store = make_store(sched)

    async def main():
        await store.put("k", "v")
        write_done = sched.now
        await store.get("k")
        return write_done, sched.now

    write_done, total = sched.run_until_complete(main())
    assert write_done == pytest.approx(0.005)
    assert total == pytest.approx(0.010)


def test_throttle_mode_raises_when_capacity_exhausted(sched):
    store = make_store(
        sched, write_capacity_units=5, on_overload="throttle"
    )

    async def main():
        # Burst capacity = 5 write units; the 6th small write must throttle.
        for i in range(5):
            await store.put(f"k{i}", "x")
        with pytest.raises(ThrottlingError):
            await store.put("k5", "x")
        return store.throttled_writes

    assert sched.run_until_complete(main()) == 1


def test_delay_mode_waits_for_refill_instead_of_failing(sched):
    store = make_store(
        sched, write_capacity_units=5, on_overload="delay", latency=ConstantLatency(0)
    )

    async def main():
        for i in range(6):
            await store.put(f"k{i}", "x")
        return sched.now

    elapsed = sched.run_until_complete(main())
    # Sixth write waited ~1/5 s for one write unit to accrue.
    assert elapsed == pytest.approx(0.2, abs=0.01)


def test_capacity_refills_over_time(sched):
    store = make_store(sched, write_capacity_units=5, on_overload="throttle")

    async def main():
        for i in range(5):
            await store.put(f"k{i}", "x")
        await sched.sleep(1.0)  # refill 5 units
        await store.put("later", "x")
        return store.writes

    assert sched.run_until_complete(main()) == 6


def test_large_values_cost_more_write_units(sched):
    store = make_store(sched, write_capacity_units=10, on_overload="throttle")
    big = "x" * 5000  # > 4 KiB => >= 5 write units of 1 KiB

    async def main():
        await store.put("big", big)
        await store.put("big2", big)
        with pytest.raises(ThrottlingError):
            await store.put("big3", big)

    sched.run_until_complete(main())


def test_read_after_missing_key_does_not_charge(sched):
    store = make_store(sched, read_capacity_units=1, on_overload="throttle")

    async def main():
        missing = await store.try_get("nope")
        await store.put("k", "v")
        found = await store.get("k")
        return missing, found.value

    missing, value = sched.run_until_complete(main())
    assert missing is None
    assert value == "v"


def test_scan_returns_prefix_rows(sched):
    store = make_store(sched, read_capacity_units=100)

    async def main():
        await store.put("a/1", 1)
        await store.put("a/2", 2)
        await store.put("b/1", 3)
        return [key for key, _ in await store.scan("a/")]

    assert sched.run_until_complete(main()) == ["a/1", "a/2"]


def test_invalid_overload_mode_rejected(sched):
    with pytest.raises(ValueError):
        ProvisionedKVStore(sched, on_overload="explode")
