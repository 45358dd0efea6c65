"""Storage failures during state flush must never kill an activation."""

import pytest

from repro.errors import ThrottlingError
from repro.kernel import Scheduler
from repro.net import ConstantLatency, Network
from repro.runtime import Actor, AodbRuntime, RuntimeConfig, WritePolicy
from repro.storage import InMemoryKVStore


class FlakyStore(InMemoryKVStore):
    """Fails the first ``failures`` writes, then behaves normally."""

    def __init__(self, failures):
        super().__init__()
        self.failures = failures
        self.attempts = 0

    async def put(self, key, value, expected_etag=None, fence=None):
        self.attempts += 1
        if self.attempts <= self.failures:
            raise ThrottlingError("synthetic storage failure")
        return await super().put(key, value, expected_etag, fence)


def build(sched, store, policy, interval=5.0):
    config = RuntimeConfig(default_method_cost=0.0, activation_cost=0.0)
    runtime = AodbRuntime(
        sched,
        config=config,
        grain_storage=store,
        network=Network(sched, lan=ConstantLatency(0.0)),
    )
    runtime.add_silo("s1", cores=2)

    class Durable(Actor):
        durable = True
        write_policy = policy
        write_interval_seconds = interval

        async def put(self, value):
            self.state["v"] = value
            self.mark_dirty()
            return value

        async def get(self):
            return self.state.get("v")

    runtime.register_actor(Durable)
    return runtime


def test_write_through_flush_failure_reaches_caller_and_actor_survives():
    sched = Scheduler()
    store = FlakyStore(failures=1)
    runtime = build(sched, store, WritePolicy.WRITE_THROUGH)

    async def main():
        ref = runtime.ref("Durable", "d")
        with pytest.raises(ThrottlingError):
            await ref.put(1)  # flush fails: no false durability ack
        # The activation keeps serving; the retry persists.
        await ref.put(2)
        return (await store.get("state/Durable/d")).value

    assert sched.run_until_complete(main()) == {"v": 2}
    assert runtime.stats.errors == 1


def test_interval_flush_failure_retries_next_tick():
    sched = Scheduler()
    store = FlakyStore(failures=1)
    runtime = build(sched, store, WritePolicy.INTERVAL, interval=5.0)

    async def main():
        ref = runtime.ref("Durable", "d")
        await ref.put(7)
        await sched.sleep(5.5)   # first interval flush fails
        assert store.writes == 0
        await sched.sleep(5.0)   # second interval flush succeeds
        return store.writes, await ref.get()

    writes, value = sched.run_until_complete(main())
    assert writes == 1
    assert value == 7
    assert runtime.stats.errors == 1


def test_flush_failure_on_deactivate_is_contained():
    sched = Scheduler()
    store = FlakyStore(failures=1)
    runtime = build(sched, store, WritePolicy.ON_DEACTIVATE)

    async def main():
        ref = runtime.ref("Durable", "d")
        await ref.put(3)
        # The deactivation flush fails, but deactivation completes and the
        # failure is accounted; state is lost (loudly), not wedged.
        assert await runtime.deactivate("Durable", "d") is True
        return await ref.get()

    assert sched.run_until_complete(main()) is None
    assert runtime.stats.activation_failures == 1
