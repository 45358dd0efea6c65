"""Failure injection: the runtime must degrade loudly, not silently."""

import pytest

from repro.errors import (
    SiloUnavailableError,
    UnknownActorTypeError,
)
from repro.kernel import Scheduler
from repro.net import ConstantLatency, Network
from repro.runtime import Actor, ActorKey, AodbRuntime, RuntimeConfig


def build_runtime(sched, silos=1):
    config = RuntimeConfig(default_method_cost=0.0, activation_cost=0.0)
    runtime = AodbRuntime(
        sched, config=config, network=Network(sched, lan=ConstantLatency(0.001))
    )
    for i in range(silos):
        runtime.add_silo(f"silo-{i}", cores=2)
    return runtime


class Stateful(Actor):
    durable = True

    async def put(self, value):
        self.state["v"] = value
        self.mark_dirty()
        return value

    async def get(self):
        return self.state.get("v")


def test_method_failure_does_not_poison_later_messages(sched=None):
    sched = Scheduler()
    runtime = build_runtime(sched)

    class Half(Actor):
        async def work(self, fail):
            if fail:
                raise RuntimeError("injected")
            return "ok"

    runtime.register_actor(Half)

    async def main():
        ref = runtime.ref("Half", "h")
        outcomes = []
        for fail in (True, False, True, False):
            try:
                outcomes.append(await ref.work(fail))
            except RuntimeError:
                outcomes.append("error")
        return outcomes

    assert sched.run_until_complete(main()) == ["error", "ok", "error", "ok"]
    assert runtime.stats.errors == 2


def test_failure_in_on_deactivate_is_contained():
    sched = Scheduler()
    runtime = build_runtime(sched)

    class BadGoodbye(Stateful):
        async def on_deactivate(self):
            raise OSError("flush failed")

    runtime.register_actor(BadGoodbye)

    async def main():
        ref = runtime.ref("BadGoodbye", "b")
        await ref.put(1)
        # Deactivation must complete despite the hook failure...
        assert await runtime.deactivate("BadGoodbye", "b") is True
        # ...and the actor is usable again (state lost: flush failed loudly).
        return await ref.get()

    assert sched.run_until_complete(main()) is None
    assert runtime.stats.activation_failures == 1


def test_calls_racing_with_deactivation_are_redelivered():
    sched = Scheduler()
    runtime = build_runtime(sched)
    runtime.register_actor(Stateful)

    async def caller(ref, results):
        results.append(await ref.put(42))

    async def main():
        ref = runtime.ref("Stateful", "s")
        await ref.put(1)
        results = []
        # Deactivate while a new call is in flight across the network.
        sched.spawn(caller(ref, results))
        await runtime.deactivate("Stateful", "s")
        await sched.sleep(1)
        return results, await ref.get()

    results, value = sched.run_until_complete(main())
    assert results == [42]
    assert value == 42
    # The grain was reactivated exactly once for redelivery.
    assert runtime.stats.activations_created == 2


def test_no_silo_cluster_rejects_work_loudly():
    sched = Scheduler()
    config = RuntimeConfig()
    runtime = AodbRuntime(sched, config=config)
    runtime.register_actor(Stateful)

    async def main():
        with pytest.raises(SiloUnavailableError):
            await runtime.ref("Stateful", "s").put(1)

    sched.run_until_complete(main())


def test_reply_ignored_if_caller_future_already_failed():
    # A timeout consumer abandoning the reply must not crash the runtime.
    sched = Scheduler()
    runtime = build_runtime(sched)

    class Slow(Actor):
        async def slow(self):
            await self.context.runtime.scheduler.sleep(10)
            return "late"

    runtime.register_actor(Slow)

    async def main():
        from repro.errors import TimeoutError as KTimeout

        future = runtime.ref("Slow", "s").ask("slow")
        with pytest.raises(KTimeout):
            await sched.timeout(future, 1.0)
        await sched.sleep(20)  # late reply arrives, must be swallowed
        return True

    assert sched.run_until_complete(main()) is True


def test_unknown_type_in_directory_path():
    sched = Scheduler()
    runtime = build_runtime(sched)
    with pytest.raises(UnknownActorTypeError):
        runtime.actor_type("Ghost")
    sched.stop()  # never run: close the silo's queued heartbeat loop


def test_stale_directory_entry_self_heals():
    sched = Scheduler()
    runtime = build_runtime(sched, silos=2)

    from repro.runtime import WritePolicy

    class WriteThrough(Stateful):
        # Write-through: a crash must not lose acknowledged writes.
        write_policy = WritePolicy.WRITE_THROUGH

    runtime.register_actor(WriteThrough, name="Stateful")

    async def main():
        ref = runtime.ref("Stateful", "s")
        await ref.put(7)
        key = ActorKey("Stateful", "s")
        hosting = runtime.directory.lookup(key)
        # Simulate a crash: the catalog loses the activation but the
        # directory entry lingers (stale).
        runtime.silo(hosting).remove_activation(key)
        # The next call heals the entry and reactivates from storage.
        return await ref.get()

    assert sched.run_until_complete(main()) == 7


def test_double_silo_registration_rejected():
    sched = Scheduler()
    runtime = build_runtime(sched)
    with pytest.raises(ValueError):
        runtime.add_silo("silo-0")
    sched.stop()  # never run: close the silo's queued heartbeat loop


def test_shutdown_unknown_silo_raises():
    sched = Scheduler()
    runtime = build_runtime(sched)

    async def main():
        with pytest.raises(SiloUnavailableError):
            await runtime.shutdown_silo("ghost")

    sched.run_until_complete(main())
