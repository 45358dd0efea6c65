"""Call-chain cycle detection and ungraceful silo crashes."""

import pytest

from repro.errors import ReentrancyError, SiloUnavailableError
from repro.kernel import Scheduler
from repro.net import ConstantLatency, Network
from repro.runtime import Actor, AodbRuntime, RuntimeConfig, WritePolicy


def build_runtime(sched, silos=1):
    config = RuntimeConfig(default_method_cost=0.0, activation_cost=0.0)
    runtime = AodbRuntime(
        sched, config=config, network=Network(sched, lan=ConstantLatency(0.0005))
    )
    for i in range(silos):
        runtime.add_silo(f"silo-{i}", cores=2)
    return runtime


class PingPong(Actor):
    """Calls its peer, which calls back — the classic A→B→A cycle."""

    async def start_cycle(self, peer_id):
        peer = self.context.actor(self.key.type_name, peer_id)
        return await peer.bounce_back(self.actor_id)

    async def bounce_back(self, origin_id):
        origin = self.context.actor(self.key.type_name, origin_id)
        return await origin.leaf()

    async def leaf(self):
        return "reached the cycle end"


class ChainReentrant(PingPong):
    allow_chain_reentrancy = True


class SelfCaller(Actor):
    async def outer(self):
        me = self.context.actor("SelfCaller", self.actor_id)
        return await me.inner()

    async def inner(self):
        return "inner"


def test_cycle_detected_instead_of_deadlock():
    sched = Scheduler()
    runtime = build_runtime(sched)
    runtime.register_actor(PingPong)

    async def main():
        with pytest.raises(ReentrancyError, match="would deadlock"):
            await runtime.ref("PingPong", "a").start_cycle("b")
        # Both actors remain usable after the rejected cycle.
        return await runtime.ref("PingPong", "a").leaf()

    assert sched.run_until_complete(main()) == "reached the cycle end"


def test_self_call_detected():
    sched = Scheduler()
    runtime = build_runtime(sched)
    runtime.register_actor(SelfCaller)

    async def main():
        with pytest.raises(ReentrancyError):
            await runtime.ref("SelfCaller", "s").outer()

    sched.run_until_complete(main())


def test_chain_reentrancy_flag_allows_cycles():
    sched = Scheduler()
    runtime = build_runtime(sched)
    runtime.register_actor(ChainReentrant)

    async def main():
        return await runtime.ref("ChainReentrant", "a").start_cycle("b")

    assert sched.run_until_complete(main()) == "reached the cycle end"


def test_unrelated_concurrent_calls_are_not_misdetected():
    sched = Scheduler()
    runtime = build_runtime(sched)
    runtime.register_actor(PingPong)

    async def main():
        # Plain chains (client -> a -> b) from many clients never trip
        # the cycle detector.
        futures = [
            runtime.ref("PingPong", "a").ask("bounce_back", f"other-{i}")
            for i in range(5)
        ]
        return await sched.gather(futures)

    results = sched.run_until_complete(main())
    assert results == ["reached the cycle end"] * 5


def test_reentrant_actor_needs_no_detection():
    sched = Scheduler()
    runtime = build_runtime(sched)

    class FullyReentrant(PingPong):
        reentrant = True

    runtime.register_actor(FullyReentrant)

    async def main():
        return await runtime.ref("FullyReentrant", "a").start_cycle("b")

    assert sched.run_until_complete(main()) == "reached the cycle end"


# -- crash_silo ----------------------------------------------------------------


class Durable(Actor):
    durable = True
    write_policy = WritePolicy.WRITE_THROUGH

    async def put(self, value):
        self.state["v"] = value
        return value

    async def get(self):
        return self.state.get("v")


class Volatile(Actor):
    durable = True
    write_policy = WritePolicy.ON_DEACTIVATE

    async def put(self, value):
        self.state["v"] = value
        self.mark_dirty()
        return value

    async def get(self):
        return self.state.get("v")


def test_crash_loses_unflushed_state_but_not_flushed():
    sched = Scheduler()
    runtime = build_runtime(sched, silos=2)
    runtime.register_actors([Durable, Volatile])
    from repro.runtime import ActorKey

    runtime.pinned_placement.pin(ActorKey("Durable", "d"), "silo-0")
    runtime.pinned_placement.pin(ActorKey("Volatile", "v"), "silo-0")

    async def main():
        await runtime.ref("Durable", "d").put(42)     # flushed (write-through)
        await runtime.ref("Volatile", "v").put(42)    # in memory only
        lost = runtime.crash_silo("silo-0")
        durable = await runtime.ref("Durable", "d").get()
        volatile = await runtime.ref("Volatile", "v").get()
        return lost, durable, volatile

    lost, durable, volatile = sched.run_until_complete(main())
    assert lost == 2
    assert durable == 42      # survived: state was persisted before the crash
    assert volatile is None   # lost: crash skips on_deactivate flushing
    assert runtime.stats.activations_crashed == 2


def test_crash_fails_queued_requests_loudly():
    sched = Scheduler()
    runtime = build_runtime(sched, silos=1)

    class Slow(Actor):
        async def slow(self):
            await self.context.runtime.scheduler.sleep(100)
            return "done"

    runtime.register_actor(Slow)

    async def main():
        ref = runtime.ref("Slow", "s")
        first = ref.ask("slow")
        await sched.sleep(1)
        queued = ref.ask("slow")
        await sched.sleep(1)
        runtime.crash_silo("silo-0")
        outcomes = []
        for future in (queued,):
            try:
                outcomes.append(await future)
            except SiloUnavailableError:
                outcomes.append("failed")
        return outcomes

    assert sched.run_until_complete(main()) == ["failed"]


def test_crashed_actors_replace_on_surviving_silos():
    sched = Scheduler()
    runtime = build_runtime(sched, silos=2)
    runtime.register_actor(Durable)
    from repro.runtime import ActorKey

    runtime.pinned_placement.pin(ActorKey("Durable", "d"), "silo-0")

    async def main():
        await runtime.ref("Durable", "d").put(7)
        runtime.crash_silo("silo-0")
        value = await runtime.ref("Durable", "d").get()
        key = ActorKey("Durable", "d")
        return value, runtime.directory.lookup(key)

    value, host = sched.run_until_complete(main())
    assert value == 7
    assert host == "silo-1"


def test_crash_unknown_silo_raises():
    sched = Scheduler()
    runtime = build_runtime(sched)
    with pytest.raises(SiloUnavailableError):
        runtime.crash_silo("ghost")
    sched.stop()  # never run: close the silo's queued heartbeat loop
