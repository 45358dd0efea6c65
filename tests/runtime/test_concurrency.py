"""Turn-based execution, reentrancy, CPU cost charging and queueing."""

import pytest

from repro.net import ConstantLatency, Network
from repro.runtime import Actor, AodbRuntime, RuntimeConfig, actor_method


def quiet_runtime(sched, **config_kwargs):
    """A runtime with a zero-latency network, for exact timing assertions."""
    config = RuntimeConfig(**config_kwargs)
    network = Network(sched, lan=ConstantLatency(0.0))
    return AodbRuntime(sched, config=config, network=network)


class SlowActor(Actor):
    """Methods that take virtual time, to observe interleaving."""

    def __init__(self, context):
        super().__init__(context)
        self.trace = []

    async def slow(self, name, duration):
        self.trace.append(("start", name, self.context.now))
        await self.context.runtime.scheduler.sleep(duration)
        self.trace.append(("end", name, self.context.now))
        return name

    async def get_trace(self):
        return self.trace


class ReentrantActor(SlowActor):
    reentrant = True


def test_non_reentrant_actor_processes_one_message_at_a_time(sched, runtime):
    runtime.register_actor(SlowActor)

    async def main():
        ref = runtime.ref("SlowActor", "s")
        futures = [ref.ask("slow", "a", 1.0), ref.ask("slow", "b", 1.0)]
        await sched.gather(futures)
        return await ref.get_trace()

    trace = sched.run_until_complete(main())
    # b must start only after a ended.
    labels = [(kind, name) for kind, name, _ in trace]
    assert labels == [("start", "a"), ("end", "a"), ("start", "b"), ("end", "b")]


def test_reentrant_actor_interleaves_messages(sched, runtime):
    runtime.register_actor(ReentrantActor)

    async def main():
        ref = runtime.ref("ReentrantActor", "r")
        futures = [ref.ask("slow", "a", 2.0), ref.ask("slow", "b", 1.0)]
        await sched.gather(futures)
        return await ref.get_trace()

    trace = sched.run_until_complete(main())
    labels = [(kind, name) for kind, name, _ in trace]
    # b starts while a is sleeping, and finishes first.
    assert labels == [("start", "a"), ("start", "b"), ("end", "b"), ("end", "a")]


def test_cpu_cost_serializes_on_single_core(sched):
    config = RuntimeConfig(default_method_cost=0.1, activation_cost=0.0)
    runtime = AodbRuntime(sched, config=config)
    runtime.add_silo("s1", cores=1)

    class Worker(Actor):
        async def work(self):
            return self.context.now

    runtime.register_actor(Worker)

    async def main():
        # Two different actors on the same silo contend for one core.
        a = runtime.ref("Worker", "a")
        b = runtime.ref("Worker", "b")
        return await sched.gather([a.ask("work"), b.ask("work")])

    finish_a, finish_b = sched.run_until_complete(main())
    # Each method costs 0.1 core-seconds; the second waited for the first.
    assert finish_b - finish_a == pytest.approx(0.1)


def test_method_cost_override_via_decorator(sched):
    runtime = quiet_runtime(sched, default_method_cost=0.0, activation_cost=0.0)
    runtime.add_silo("s1", cores=1)

    class Mixed(Actor):
        @actor_method(cost=0.5)
        async def expensive(self):
            return self.context.now

        async def cheap(self):
            return self.context.now

    runtime.register_actor(Mixed)

    async def main():
        ref = runtime.ref("Mixed", "m")
        expensive_done = await ref.expensive()
        cheap_done = await ref.cheap()
        return expensive_done, cheap_done

    expensive_done, cheap_done = sched.run_until_complete(main())
    assert expensive_done == pytest.approx(0.5)
    assert cheap_done == pytest.approx(0.5)  # zero-cost, right after


def test_class_default_method_cost(sched):
    runtime = quiet_runtime(sched, default_method_cost=0.0, activation_cost=0.0)
    runtime.add_silo("s1", cores=1)

    class Costly(Actor):
        default_method_cost = 0.25

        async def run(self):
            return self.context.now

    runtime.register_actor(Costly)

    async def main():
        return await runtime.ref("Costly", "c").run()

    assert sched.run_until_complete(main()) == pytest.approx(0.25)


def test_activation_cost_charged_once(sched):
    runtime = quiet_runtime(sched, default_method_cost=0.0, activation_cost=0.2)
    runtime.add_silo("s1", cores=1)

    class Plain(Actor):
        async def ping(self):
            return self.context.now

    runtime.register_actor(Plain)

    async def main():
        ref = runtime.ref("Plain", "p")
        first = await ref.ping()
        second = await ref.ping()
        return first, second

    first, second = sched.run_until_complete(main())
    assert first == pytest.approx(0.2)
    assert second == pytest.approx(first)  # no re-activation


def test_wave_of_requests_queues_on_cpu(sched):
    """A synchronized wave drains through cores FCFS — the paper's dynamics."""
    config = RuntimeConfig(default_method_cost=0.01, activation_cost=0.0)
    runtime = AodbRuntime(sched, config=config)
    runtime.add_silo("s1", cores=2)

    class Sink(Actor):
        async def ingest(self):
            return self.context.now

    runtime.register_actor(Sink)

    async def main():
        futures = [
            runtime.ref("Sink", f"a{i}").ask("ingest") for i in range(20)
        ]
        return await sched.gather(futures)

    finish_times = sched.run_until_complete(main())
    # 20 jobs x 0.01s over 2 cores => last completes at ~0.1s.
    assert max(finish_times) == pytest.approx(0.1, rel=0.05)


def test_mailbox_capacity_overflow_fails_ask(sched):
    config = RuntimeConfig(default_method_cost=0.0, activation_cost=0.0)
    runtime = AodbRuntime(sched, config=config)
    runtime.add_silo("s1", cores=1)

    class Tiny(Actor):
        mailbox_capacity = 1

        async def busy(self, duration):
            await self.context.runtime.scheduler.sleep(duration)
            return "ok"

    runtime.register_actor(Tiny)

    async def main():
        ref = runtime.ref("Tiny", "t")
        first = ref.ask("busy", 10.0)   # executing
        second = ref.ask("busy", 0.0)   # buffered (1 slot)
        third = ref.ask("busy", 0.0)    # overflow
        results = []
        for fut in (first, second, third):
            try:
                results.append(await fut)
            except Exception as exc:  # noqa: BLE001
                results.append(type(exc).__name__)
        return results

    results = sched.run_until_complete(main())
    assert results == ["ok", "ok", "MailboxOverflowError"]
    assert runtime.stats.dropped_messages == 1
