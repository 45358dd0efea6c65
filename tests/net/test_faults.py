"""Chaos network faults: loss, duplication, extra delay, time windows."""

import random

import pytest

from repro.kernel import RngRegistry, Scheduler
from repro.net import ConstantLatency, Network, NetworkFaultInjector
from repro.runtime import Actor, AodbRuntime, RuntimeConfig


@pytest.fixture
def net(sched):
    network = Network(
        sched,
        rng=RngRegistry(1),
        loopback=ConstantLatency(0.0),
        lan=ConstantLatency(0.001),
    )
    network.register("silo-a")
    network.register("silo-b")
    return network


def test_injector_validates_rates():
    rng = random.Random(0)
    with pytest.raises(ValueError):
        NetworkFaultInjector(rng, loss_rate=1.5)
    with pytest.raises(ValueError):
        NetworkFaultInjector(rng, duplication_rate=-0.1)
    with pytest.raises(ValueError):
        NetworkFaultInjector(rng, extra_delay=-1.0)


def test_loss_parks_the_transfer_forever(net):
    net.inject_faults(NetworkFaultInjector(random.Random(0), loss_rate=1.0))
    # A lost message is silence, not an error: no arrival to schedule, so
    # only a caller-side deadline ever sees it.
    assert net.plan_envelope("silo-a", "silo-b", 1) is None
    assert net.stats.lost_messages == 1
    assert net.stats.messages == 0
    assert net.faults.injected_losses == 1


def test_fault_window_bounds_the_chaos(sched, net):
    net.inject_faults(
        NetworkFaultInjector(random.Random(0), loss_rate=1.0, start=5.0, end=10.0)
    )

    async def main():
        before = net.plan_envelope("silo-a", "silo-b", 1)  # clean
        await sched.at(12.0)
        after = net.plan_envelope("silo-a", "silo-b", 1)  # clean again
        return before, after

    assert None not in sched.run_until_complete(main())
    assert net.stats.lost_messages == 0


def test_protected_endpoints_are_never_faulted(net):
    net.inject_faults(
        NetworkFaultInjector(
            random.Random(0), loss_rate=1.0, protected={"silo-b"}
        )
    )
    assert net.plan_envelope("silo-a", "silo-b", 1) is not None
    assert net.stats.lost_messages == 0


def test_extra_delay_slows_transfers(net):
    net.inject_faults(
        NetworkFaultInjector(random.Random(0), extra_delay=0.25)
    )
    assert net.plan_envelope("silo-a", "silo-b", 1) == pytest.approx(0.251)


def test_duplicated_one_way_executes_twice():
    # End to end: a duplicated tell runs the handler twice — the
    # at-least-once hazard the chaos harness is designed to surface.
    sched = Scheduler()
    runtime = AodbRuntime(
        sched,
        config=RuntimeConfig(default_method_cost=0.0, activation_cost=0.0),
        network=Network(sched, lan=ConstantLatency(0.001)),
    )
    runtime.add_silo("silo-0", cores=2)
    runtime.network.inject_faults(
        NetworkFaultInjector(random.Random(0), duplication_rate=1.0)
    )

    class Counter(Actor):
        hits = 0

        async def bump(self):
            type(self).hits += 1

    runtime.register_actor(Counter)
    Counter.hits = 0

    async def main():
        runtime.ref("Counter", "c").tell("bump")
        await sched.sleep(1.0)

    sched.run_until_complete(main())
    assert Counter.hits == 2
    assert runtime.network.stats.duplicated_messages >= 1


def test_duplicated_ask_reply_is_deduplicated():
    sched = Scheduler()
    runtime = AodbRuntime(
        sched,
        config=RuntimeConfig(default_method_cost=0.0, activation_cost=0.0),
        network=Network(sched, lan=ConstantLatency(0.001)),
    )
    runtime.add_silo("silo-0", cores=2)
    runtime.network.inject_faults(
        NetworkFaultInjector(random.Random(0), duplication_rate=1.0)
    )

    class Echo(Actor):
        calls = 0

        async def ping(self):
            type(self).calls += 1
            return "pong"

    runtime.register_actor(Echo)
    Echo.calls = 0

    async def main():
        result = await runtime.ref("Echo", "e").ping()
        await sched.sleep(0.1)  # let the duplicate execute
        return result

    # The caller sees exactly one answer even though the method ran twice.
    assert sched.run_until_complete(main()) == "pong"
    assert Echo.calls == 2
