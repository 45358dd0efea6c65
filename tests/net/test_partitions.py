"""PartitionInjector: scripted bidirectional netsplits with heal times."""

import pytest

from repro.kernel import RngRegistry, Scheduler
from repro.net import ConstantLatency, Network, PartitionInjector


@pytest.fixture
def sched():
    return Scheduler()


@pytest.fixture
def net(sched):
    network = Network(
        sched,
        rng=RngRegistry(1),
        loopback=ConstantLatency(0.0),
        lan=ConstantLatency(0.001),
    )
    for endpoint in ("silo-a", "silo-b", "silo-c"):
        network.register(endpoint)
    return network


def test_injector_validates_scenarios():
    with pytest.raises(ValueError):
        PartitionInjector([([{"a"}, {"b"}], 5.0, 4.0)])  # ends before start
    with pytest.raises(ValueError):
        PartitionInjector([([{"a", "b"}], 0.0, 1.0)])  # single group


def test_blocks_only_across_groups_inside_the_window():
    injector = PartitionInjector([([{"a", "b"}, {"c"}], 2.0, 5.0)])
    # Outside the window nothing is blocked.
    assert not injector.blocks("a", "c", 1.0)
    assert not injector.blocks("a", "c", 5.0)
    # Inside: cross-group blocked both directions, same-group clean.
    assert injector.blocks("a", "c", 2.0)
    assert injector.blocks("c", "b", 3.0)
    assert not injector.blocks("a", "b", 3.0)
    # Endpoints not named by any group are unaffected.
    assert not injector.blocks("client", "c", 3.0)
    assert injector.heals_at() == 5.0


def test_partitioned_transfer_is_silence_not_error(net):
    net.inject_partitions(
        PartitionInjector([([{"silo-a"}, {"silo-b"}], 0.0, 10.0)])
    )
    # Like a lost message: no delay to schedule, and no error either.
    assert net.plan_envelope("silo-a", "silo-b", 1) is None
    # Same-side traffic keeps flowing.
    assert net.plan_envelope("silo-a", "silo-c", 1) == pytest.approx(0.001)
    assert net.stats.partitioned_messages == 1
    assert net.stats.lost_messages == 1
    assert net.partitions.blocked_messages == 1


def test_partition_heals_on_schedule(sched, net):
    net.inject_partitions(
        PartitionInjector([([{"silo-a"}, {"silo-b"}], 0.0, 2.0)])
    )

    async def main():
        await sched.at(3.0)
        return net.plan_envelope("silo-a", "silo-b", 1)

    assert sched.run_until_complete(main()) == pytest.approx(0.001)
    assert net.stats.partitioned_messages == 0


def test_sequential_scenarios_apply_in_turn(sched, net):
    injector = PartitionInjector(
        [
            ([{"silo-a"}, {"silo-b"}], 0.0, 2.0),
            ([{"silo-a"}, {"silo-c"}], 4.0, 6.0),
        ]
    )
    assert injector.blocks("silo-a", "silo-b", 1.0)
    assert not injector.blocks("silo-a", "silo-c", 1.0)
    assert not injector.blocks("silo-a", "silo-b", 5.0)
    assert injector.blocks("silo-a", "silo-c", 5.0)
