"""Unit tests for the simulated network."""

import pytest

from repro.kernel import RngRegistry
from repro.net import ConstantLatency, Network


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


def test_loopback_is_free(net):
    assert net.plan_envelope("silo-a", "silo-a", 1) == 0.0
    assert net.stats.loopback_messages == 1
    assert net.stats.remote_messages == 0


def test_remote_transfer_charges_lan_latency(net):
    assert net.plan_envelope("silo-a", "silo-b", 1) == pytest.approx(0.001)
    assert net.stats.remote_messages == 1
    assert net.stats.total_latency == pytest.approx(0.001)


def test_unknown_endpoints_rejected(net):
    with pytest.raises(KeyError):
        net.plan_envelope("silo-a", "nowhere", 1)
    with pytest.raises(KeyError):
        net.plan_envelope("nowhere", "silo-a", 1)
    assert net.stats.messages == 0


def test_unregister_removes_endpoint(net):
    net.unregister("silo-b")
    assert not net.knows("silo-b")
    with pytest.raises(KeyError):
        net.plan_envelope("silo-a", "silo-b", 1)


def test_per_path_override(net):
    net.set_path_latency("silo-a", "silo-b", ConstantLatency(0.5))
    assert net.plan_envelope("silo-a", "silo-b", 1) == pytest.approx(0.5)
    # The override is directional.
    assert net.plan_envelope("silo-b", "silo-a", 1) == pytest.approx(0.001)


def test_stats_count_per_endpoint(net):
    net.plan_envelope("silo-a", "silo-b", 1)
    net.plan_envelope("silo-a", "silo-b", 1)
    net.plan_envelope("silo-b", "silo-a", 1)
    assert net.stats.per_endpoint_sent == {"silo-a": 2, "silo-b": 1}
    assert net.stats.messages == 3
    assert net.stats.envelopes == 3


def test_envelope_counts_every_message_aboard(net):
    assert net.plan_envelope("silo-a", "silo-b", 4) == pytest.approx(0.001)
    assert net.stats.messages == 4
    assert net.stats.envelopes == 1
    assert net.stats.batched_messages == 4
    assert net.stats.largest_envelope == 4
    # One latency sample for the whole envelope, charged per message.
    assert net.stats.total_latency == pytest.approx(0.004)


def test_planning_schedules_nothing(sched, net):
    # The network only plans: the caller schedules the arrival.
    net.plan_envelope("silo-a", "silo-b", 1)
    assert sched.pending_events == 0
