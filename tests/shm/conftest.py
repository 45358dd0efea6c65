"""Shared fixtures for SHM platform tests."""

import pytest

from repro.aodb import AodbDatabase
from repro.net import ConstantLatency, Network
from repro.runtime import AodbRuntime, RuntimeConfig
from repro.shm import ShmPlatform


@pytest.fixture
def platform(sched):
    """A one-silo SHM platform with zero costs, aggregation on."""
    config = RuntimeConfig(default_method_cost=0.0, activation_cost=0.0)
    network = Network(sched, lan=ConstantLatency(0.0))
    runtime = AodbRuntime(sched, config=config, network=network)
    runtime.add_silo("silo-1", cores=4)
    db = AodbDatabase(runtime)
    return ShmPlatform(db)


def points_for(channel_index, start, count=10, dt=0.1, base=0.0):
    """Synthesize `count` readings starting at `start`."""
    return [
        (start + i * dt, base + channel_index + i * 0.01) for i in range(count)
    ]
