"""Shared fixtures for AODB feature tests."""

import pytest

from repro.aodb import AodbDatabase
from repro.net import ConstantLatency, Network
from repro.runtime import AodbRuntime, RuntimeConfig


@pytest.fixture
def db(sched):
    config = RuntimeConfig(default_method_cost=0.0, activation_cost=0.0)
    network = Network(sched, lan=ConstantLatency(0.0))
    runtime = AodbRuntime(sched, config=config, network=network)
    runtime.add_silo("s1", cores=2)
    return AodbDatabase(runtime)
