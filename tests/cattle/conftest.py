"""Shared fixtures for cattle platform tests."""

import pytest

from repro.aodb import AodbDatabase
from repro.cattle import CattlePlatform
from repro.net import ConstantLatency, Network
from repro.runtime import AodbRuntime, RuntimeConfig


@pytest.fixture
def platform(sched):
    config = RuntimeConfig(default_method_cost=0.0, activation_cost=0.0)
    network = Network(sched, lan=ConstantLatency(0.0))
    runtime = AodbRuntime(sched, config=config, network=network)
    runtime.add_silo("silo-1", cores=4)
    db = AodbDatabase(runtime)
    return CattlePlatform(db)


async def seed_chain(platform):
    """A small complete chain: 1 farmer, 2 cows, full downstream parties."""
    await platform.register_farmer("farm-1", "Jensen Farm")
    await platform.register_cow("cow-1", "farm-1", born_at=0.0)
    await platform.register_cow("cow-2", "farm-1", born_at=1.0)
    await platform.register_slaughterhouse("sh-1", "Danish Crown")
    await platform.register_distributor("dist-1", "Nordic Logistics")
    await platform.register_retailer("ret-1", "SuperMart")
