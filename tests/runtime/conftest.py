"""Shared fixtures for runtime tests."""

import pytest

from repro.runtime import AodbRuntime, RuntimeConfig


@pytest.fixture
def runtime(sched):
    """A one-silo runtime with near-zero costs for functional tests."""
    config = RuntimeConfig(
        default_method_cost=0.0,
        activation_cost=0.0,
        idle_timeout=100.0,
        collection_interval=10.0,
    )
    rt = AodbRuntime(sched, config=config)
    rt.add_silo("silo-1", cores=2)
    return rt


@pytest.fixture
def two_silo_runtime(sched):
    config = RuntimeConfig(
        default_method_cost=0.0, activation_cost=0.0
    )
    rt = AodbRuntime(sched, config=config)
    rt.add_silo("silo-1", cores=2)
    rt.add_silo("silo-2", cores=2)
    return rt
