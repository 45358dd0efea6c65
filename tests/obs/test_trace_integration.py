"""Acceptance: a traced run reconstructs complete causal trees.

This is the ISSUE's acceptance criterion in executable form: a Fig 6-style
traced run yields the full caller→callee tree for (a) an insert wave and
(b) an organization live-data fan-out, with every span's queue/CPU/network/
storage breakdown summing to its end-to-end latency.
"""

import pytest

from repro.bench.tracebench import check_invariants, check_trace, run_scenario

SENSORS = 4


@pytest.fixture(scope="module")
def scenario():
    return run_scenario(sensors=SENSORS)


def test_insert_wave_tree_is_complete(scenario):
    tree = scenario.insert_tree
    assert tree.root.kind == "client"
    assert tree.root.name == "insert-wave"
    # One ingest ask per sensor hangs directly under the client root...
    sensor_asks = tree.children(tree.root)
    assert len(sensor_asks) == SENSORS
    # ...and each fans out to both physical channels of the sensor.
    for ask in sensor_asks:
        assert ask.kind == "ask"
        channel_asks = [
            child for child in tree.children(ask) if child.kind == "ask"
        ]
        assert len(channel_asks) == 2
    assert check_invariants(tree) == []


def test_live_data_tree_reconstructs_the_fanout(scenario):
    tree = scenario.live_tree
    assert tree.root.kind == "client"
    (org_ask,) = tree.children(tree.root)
    assert "Organization/" in org_ask.name
    assert org_ask.name.endswith(".live_data")
    # The org fans out one `.latest` ask per channel of the tenant.
    fanout = tree.children(org_ask)
    assert len(fanout) >= 2 * SENSORS  # at least the physical channels
    assert all(child.name.endswith(".latest") for child in fanout)
    assert check_invariants(tree) == []


def test_breakdown_sums_to_end_to_end_latency(scenario):
    assert check_trace(scenario) == []  # what `bench trace` itself asserts
    for tree in (scenario.insert_tree, scenario.live_tree):
        assert tree.root.duration > 0.0
        for _depth, span in tree.walk():
            assert span.end is not None, f"{span.name} never finished"
            parts = span.breakdown()
            for component in ("queue", "cpu", "network", "storage"):
                assert parts[component] >= 0.0, (
                    f"{span.name}: negative {component}"
                )
            assert sum(parts.values()) == pytest.approx(span.duration), (
                f"{span.name}: breakdown does not sum to latency"
            )


def test_critical_path_explains_the_root_latency(scenario):
    tree = scenario.live_tree
    path = tree.critical_path()
    assert path[0] is tree.root
    assert len(path) >= 3  # client -> org -> channel
    # At every level the path follows the child the parent actually waited
    # for: the latest finisher among its siblings.
    for parent, chosen in zip(path, path[1:]):
        siblings = [c for c in tree.children(parent) if c.end is not None]
        assert chosen.end == max(s.end for s in siblings)


def test_run_metrics_accompany_the_trace(scenario):
    totals = scenario.metrics
    assert totals["runtime.asks"] > 0
    assert totals["net.messages"] > 0
    assert totals["runtime.activations_created"] > 0
