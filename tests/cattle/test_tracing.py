"""The stdlib provenance graph behind the consumer trace."""

import pytest

from repro.cattle import ProvenanceGraph, chain_path, origin_farms, summarize_trace


def farm_to_fork():
    graph = ProvenanceGraph()
    graph.add_node("prod", kind="product")
    graph.add_edge("cut-1", "prod", relation="composed_into")
    graph.add_edge("cut-2", "prod", relation="composed_into")
    graph.add_edge("cow", "cut-1", relation="slaughtered_into")
    graph.add_edge("cow", "cut-2", relation="slaughtered_into")
    graph.add_edge("farm-b", "cow", relation="owned", timestamp=2.0)
    graph.add_edge("farm-a", "cow", relation="owned", timestamp=1.0)
    graph.add_edge("cut-1", "truck", relation="transported_by")
    for node, kind in [("cut-1", "cut"), ("cut-2", "cut"), ("cow", "cow")]:
        graph.add_node(node, kind=kind)
    graph.add_node("farm-a", kind="farmer")
    graph.add_node("farm-b", kind="farmer")
    return graph


def test_nodes_and_edges_merge_attributes():
    graph = farm_to_fork()
    graph.add_node("cow", breed="angus")
    graph.add_edge("farm-a", "cow", certified=True)
    assert graph.nodes["cow"] == {"kind": "cow", "breed": "angus"}
    assert graph.edges[("farm-a", "cow")] == {
        "relation": "owned",
        "timestamp": 1.0,
        "certified": True,
    }
    assert graph.has_node("truck") and graph.nodes["truck"] == {}
    assert not graph.has_node("nowhere")


def test_ancestors_follow_edges_backwards():
    graph = farm_to_fork()
    assert graph.ancestors("prod") == {"cut-1", "cut-2", "cow", "farm-a", "farm-b"}
    assert graph.ancestors("truck") == {"cut-1", "cow", "farm-a", "farm-b"}
    assert graph.ancestors("farm-a") == set()
    assert origin_farms(graph, "prod") == ["farm-a", "farm-b"]


def test_shortest_path_is_breadth_first():
    graph = farm_to_fork()
    assert chain_path(graph, "prod", "cow") == ["cow", "cut-1", "prod"]
    assert graph.shortest_path("farm-b", "truck") == ["farm-b", "cow", "cut-1", "truck"]
    assert graph.shortest_path("prod", "prod") == ["prod"]
    with pytest.raises(LookupError):
        graph.shortest_path("prod", "cow")


def test_summary_counts_in_insertion_order():
    summary = summarize_trace(farm_to_fork(), "prod")
    assert list(summary["entities"].items()) == [
        ("product", 1),
        ("cut", 2),
        ("cow", 1),
        ("farmer", 2),
    ]
    assert summary["origin_farms"] == ["farm-a", "farm-b"]
