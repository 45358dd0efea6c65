"""Trace-graph assembly for the beef supply chain.

Consumers "wish to get tracing information about meat products over the
whole supply chain" (requirement 6).  This module assembles a product's
provenance into a :class:`ProvenanceGraph` — farm → cow → cut → delivery →
product — which applications can render or query (paths, ancestors, dwell
times).  The graph is a few dicts on the standard library: a provenance
trace has tens of nodes, and ``src/`` imports nothing outside the stdlib.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover
    from ..aodb.database import AodbDatabase


class ProvenanceGraph:
    """A directed graph whose nodes and edges carry attribute dicts.

    ``nodes`` maps each node to its attributes and ``edges`` each
    ``(source, target)`` pair to the edge's, both in insertion order.
    Adding a node or edge that exists merges the new attributes in; an edge
    adds its endpoints as bare nodes if they are new.
    """

    def __init__(self) -> None:
        self.nodes: dict[str, dict[str, Any]] = {}
        self.edges: dict[tuple[str, str], dict[str, Any]] = {}
        self._successors: dict[str, list[str]] = {}
        self._predecessors: dict[str, list[str]] = {}

    def add_node(self, node: str, **attributes: Any) -> None:
        """Add ``node`` (or update its attributes)."""
        if node not in self.nodes:
            self.nodes[node] = {}
            self._successors[node] = []
            self._predecessors[node] = []
        self.nodes[node].update(attributes)

    def add_edge(self, source: str, target: str, **attributes: Any) -> None:
        """Add the edge ``source → target`` (or update its attributes)."""
        edge = (source, target)
        if edge not in self.edges:
            self.add_node(source)
            self.add_node(target)
            self.edges[edge] = {}
            self._successors[source].append(target)
            self._predecessors[target].append(source)
        self.edges[edge].update(attributes)

    def has_node(self, node: str) -> bool:
        """Whether ``node`` is in the graph."""
        return node in self.nodes

    def ancestors(self, node: str) -> set[str]:
        """Every node with a path to ``node`` (``node`` itself excluded)."""
        seen: set[str] = set()
        frontier = [node]
        while frontier:
            for parent in self._predecessors[frontier.pop()]:
                if parent not in seen:
                    seen.add(parent)
                    frontier.append(parent)
        seen.discard(node)
        return seen

    def shortest_path(self, source: str, target: str) -> list[str]:
        """The nodes of one shortest ``source → target`` path (BFS).

        Raises :class:`LookupError` when ``target`` is unreachable.
        """
        parents: dict[str, str | None] = {source: None}
        frontier = deque([source])
        while frontier:
            node = frontier.popleft()
            if node == target:
                path = []
                step: str | None = node
                while step is not None:
                    path.append(step)
                    step = parents[step]
                return path[::-1]
            for child in self._successors[node]:
                if child not in parents:
                    parents[child] = node
                    frontier.append(child)
        raise LookupError(f"no path from {source!r} to {target!r}")


async def build_product_trace_graph(
    database: "AodbDatabase", product_id: str
) -> ProvenanceGraph:
    """Assemble the full provenance graph of one meat product (model A).

    Nodes carry a ``kind`` attribute (farmer, cow, slaughterhouse, cut,
    product); edges a ``relation`` (owned, slaughtered_into, derived,
    composed_into) and, where known, a ``timestamp``.
    """
    graph = ProvenanceGraph()
    product = database.ref("MeatProduct", product_id)
    trace = await product.trace()
    graph.add_node(
        product_id,
        kind="product",
        product_kind=trace["product_kind"],
        sold_at=trace["sold_at"],
    )
    retailer_id = trace["retailer_id"]
    graph.add_node(retailer_id, kind="retailer")
    graph.add_edge(retailer_id, product_id, relation="produced")
    for cut in trace["cuts"]:
        cut_id = cut["cut_id"]
        graph.add_node(cut_id, kind="cut", cut_kind=cut.get("cut_kind"))
        graph.add_edge(cut_id, product_id, relation="composed_into")
        slaughterhouse_id = cut["slaughterhouse_id"]
        graph.add_node(slaughterhouse_id, kind="slaughterhouse")
        graph.add_edge(slaughterhouse_id, cut_id, relation="derived")
        for leg in cut.get("itinerary", ()):
            if leg["kind"] == "delivery_start":
                delivery_id = leg["details"].get("delivery_id")
                if delivery_id:
                    graph.add_node(delivery_id, kind="delivery")
                    graph.add_edge(
                        cut_id,
                        delivery_id,
                        relation="transported_by",
                        timestamp=leg["timestamp"],
                    )
        cow_id = cut["cow_id"]
        if cow_id is not None and not graph.has_node(cow_id):
            graph.add_node(cow_id, kind="cow")
            history = await database.ref("Cow", cow_id).history()
            for event in history:
                if event["kind"] == "birth":
                    farmer_id = event["actor"]
                    graph.add_node(farmer_id, kind="farmer")
                    graph.add_edge(
                        farmer_id,
                        cow_id,
                        relation="owned",
                        timestamp=event["timestamp"],
                    )
                elif event["kind"] == "transfer":
                    farmer_id = event["actor"]
                    graph.add_node(farmer_id, kind="farmer")
                    graph.add_edge(
                        farmer_id,
                        cow_id,
                        relation="owned",
                        timestamp=event["timestamp"],
                    )
        if cow_id is not None:
            graph.add_edge(cow_id, cut_id, relation="slaughtered_into")
    return graph


def origin_farms(graph: ProvenanceGraph, product_id: str) -> list[str]:
    """Every farm that ever owned an animal behind this product."""
    ancestors = graph.ancestors(product_id)
    return sorted(
        node for node in ancestors if graph.nodes[node].get("kind") == "farmer"
    )


def chain_path(graph: ProvenanceGraph, product_id: str, cow_id: str) -> list[str]:
    """One provenance path from a cow to the product (for display)."""
    return graph.shortest_path(cow_id, product_id)


def summarize_trace(graph: ProvenanceGraph, product_id: str) -> dict:
    """Counts by node kind plus the origin farms — the consumer summary."""
    provenance = graph.ancestors(product_id) | {product_id}
    kinds: dict[str, int] = {}
    for node, attributes in graph.nodes.items():  # insertion order: stable
        if node in provenance:
            kind = attributes.get("kind", "unknown")
            kinds[kind] = kinds.get(kind, 0) + 1
    return {
        "product_id": product_id,
        "entities": kinds,
        "origin_farms": origin_farms(graph, product_id),
    }
