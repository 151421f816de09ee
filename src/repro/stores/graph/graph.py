"""Property-graph storage for the graph engine."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.exceptions import StorageError


@dataclass
class Node:
    """A labelled vertex with arbitrary properties."""

    node_id: str
    label: str
    properties: dict[str, Any] = field(default_factory=dict)


@dataclass
class Edge:
    """A directed, labelled edge with arbitrary properties."""

    source: str
    target: str
    label: str
    properties: dict[str, Any] = field(default_factory=dict)

    @property
    def weight(self) -> float:
        """Edge weight used by weighted path finding (defaults to 1.0)."""
        return float(self.properties.get("weight", 1.0))


class PropertyGraph:
    """Adjacency-indexed property graph.

    Nodes are indexed by id and by label; edges are indexed by source and by
    target so that neighbourhood expansion in either direction is O(degree).
    """

    def __init__(self) -> None:
        self._nodes: dict[str, Node] = {}
        self._nodes_by_label: dict[str, set[str]] = {}
        self._outgoing: dict[str, list[Edge]] = {}
        self._incoming: dict[str, list[Edge]] = {}
        self._num_edges = 0

    # -- mutation ---------------------------------------------------------------

    def add_node(self, node_id: str, label: str, properties: dict[str, Any] | None = None,
                 *, replace: bool = False) -> Node:
        """Add a node; re-adding an existing id requires ``replace=True``."""
        if node_id in self._nodes and not replace:
            raise StorageError(f"node {node_id!r} already exists")
        node = Node(node_id, label, dict(properties or {}))
        if node_id in self._nodes:
            old_label = self._nodes[node_id].label
            self._nodes_by_label[old_label].discard(node_id)
        self._nodes[node_id] = node
        self._nodes_by_label.setdefault(label, set()).add(node_id)
        self._outgoing.setdefault(node_id, [])
        self._incoming.setdefault(node_id, [])
        return node

    def add_edge(self, source: str, target: str, label: str,
                 properties: dict[str, Any] | None = None) -> Edge:
        """Add a directed edge; both endpoints must exist."""
        for endpoint in (source, target):
            if endpoint not in self._nodes:
                raise StorageError(f"node {endpoint!r} does not exist")
        edge = Edge(source, target, label, dict(properties or {}))
        self._outgoing[source].append(edge)
        self._incoming[target].append(edge)
        self._num_edges += 1
        return edge

    # -- access ------------------------------------------------------------------

    def node(self, node_id: str) -> Node:
        """The node with the given id."""
        try:
            return self._nodes[node_id]
        except KeyError as exc:
            raise StorageError(f"node {node_id!r} does not exist") from exc

    def has_node(self, node_id: str) -> bool:
        """Whether a node exists."""
        return node_id in self._nodes

    def nodes(self, label: str | None = None) -> Iterator[Node]:
        """All nodes, optionally restricted to one label."""
        if label is None:
            yield from self._nodes.values()
            return
        for node_id in sorted(self._nodes_by_label.get(label, ())):
            yield self._nodes[node_id]

    def edges(self, label: str | None = None) -> Iterator[Edge]:
        """All edges, optionally restricted to one label."""
        for adjacency in self._outgoing.values():
            for edge in adjacency:
                if label is None or edge.label == label:
                    yield edge

    def outgoing(self, node_id: str, label: str | None = None) -> list[Edge]:
        """Outgoing edges of a node, optionally filtered by label."""
        edges = self._outgoing.get(node_id, [])
        if label is None:
            return list(edges)
        return [e for e in edges if e.label == label]

    def neighbors(self, node_id: str, label: str | None = None) -> list[str]:
        """Targets of outgoing edges from a node."""
        return [edge.target for edge in self.outgoing(node_id, label)]

    def degree(self, node_id: str) -> int:
        """Out-degree plus in-degree of a node."""
        return len(self._outgoing.get(node_id, [])) + len(self._incoming.get(node_id, []))

    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        """Number of edges."""
        return self._num_edges

    def labels(self) -> list[str]:
        """All node labels present in the graph."""
        return sorted(label for label, ids in self._nodes_by_label.items() if ids)
