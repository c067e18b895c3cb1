"""Directed-network substrate underlying every simulator and algorithm.

The paper's model (Section 1.1) treats the network as a directed graph whose
edges are *physical channels*.  Each physical channel multiplexes ``B``
virtual channels, and the buffer at the head of each edge holds up to ``B``
flits, each belonging to a different message.  This module provides the
topology-agnostic :class:`Network` container used by every topology builder,
path selector, and router simulator in the package.

Nodes carry arbitrary hashable labels (butterflies use ``(column, level)``
pairs, meshes use coordinate tuples, ...) but are represented internally by
dense integer ids so that hot simulator loops can index NumPy arrays
directly.  Edges are likewise dense integer ids into parallel ``tails`` /
``heads`` arrays.

Example
-------
>>> net = Network()
>>> a, b, c = net.add_nodes(["a", "b", "c"])
>>> e1 = net.add_edge(a, b)
>>> e2 = net.add_edge(b, c)
>>> net.num_nodes, net.num_edges
(3, 2)
>>> net.edge_between(a, b) == e1
True
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import NetworkError

__all__ = ["Network", "NetworkError", "EdgeView"]


@dataclass(frozen=True)
class EdgeView:
    """Immutable view of a single directed edge.

    Attributes
    ----------
    index:
        Dense edge id, stable for the lifetime of the network.
    tail, head:
        Node ids of the edge's endpoints; flits flow tail -> head and are
        buffered *at the head* of the edge per the paper's model.
    """

    index: int
    tail: int
    head: int


@dataclass
class Network:
    """A directed multigraph with dense integer node and edge ids.

    Parallel edges are permitted (a physical channel per direction is the
    common case; topology builders create one edge per direction for
    bidirectional links).  Self-loops are rejected: a flit never needs to
    cross a channel from a node to itself, and allowing them would let path
    validation accept degenerate routes.
    """

    name: str = "network"
    _labels: list[Hashable] = field(default_factory=list)
    _label_to_id: dict[Hashable, int] = field(default_factory=dict)
    _tails: list[int] = field(default_factory=list)
    _heads: list[int] = field(default_factory=list)
    _out: list[list[int]] = field(default_factory=list)
    _in: list[list[int]] = field(default_factory=list)
    _edge_lookup: dict[tuple[int, int], int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, label: Hashable | None = None) -> int:
        """Add one node and return its dense id.

        ``label`` defaults to the id itself.  Labels must be unique.
        """
        node_id = len(self._labels)
        if label is None:
            label = node_id
        if label in self._label_to_id:
            raise NetworkError(f"duplicate node label: {label!r}")
        self._labels.append(label)
        self._label_to_id[label] = node_id
        self._out.append([])
        self._in.append([])
        return node_id

    def add_nodes(self, labels: Iterable[Hashable]) -> list[int]:
        """Add several nodes at once; returns their ids in order."""
        return [self.add_node(label) for label in labels]

    def add_edge(self, tail: int, head: int) -> int:
        """Add a directed edge (physical channel) and return its edge id."""
        n = self.num_nodes
        if not (0 <= tail < n and 0 <= head < n):
            raise NetworkError(f"edge ({tail}, {head}) references unknown node")
        if tail == head:
            raise NetworkError(f"self-loop at node {tail} is not allowed")
        edge_id = len(self._tails)
        self._tails.append(tail)
        self._heads.append(head)
        self._out[tail].append(edge_id)
        self._in[head].append(edge_id)
        # Remember the *first* edge between a node pair for edge_between();
        # parallel edges remain addressable through out_edges().
        self._edge_lookup.setdefault((tail, head), edge_id)
        return edge_id

    def add_bidirectional_edge(self, u: int, v: int) -> tuple[int, int]:
        """Add a channel in each direction between ``u`` and ``v``."""
        return self.add_edge(u, v), self.add_edge(v, u)

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self._labels)

    @property
    def num_edges(self) -> int:
        return len(self._tails)

    def node_id(self, label: Hashable) -> int:
        """Dense id of the node carrying ``label``."""
        try:
            return self._label_to_id[label]
        except KeyError:
            raise NetworkError(f"no node labelled {label!r}") from None

    def label(self, node: int) -> Hashable:
        """Label of node id ``node``."""
        self._check_node(node)
        return self._labels[node]

    def has_label(self, label: Hashable) -> bool:
        return label in self._label_to_id

    def edge(self, edge_id: int) -> EdgeView:
        """Return an :class:`EdgeView` for ``edge_id``."""
        self._check_edge(edge_id)
        return EdgeView(edge_id, self._tails[edge_id], self._heads[edge_id])

    def tail(self, edge_id: int) -> int:
        self._check_edge(edge_id)
        return self._tails[edge_id]

    def head(self, edge_id: int) -> int:
        self._check_edge(edge_id)
        return self._heads[edge_id]

    def edge_between(self, tail: int, head: int) -> int | None:
        """First edge id from ``tail`` to ``head``, or ``None`` if absent."""
        return self._edge_lookup.get((tail, head))

    def out_edges(self, node: int) -> Sequence[int]:
        """Edge ids leaving ``node`` (insertion order)."""
        self._check_node(node)
        return tuple(self._out[node])

    def in_edges(self, node: int) -> Sequence[int]:
        """Edge ids entering ``node`` (insertion order)."""
        self._check_node(node)
        return tuple(self._in[node])

    def out_degree(self, node: int) -> int:
        self._check_node(node)
        return len(self._out[node])

    def in_degree(self, node: int) -> int:
        self._check_node(node)
        return len(self._in[node])

    def successors(self, node: int) -> list[int]:
        """Heads of edges leaving ``node`` (with multiplicity)."""
        self._check_node(node)
        return [self._heads[e] for e in self._out[node]]

    def predecessors(self, node: int) -> list[int]:
        """Tails of edges entering ``node`` (with multiplicity)."""
        self._check_node(node)
        return [self._tails[e] for e in self._in[node]]

    def iter_edges(self) -> Iterator[EdgeView]:
        for e in range(self.num_edges):
            yield EdgeView(e, self._tails[e], self._heads[e])

    def nodes(self) -> range:
        return range(self.num_nodes)

    def edges(self) -> range:
        return range(self.num_edges)

    # ------------------------------------------------------------------
    # array views for vectorized code
    # ------------------------------------------------------------------
    def tails_array(self) -> np.ndarray:
        """``int64`` array mapping edge id -> tail node id (a copy)."""
        return np.asarray(self._tails, dtype=np.int64)

    def heads_array(self) -> np.ndarray:
        """``int64`` array mapping edge id -> head node id (a copy)."""
        return np.asarray(self._heads, dtype=np.int64)

    # ------------------------------------------------------------------
    # structure analysis
    # ------------------------------------------------------------------
    def bfs_distances(self, source: int) -> np.ndarray:
        """Hop distance from ``source`` to every node (-1 = unreachable)."""
        self._check_node(source)
        dist = np.full(self.num_nodes, -1, dtype=np.int64)
        dist[source] = 0
        frontier = [source]
        while frontier:
            nxt: list[int] = []
            for u in frontier:
                du = dist[u]
                for e in self._out[u]:
                    v = self._heads[e]
                    if dist[v] < 0:
                        dist[v] = du + 1
                        nxt.append(v)
            frontier = nxt
        return dist

    def is_leveled(self) -> bool:
        """True iff nodes admit levels with every edge going level i -> i+1.

        The paper calls such networks *leveled* (Section 1.3.1); butterflies
        are the canonical example.  Equivalent to a consistent topological
        level assignment on a DAG where all edges span exactly one level.
        """
        return self.level_assignment() is not None

    def level_assignment(self) -> np.ndarray | None:
        """Per-node levels with all edges spanning exactly +1, else ``None``.

        Levels of disconnected components are normalized so each component's
        minimum level is 0.  Works on the *undirected* constraint graph:
        level(head) = level(tail) + 1 for every edge.
        """
        n = self.num_nodes
        level = np.zeros(n, dtype=np.int64)
        seen = np.zeros(n, dtype=bool)
        for start in range(n):
            if seen[start]:
                continue
            seen[start] = True
            level[start] = 0
            component = [start]
            queue = [start]
            while queue:
                u = queue.pop()
                for e in self._out[u]:
                    v = self._heads[e]
                    if not seen[v]:
                        seen[v] = True
                        level[v] = level[u] + 1
                        component.append(v)
                        queue.append(v)
                    elif level[v] != level[u] + 1:
                        return None
                for e in self._in[u]:
                    v = self._tails[e]
                    if not seen[v]:
                        seen[v] = True
                        level[v] = level[u] - 1
                        component.append(v)
                        queue.append(v)
                    elif level[v] != level[u] - 1:
                        return None
            base = min(int(level[v]) for v in component)
            for v in component:
                level[v] -= base
        return level

    def is_acyclic(self) -> bool:
        """True iff the directed graph has no cycle (Kahn's algorithm)."""
        indeg = np.zeros(self.num_nodes, dtype=np.int64)
        for h in self._heads:
            indeg[h] += 1
        stack = [v for v in range(self.num_nodes) if indeg[v] == 0]
        removed = 0
        while stack:
            u = stack.pop()
            removed += 1
            for e in self._out[u]:
                v = self._heads[e]
                indeg[v] -= 1
                if indeg[v] == 0:
                    stack.append(v)
        return removed == self.num_nodes

    def to_networkx(self):
        """Export as a :class:`networkx.MultiDiGraph` (labels preserved)."""
        import networkx as nx

        g = nx.MultiDiGraph(name=self.name)
        for v in range(self.num_nodes):
            g.add_node(v, label=self._labels[v])
        for e in range(self.num_edges):
            g.add_edge(self._tails[e], self._heads[e], key=e)
        return g

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise NetworkError(f"node id {node} out of range [0, {self.num_nodes})")

    def _check_edge(self, edge_id: int) -> None:
        if not 0 <= edge_id < self.num_edges:
            raise NetworkError(f"edge id {edge_id} out of range [0, {self.num_edges})")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Network(name={self.name!r}, nodes={self.num_nodes}, "
            f"edges={self.num_edges})"
        )
