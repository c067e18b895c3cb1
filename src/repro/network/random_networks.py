"""Random and synthetic benchmark networks for the Section 2 experiments.

Theorem 2.1.6 is *network independent*: its bound depends only on the
congestion ``C``, dilation ``D``, message length ``L`` and virtual-channel
count ``B`` of the workload, never on the topology.  To exercise it we need
families of networks and path sets whose ``C`` and ``D`` we can dial in:

* :func:`layered_network` — random leveled networks (every edge goes from
  level ``i`` to ``i+1``), the structure assumed by Leighton, Maggs,
  Ranade and Rao's leveled-network algorithm [26] and convenient because
  wormhole routing on them can never deadlock;
* :func:`random_walk_paths` — random level-0 to level-``depth`` paths in a
  layered network, whose congestion concentrates near
  ``num_messages / width``;
* :func:`random_walk_route` — the same walk drawn per message, as the
  route generator an open-loop arrival trace draws from;
* :func:`chain_bundle` — disjoint parallel chains giving *exact* control
  of ``C`` and ``D`` (all messages on a chain share every edge).
"""

from __future__ import annotations

import numpy as np

from .graph import Network, NetworkError

__all__ = [
    "layered_network",
    "random_walk_paths",
    "random_walk_route",
    "chain_bundle",
]


def layered_network(
    width: int,
    depth: int,
    out_degree: int,
    rng: np.random.Generator,
) -> Network:
    """A random leveled network with ``depth + 1`` levels of ``width`` nodes.

    Every node at level ``i < depth`` receives ``out_degree`` edges to
    *distinct* random nodes at level ``i+1``.  Node labels are
    ``(column, level)`` and the node id of ``(w, i)`` is ``i*width + w``.
    """
    if width < 1 or depth < 1:
        raise NetworkError("width and depth must be >= 1")
    if not 1 <= out_degree <= width:
        raise NetworkError(f"out_degree must be in [1, {width}], got {out_degree}")
    net = Network(name=f"layered(width={width}, depth={depth}, d={out_degree})")
    for level in range(depth + 1):
        for w in range(width):
            net.add_node((w, level))
    for level in range(depth):
        base_next = (level + 1) * width
        for w in range(width):
            targets = rng.choice(width, size=out_degree, replace=False)
            for t in targets:
                net.add_edge(level * width + w, base_next + int(t))
    return net


def random_walk_paths(
    net: Network,
    width: int,
    depth: int,
    num_messages: int,
    rng: np.random.Generator,
) -> list[list[int]]:
    """Random top-to-bottom walks in a :func:`layered_network`.

    Each message starts at a uniformly random level-0 node and follows a
    uniformly random outgoing edge at every level.  Returns node-id lists
    (length ``depth + 1`` each); paths in a leveled network are
    automatically edge-simple.
    """
    paths: list[list[int]] = []
    for _ in range(num_messages):
        node = int(rng.integers(width))
        walk = [node]
        for _level in range(depth):
            succ = net.successors(node)
            if not succ:
                raise NetworkError(f"node {node} has no outgoing edge")
            node = succ[int(rng.integers(len(succ)))]
            walk.append(node)
        paths.append(walk)
    return paths


def random_walk_route(net: Network, depth: int):
    """``path_of(source, rng) -> edge ids``: a uniformly random
    ``depth``-edge walk down a :func:`layered_network` from ``source``,
    drawn from the caller's generator (the ``path_of`` argument of
    :func:`~repro.sim.continuous.draw_arrivals`)."""

    def path_of(source: int, rng: np.random.Generator) -> list[int]:
        node = int(source)
        edges: list[int] = []
        for _ in range(int(depth)):
            out = net.out_edges(node)
            e = out[int(rng.integers(len(out)))]
            edges.append(e)
            node = net.head(e)
        return edges

    return path_of


def chain_bundle(
    num_chains: int, depth: int, messages_per_chain: int
) -> tuple[Network, list[list[int]]]:
    """Disjoint chains of length ``depth`` with ``messages_per_chain`` each.

    The returned workload has congestion exactly ``messages_per_chain``
    and dilation exactly ``depth`` — the cleanest instance for calibrating
    schedule-length measurements, because every pair of messages on a
    chain conflicts on *every* edge.
    """
    if num_chains < 1 or depth < 1 or messages_per_chain < 1:
        raise NetworkError("num_chains, depth, messages_per_chain must be >= 1")
    net = Network(name=f"chains(num={num_chains}, depth={depth})")
    for c in range(num_chains):
        for i in range(depth + 1):
            net.add_node((c, i))
    for c in range(num_chains):
        base = c * (depth + 1)
        for i in range(depth):
            net.add_edge(base + i, base + i + 1)
    paths = []
    for c in range(num_chains):
        base = c * (depth + 1)
        chain_nodes = list(range(base, base + depth + 1))
        paths.extend([list(chain_nodes) for _ in range(messages_per_chain)])
    return net, paths
