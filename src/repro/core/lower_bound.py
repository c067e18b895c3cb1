"""The Theorem 2.2.1 hard instance: ``Omega(L C D^(1/B) / B)`` flit steps.

Construction (Section 2.2): pick the largest ``M'`` with
``2 C(M'-1, B) - 1 <= D``.  Create one **primary edge** per
``(B+1)``-subset of the ``M'`` base messages — every set of ``B+1``
messages shares a distinct primary edge.  Each message traverses its
primary edges (the subsets containing it) in lexicographic order,
connected by **secondary edges**; its dilation is
``2 C(M'-1, B) - 1 <= D`` (padded to exactly ``D`` on request).  Finally
each base message is replicated ``C / (B+1)`` times, giving primary-edge
congestion exactly ``C`` and ``M = C M' / (B+1)`` messages total.

Why it is hard: a message *makes progress* in a step only if one of its
first ``L - D`` flits reaches the destination, which requires the worm to
occupy **every** edge on its path.  Since any ``B + 1`` messages share a
primary edge with only ``B`` virtual channels, at most ``B`` messages can
make progress per flit step, so routing takes at least
``(L - D) M / B = Omega(L C D^(1/B) / B)`` steps (``M' = Omega(B D^(1/B))``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from ..network.graph import Network, NetworkError

__all__ = ["HardInstance", "build_hard_instance", "max_m_prime", "hard_instance_lower_bound"]


def max_m_prime(D: int, B: int) -> int:
    """Largest ``M'`` with ``2 C(M'-1, B) - 1 <= D`` (and ``M' >= B+1``)."""
    if B < 1:  # C(m, 0) = 1: the search below would never end
        raise NetworkError(f"need B >= 1 (got B={B})")
    if D < B + 1:
        raise NetworkError(f"need D >= B + 1 (got D={D}, B={B})")
    m = B + 1
    while 2 * math.comb(m, B) - 1 <= D:  # try M' = m + 1 (uses C(M'-1, B))
        m += 1
    if 2 * math.comb(m - 1, B) - 1 > D:
        raise NetworkError(f"no feasible M' for D={D}, B={B}")
    return m


@dataclass(frozen=True)
class HardInstance:
    """A built Theorem 2.2.1 instance."""

    network: Network
    paths: list[list[int]]  # edge-id lists
    m_prime: int
    num_messages: int
    congestion: int
    dilation: int
    B: int
    primary_edges: tuple[int, ...]
    base_message_of: np.ndarray  # replica -> base message id

    def recommended_length(self, factor: float = 2.0) -> int:
        """An ``L = (1 + Omega(1)) D`` message length (default ``2D``)."""
        return int(math.ceil(factor * self.dilation))


def build_hard_instance(
    C: int,
    D: int,
    B: int,
    pad_to_dilation: bool = True,
) -> HardInstance:
    """Build the network and message set of Theorem 2.2.1.

    Parameters
    ----------
    C:
        Target congestion; rounded down to a multiple of ``B + 1`` (the
        replication factor must be integral), with a floor of ``B + 1``.
    D:
        Target dilation; must be at least ``B + 1``.
    B:
        Virtual channels per edge; the instance is built *for* this ``B``
        (its primary edges each carry ``B + 1`` base messages).
    pad_to_dilation:
        Append private chain edges so every path has length exactly ``D``.
    """
    if C < B + 1:
        raise NetworkError(f"need C >= B + 1 (got C={C}, B={B})")
    m_prime = max_m_prime(D, B)
    replication = C // (B + 1)
    subsets = list(combinations(range(m_prime), B + 1))
    net = Network(name=f"hard_instance(C={C}, D={D}, B={B})")

    # Two nodes and one primary edge per (B+1)-subset.
    primary_edge: dict[tuple[int, ...], int] = {}
    entry_node: dict[tuple[int, ...], int] = {}
    exit_node: dict[tuple[int, ...], int] = {}
    for s in subsets:
        u = net.add_node(("in", s))
        v = net.add_node(("out", s))
        entry_node[s] = u
        exit_node[s] = v
        primary_edge[s] = net.add_edge(u, v)

    # Secondary edges: between consecutive primary edges of each base
    # message, deduplicated so messages sharing a transition share the
    # edge (their count is at most B: a transition S -> T is shared only
    # by messages in S intersect T minus endpoints' structure).
    secondary_edge: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
    base_paths: list[list[int]] = []
    for msg in range(m_prime):
        own = [s for s in subsets if msg in s]  # lexicographic by construction
        edges = [primary_edge[own[0]]]
        for prev, nxt in zip(own[:-1], own[1:]):
            key = (prev, nxt)
            if key not in secondary_edge:
                secondary_edge[key] = net.add_edge(exit_node[prev], entry_node[nxt])
            edges.append(secondary_edge[key])
            edges.append(primary_edge[nxt])
        base_paths.append(edges)

    natural_d = len(base_paths[0])
    if natural_d > D:
        raise NetworkError("internal error: construction exceeded dilation budget")
    if pad_to_dilation and natural_d < D:
        for msg in range(m_prime):
            last_head = net.head(base_paths[msg][-1])
            prev = last_head
            for i in range(D - natural_d):
                nxt = net.add_node(("pad", msg, i))
                base_paths[msg].append(net.add_edge(prev, nxt))
                prev = nxt

    paths = []
    base_of = []
    for msg in range(m_prime):
        for _ in range(replication):
            paths.append(list(base_paths[msg]))
            base_of.append(msg)

    return HardInstance(
        network=net,
        paths=paths,
        m_prime=m_prime,
        num_messages=len(paths),
        congestion=replication * (B + 1),
        dilation=len(base_paths[0]),
        B=B,
        primary_edges=tuple(primary_edge[s] for s in subsets),
        base_message_of=np.asarray(base_of, dtype=np.int64),
    )


def hard_instance_lower_bound(inst: HardInstance, L: int) -> float:
    """The proof's explicit bound ``(L - D) M / B`` in flit steps.

    ``M`` is the replicated message count; requires ``L > D``.
    """
    if L <= inst.dilation:
        raise NetworkError("the progress argument needs L > D")
    return (L - inst.dilation) * inst.num_messages / inst.B
