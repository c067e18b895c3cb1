"""Multibutterfly networks (Arora-Leighton-Maggs [3], Section 1.3.4).

A *multibutterfly* replaces each butterfly switch by a ``d``-regular
random *splitter*: at every level, each node of a splitter block has
``d`` edges into the upper half of the next-level block and ``d`` edges
into the lower half (a butterfly is the ``d = 1`` special case with a
fixed wiring).  The resulting path diversity is what lets [3] route
``n`` ``L``-flit messages from inputs to outputs in ``O(L + log n)``
flit steps even online: a blocked worm has ``d - 1`` alternatives at
every level, so adversarial congestion cannot pin it down.

Levels and blocks: at level ``i`` the ``n`` nodes are partitioned into
``2**i`` blocks of size ``n / 2**i``; the upper/lower half of a block at
level ``i+1`` is selected by bit ``log n - 1 - i`` of the destination
(MSB-first splitting, the standard multibutterfly orientation).  Nodes
carry ids ``level * n + index`` like :class:`~repro.network.butterfly
.Butterfly`.

The random wiring uses ``d`` independent perfect matchings between each
half-block pair, so every node has exactly ``d`` edges into each
reachable half and in-degrees are balanced (``2d`` in, ``2d`` out for
interior nodes).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .butterfly import is_power_of_two
from .graph import Network, NetworkError

__all__ = ["Multibutterfly"]


@dataclass
class Multibutterfly:
    """An ``n``-input multibutterfly of multiplicity ``d``.

    Parameters
    ----------
    n:
        Inputs (power of two, >= 4 so blocks can split).
    d:
        Edges from each node into each half of the next block
        (``d = 1`` with random matchings is a "randomly-wired
        butterfly"; ``d >= 2`` gives the expander-flavored diversity).
    rng:
        Wiring randomness.
    """

    n: int
    d: int = 2
    rng: np.random.Generator | None = None
    log_n: int = field(init=False)
    network: Network = field(init=False)
    #: ``(num_nodes, 2, d)`` edge ids: ``candidate_table[v, half, j]`` is
    #: the ``j``-th edge out of node ``v`` into the upper (``half = 0``)
    #: or lower (``1``) half of the next-level block; ``-1`` on outputs.
    candidate_table: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not is_power_of_two(self.n) or self.n < 4:
            raise NetworkError(f"multibutterfly needs power-of-two n >= 4, got {self.n}")
        if self.d < 1:
            raise NetworkError(f"multiplicity d must be >= 1, got {self.d}")
        rng = self.rng if self.rng is not None else np.random.default_rng(0)
        self.log_n = self.n.bit_length() - 1
        net = Network(name=f"multibutterfly(n={self.n}, d={self.d})")
        for level in range(self.log_n + 1):
            for w in range(self.n):
                net.add_node((w, level))
        table = np.full((net.num_nodes, 2, self.d), -1, dtype=np.int64)
        for level in range(self.log_n):
            block_size = self.n >> level
            half = block_size // 2
            num_blocks = 1 << level
            for b in range(num_blocks):
                base = b * block_size
                members = np.arange(base, base + block_size)
                # Upper half of the two child blocks: indices [base,
                # base+half); lower: [base+half, base+block).  d random
                # matchings per half keep degrees exact.
                for which, child_base in enumerate((base, base + half)):
                    for choice in range(self.d):
                        perm = rng.permutation(block_size)
                        for j, src in enumerate(members):
                            dst_index = child_base + (perm[j] % half)
                            tail = level * self.n + int(src)
                            e = net.add_edge(
                                tail, (level + 1) * self.n + int(dst_index)
                            )
                            table[tail, which, choice] = e
        self.network = net
        self.candidate_table = table

    @property
    def num_levels(self) -> int:
        return self.log_n + 1

    def candidates(self, nodes, dest_columns) -> np.ndarray:
        """:meth:`candidate_edges` of non-output ``nodes`` toward
        ``dest_columns`` (arrays of one shape, or scalars), vectorized:
        shape ``(..., d)``.  Bit ``log n - 1 - level`` of the output
        column picks the half (MSB first)."""
        level = np.asarray(nodes) // self.n
        half = (np.asarray(dest_columns) >> (self.log_n - 1 - level)) & 1
        return self.candidate_table[nodes, half]

    def candidate_edges(self, node: int, dest_column: int) -> list[int]:
        """The ``d`` correct-direction edges out of ``node`` toward
        ``dest_column`` (the adaptive router's choice set)."""
        if node // self.n >= self.log_n:
            raise NetworkError(f"node {node} is an output; no further edges")
        return self.candidates(node, dest_column).tolist()

    def inputs(self) -> np.ndarray:
        return np.arange(self.n, dtype=np.int64)

    def outputs(self) -> np.ndarray:
        return self.log_n * self.n + np.arange(self.n, dtype=np.int64)

    def output_of(self, dest_column: int) -> int:
        """Node id of output column ``dest_column``."""
        if not 0 <= dest_column < self.n:
            raise NetworkError(f"no output column {dest_column}")
        return self.log_n * self.n + dest_column
