"""Meshes, tori, and k-ary n-cubes (Section 1.3.4).

A *k-ary n-cube* has ``k**n`` nodes labelled by coordinate tuples in
``{0..k-1}**n``; each node links to the nodes at distance one in each
dimension, wrapping around in a torus.  A *mesh with constant dimension*
(the paper's phrase) is the non-wrapping variant.  Dally's influential
analyses [15, 16] of virtual-channel routers were carried out on these
topologies, and the deadlock-avoidance schemes of Dally and Seitz (dateline
virtual channels on the torus) are exercised on them in
:mod:`repro.sim.deadlock`.

Dimension-order (e-cube) routing paths are provided for both variants; on
the torus they optionally take the shorter wrap direction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .graph import Network, NetworkError

__all__ = ["KAryNCube", "dimension_order_path"]


@dataclass
class KAryNCube:
    """A k-ary n-cube (torus) or mesh.

    Parameters
    ----------
    k:
        Radix (nodes per dimension), ``k >= 2``.
    n:
        Number of dimensions, ``n >= 1``.
    wrap:
        ``True`` builds the torus; ``False`` the mesh.
    """

    k: int
    n: int
    wrap: bool = True
    network: Network = field(init=False)
    _tables: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.k < 2:
            raise NetworkError(f"radix k must be >= 2, got {self.k}")
        if self.n < 1:
            raise NetworkError(f"dimension n must be >= 1, got {self.n}")
        kind = "torus" if self.wrap else "mesh"
        net = Network(name=f"{self.k}-ary {self.n}-cube ({kind})")
        for coords in product(range(self.k), repeat=self.n):
            net.add_node(coords)
        for coords in product(range(self.k), repeat=self.n):
            u = self.node(coords)
            for dim in range(self.n):
                nxt = coords[dim] + 1
                if nxt < self.k:
                    v = self.node(self._with(coords, dim, nxt))
                    net.add_bidirectional_edge(u, v)
                elif self.wrap and self.k > 2:
                    # k == 2 wrap would duplicate the existing +/-1 links.
                    v = self.node(self._with(coords, dim, 0))
                    net.add_bidirectional_edge(u, v)
        self.network = net

    @property
    def num_nodes(self) -> int:
        return self.k**self.n

    def node(self, coords: tuple[int, ...]) -> int:
        """Node id of a coordinate tuple (mixed-radix, dimension 0 major)."""
        if len(coords) != self.n:
            raise NetworkError(f"expected {self.n} coordinates, got {len(coords)}")
        node = 0
        for c in coords:
            if not 0 <= c < self.k:
                raise NetworkError(f"coordinate {c} out of range [0, {self.k})")
            node = node * self.k + c
        return node

    def coords(self, node: int) -> tuple[int, ...]:
        """Coordinate tuple of a node id."""
        if not 0 <= node < self.num_nodes:
            raise NetworkError(f"node id {node} out of range")
        out = []
        for _ in range(self.n):
            node, c = divmod(node, self.k)
            out.append(c)
        return tuple(reversed(out))

    def distances(self, demands) -> list[int]:
        """Minimal hop count of each ``(source, destination)`` demand —
        the Manhattan distance, taking the shorter way round on a torus."""
        dists = []
        for src, dst in demands:
            d = 0
            for x, y in zip(self.coords(int(src)), self.coords(int(dst))):
                step = abs(x - y)
                d += min(step, self.k - step) if self.wrap else step
            dists.append(d)
        return dists

    def direction_tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(coords, dir_edge, dir_node)`` lookup arrays, built once.

        ``coords[v]`` is node ``v``'s coordinate row.  Column ``2 * dim``
        of ``dir_edge`` / ``dir_node`` holds the edge leaving ``v``
        toward, and the neighbour at, ``coords[v][dim] + 1``; column
        ``2 * dim + 1`` the same for ``- 1``; ``-1`` where the mesh
        ends.  The last column (``2 * n``) is ``-1`` for every node, so
        "no move in this dimension" is a direction index too.

        :class:`Network` is append-only, so a built table stays valid;
        a build that raises caches nothing.
        """
        if self._tables is None:
            net, k = self.network, self.k
            wraps = self.wrap and k > 2
            coords = np.asarray(
                list(product(range(k), repeat=self.n)), dtype=np.int64
            )
            dir_edge = np.full((self.num_nodes, 2 * self.n + 1), -1, np.int64)
            dir_node = dir_edge.copy()
            for v, at in enumerate(coords.tolist()):
                for d in range(2 * self.n):
                    c = at[d // 2] + (-1 if d % 2 else 1)
                    if not (wraps or 0 <= c < k):
                        continue
                    u = self.node(self._with(at, d // 2, c % k))
                    e = net.edge_between(v, u)
                    if e is None:
                        raise NetworkError(
                            f"mesh is missing the edge between nodes "
                            f"{v} and {u}"
                        )
                    dir_edge[v, d], dir_node[v, d] = e, u
            self._tables = (coords, dir_edge, dir_node)
        return self._tables

    @staticmethod
    def _with(coords: tuple[int, ...], dim: int, value: int) -> tuple[int, ...]:
        lst = list(coords)
        lst[dim] = value
        return tuple(lst)


def dimension_order_path(cube: KAryNCube, src: int, dst: int) -> list[int]:
    """Dimension-order (e-cube) route as a node-id list, ``src`` first.

    Corrects one dimension at a time in increasing dimension order — the
    classic deterministic minimal route of Dally and Seitz.  On a torus the
    shorter wrap direction is taken (ties resolved toward increasing
    coordinates).
    """
    cur = list(cube.coords(src))
    dst_coords = cube.coords(dst)
    nodes = [src]
    for dim in range(cube.n):
        while cur[dim] != dst_coords[dim]:
            delta = dst_coords[dim] - cur[dim]
            if cube.wrap and cube.k > 2:
                # Choose the direction with the shorter wrap distance.
                forward = delta % cube.k
                step = 1 if forward <= cube.k - forward else -1
            else:
                step = 1 if delta > 0 else -1
            cur[dim] = (cur[dim] + step) % cube.k
            nodes.append(cube.node(tuple(cur)))
    return nodes
