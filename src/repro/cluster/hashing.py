"""Consistent hashing of batch-compat keys onto worker slots.

The router shards ``run`` requests by their
:func:`~repro.sim.spec.batch_compat_key` — the tuple that decides
whether two trials may share a lockstep batch.  Routing on *that* key
(rather than on the request id or a round-robin counter) is what makes
sharding compose with batching: every request that could coalesce into
one batch hashes to the same worker, so N workers still see full-width
batches instead of each receiving a sliver of every key.

A consistent-hash ring keeps the key→worker map stable under
membership change: when one of N workers is evicted, only ~1/N of the
key space remaps (to ring neighbours) instead of reshuffling
everything, so a single crash doesn't cold-start every worker's batch
stream.  Each node is placed at :data:`DEFAULT_REPLICAS` pseudo-random
ring positions (virtual nodes) derived from SHA-256, which evens out
the key-space share each worker owns.

Everything is derived from stable string hashes — no process-local
salt — so every router process (and a test asserting placement) maps
the same key to the same slot.
"""

from __future__ import annotations

import bisect
import hashlib
from collections.abc import Iterable, Set

__all__ = ["DEFAULT_REPLICAS", "HashRing"]

#: Virtual nodes per real node.  64 keeps the largest/smallest key-space
#: share within a few percent for small clusters while the ring stays
#: tiny (N*64 ints).
DEFAULT_REPLICAS = 64


def _position(label: str) -> int:
    """A stable 64-bit ring position for a vnode or key label."""
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class HashRing:
    """A consistent-hash ring mapping string keys to member nodes.

    Nodes are arbitrary hashable, stringable identifiers (the cluster
    uses worker slot indices).  Deterministic: the mapping depends only
    on the member set, never on insertion order or process state.
    """

    def __init__(self, nodes: Iterable[int | str] = ()) -> None:
        self._nodes: set[int | str] = set()
        #: Sorted vnode positions, parallel to ``_owners``.
        self._ring: list[int] = []
        self._owners: list[int | str] = []
        for node in nodes:
            self.add(node)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: int | str) -> bool:
        return node in self._nodes

    @property
    def nodes(self) -> frozenset[int | str]:
        return frozenset(self._nodes)

    def _rebuild(self) -> None:
        pairs = sorted(
            (_position(f"node:{node}:{replica}"), node)
            for node in self._nodes
            for replica in range(DEFAULT_REPLICAS)
        )
        self._ring = [pos for pos, _ in pairs]
        self._owners = [node for _, node in pairs]

    def add(self, node: int | str) -> None:
        """Add a node (idempotent)."""
        if node not in self._nodes:
            self._nodes.add(node)
            self._rebuild()

    def remove(self, node: int | str) -> None:
        """Remove a node (idempotent); its vnodes fall to ring neighbours."""
        if node in self._nodes:
            self._nodes.discard(node)
            self._rebuild()

    def node_for(
        self, key: str, *, exclude: Set[int | str] = frozenset()
    ) -> int | str:
        """The node owning ``key``: first vnode clockwise of its position.

        ``exclude`` skips nodes *without* mutating the ring — the
        router's crash fallback: when ``key``'s home worker is mid-
        restart, the request walks clockwise to the next distinct live
        owner, and once the home worker returns the key maps straight
        back (no remap churn from the transient).
        """
        candidates = self._nodes - set(exclude)
        if not candidates:
            raise ValueError(
                "no eligible nodes on the ring"
                + (f" (all {len(self._nodes)} excluded)" if self._nodes else "")
            )
        start = bisect.bisect_right(self._ring, _position(f"key:{key}"))
        n = len(self._ring)
        for step in range(n):
            owner = self._owners[(start + step) % n]
            if owner in candidates:
                return owner
        raise AssertionError("unreachable: candidates is non-empty")
