"""Circuit switching on the butterfly (Kruskal-Snir [24], Koch [22]).

Koch's result is the paper's direct ancestor: in a circuit-switched
butterfly where each edge can carry ``B`` circuits, the expected number of
messages that succeed in locking down a path from a random-destination
problem is ``Theta(n / log**(1/B) n)`` — the first observation that a
constant-factor capacity increase buys a superlinear performance increase
(Section 1.3.3).  Experiment E6 regenerates this curve.

Model: every input holds one message with a chosen output; messages extend
their circuits level by level (all in lock-step).  At each level, each
edge admits at most ``capacity`` circuits; surplus messages are dropped on
the spot and release nothing (the classic "kill on blocked" analysis
model used by Kruskal-Snir and Koch).  The whole sweep is vectorized: a
message's path is determined by its (input, output) pair via greedy
bit-fixing, so level ``i`` only needs a bincount over edge ids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..network.butterfly import Butterfly
from ..network.graph import NetworkError
from .engine import grant_free_slots
from .kernels import exact_count

__all__ = ["CircuitSwitchResult", "circuit_switch_butterfly"]


@dataclass(frozen=True)
class CircuitSwitchResult:
    """Outcome of one lock-down sweep."""

    survived: np.ndarray  # bool per message
    dropped_per_level: np.ndarray  # messages dropped at each edge-level

    @property
    def num_survivors(self) -> int:
        return int(self.survived.sum())

    @property
    def fraction(self) -> float:
        return float(self.survived.mean()) if self.survived.size else 0.0


def circuit_switch_butterfly(
    bf: Butterfly,
    dests: np.ndarray,
    capacity: int,
    rng: np.random.Generator,
    sources: np.ndarray | None = None,
) -> CircuitSwitchResult:
    """Lock down circuits for messages ``sources[i] -> dests[i]``.

    Parameters
    ----------
    bf:
        The butterfly (single pass; ``depth == log2(n)`` unless a
        truncated experiment is intended).
    dests:
        Output column per message.
    capacity:
        Circuits per edge (Koch's ``B``); must be >= 1.
    rng:
        Arbitration: losers at an over-subscribed edge are chosen
        uniformly among its contenders.
    sources:
        Input column per message; defaults to one message per input
        (``arange(n)``) which requires ``len(dests) == n``.

    Returns
    -------
    :class:`CircuitSwitchResult` with the surviving messages.
    """
    capacity = exact_count(capacity, "capacity", 1)
    dests = np.asarray(dests, dtype=np.int64)
    if sources is None:
        if dests.size != bf.n:
            raise NetworkError(
                f"default sources need one message per input ({bf.n}), "
                f"got {dests.size}"
            )
        sources = np.arange(bf.n, dtype=np.int64)
    else:
        sources = np.asarray(sources, dtype=np.int64)
    edges = bf.path_edges_batch(sources, dests)  # (M, depth)
    M = edges.shape[0]
    alive = np.ones(M, dtype=bool)
    dropped = np.zeros(bf.depth, dtype=np.int64)
    for level in range(bf.depth):
        idx = np.flatnonzero(alive)
        if idx.size == 0:
            break
        lvl_edges = edges[idx, level]
        # Random arbitration: shuffle, then keep the first `capacity`
        # contenders per edge (the engine's shared grant kernel).
        prio = rng.random(idx.size)
        keep = grant_free_slots(lvl_edges, prio, capacity)
        dropped[level] = int((~keep).sum())
        alive[idx[~keep]] = False
    return CircuitSwitchResult(survived=alive, dropped_per_level=dropped)
