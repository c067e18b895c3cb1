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
bit-fixing, so level ``i`` is one round of the engine's grant kernel
over edge ids.

The same level sweep is Section 3.1's discard-on-delay subround
(:class:`~repro.core.butterfly_routing.ButterflyRouter`): worms enter a
leveled network together, and at each edge ``B`` random winners
survive.  :func:`arbitrate_levels` is that sweep, once, for both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..network.butterfly import Butterfly
from ..network.graph import NetworkError
from .engine import grant_free_slots
from .kernels import exact_count

__all__ = ["CircuitSwitchResult", "arbitrate_levels", "circuit_switch_butterfly"]


def _levels_won(
    edges: np.ndarray, B: int, rng: np.random.Generator
) -> np.ndarray:
    """Per message, the levels it won before it was dropped (``depth``
    for a survivor).  Each level draws one ``rng.random`` per message
    still alive, and the engine's grant kernel keeps the ``B`` smallest
    draws at every edge."""
    won = np.zeros(edges.shape[0], dtype=np.int64)
    alive = np.arange(edges.shape[0])
    for level in range(edges.shape[1]):
        if alive.size == 0:
            break
        keep = grant_free_slots(edges[alive, level], rng.random(alive.size), B)
        alive = alive[keep]
        won[alive] += 1
    return won


def arbitrate_levels(
    edges: np.ndarray, B: int, rng: np.random.Generator
) -> np.ndarray:
    """Run the level-synchronized discard dynamics for one subround.

    ``edges`` is ``(m, depth)`` edge ids (row ``i`` is message ``i``'s
    path); at each level, ``B`` random contenders per edge survive and
    the rest are discarded.  Returns the boolean survivor mask: True iff
    the message won a slot at every level.
    """
    return _levels_won(edges, B, rng) == edges.shape[1]


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
    won = _levels_won(bf.path_edges_batch(sources, dests), capacity, rng)
    survived = won == bf.depth
    dropped = np.bincount(won[~survived], minlength=bf.depth)
    return CircuitSwitchResult(survived=survived, dropped_per_level=dropped)
