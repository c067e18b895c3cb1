"""Wormhole routing on leveled networks (Ranade-Schleimer-Wilkerson [41]).

Section 1.3.1: on any *leveled* network (every edge goes from level ``i``
to ``i+1``), any set of ``L``-flit messages with congestion ``C`` and
dilation ``D`` can be routed in ``O(L C D)`` flit steps — better than the
naive ``O((L+D) C D)`` and, per their matching construction, tight for
``B = 1``.  Leveled networks also make wormhole routing deadlock-free
for free: the channel dependency graph follows the level order, so it is
acyclic and greedy injection always finishes.

Greedy injection (the algorithm class [41] analyzes) is an ordinary
wormhole trial, :func:`repro.simulate`, and
:meth:`~repro.network.graph.Network.is_leveled` says whether a network is
leveled.  This module provides:

* :func:`leveled_bound` — the ``L C D`` form to compare a run against;
* :func:`random_delay_release` — the classic smoothing trick: delay each
  message by a uniform multiple of ``L`` in ``[0, C)`` message-slots,
  which spreads contention and empirically tightens the constant.
"""

from __future__ import annotations

import numpy as np

from ..sim.kernels import exact_count

__all__ = ["random_delay_release", "leveled_bound"]


def leveled_bound(L: int, C: int, D: int) -> float:
    """[41]'s leveled-network bound ``L C D`` (flit steps, ``B = 1``)."""
    return float(
        exact_count(L, "L", 1) * exact_count(C, "C", 1) * exact_count(D, "D", 1)
    )


def random_delay_release(
    num_messages: int,
    message_length: int,
    C: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Initial delays ``L * uniform{0..C-1}`` per message.

    Aligning delays to multiples of ``L`` means two messages offset by
    different slots never fight for an edge at the same flit step unless
    one of them was already delayed in the network — the smoothing idea
    behind the randomized online algorithms of [26, 27].
    """
    L = exact_count(message_length, "message_length", 1)
    C = exact_count(C, "C", 1)
    return rng.integers(0, C, size=num_messages).astype(np.int64) * L
