"""Wormhole routing on leveled networks (Ranade-Schleimer-Wilkerson [41]).

Section 1.3.1: on any *leveled* network (every edge goes from level ``i``
to ``i+1``), any set of ``L``-flit messages with congestion ``C`` and
dilation ``D`` can be routed in ``O(L C D)`` flit steps — better than the
naive ``O((L+D) C D)`` and, per their matching construction, tight for
``B = 1``.  Leveled networks also make wormhole routing deadlock-free
for free: the channel dependency graph follows the level order, so it is
acyclic and greedy injection always finishes.

This module provides:

* :func:`route_leveled_greedy` — greedy injection on a verified leveled
  network (the algorithm class [41] analyzes), returning the flit-level
  result for comparison with the ``L C D`` form;
* :func:`random_delay_release` — the classic smoothing trick: delay each
  message by a uniform multiple of ``L`` in ``[0, C)`` message-slots,
  which spreads contention and empirically tightens the constant.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..network.graph import Network, NetworkError
from ..routing.paths import Path
from ..sim.stats import SimulationResult
from ..sim.batch import run_wormhole_batch

__all__ = ["route_leveled_greedy", "random_delay_release", "leveled_bound"]


def leveled_bound(L: int, C: int, D: int) -> float:
    """[41]'s leveled-network bound ``L C D`` (flit steps, ``B = 1``)."""
    if L < 1 or C < 1 or D < 1:
        raise ValueError("need L, C, D >= 1")
    return float(L) * C * D


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
    if message_length < 1 or C < 1:
        raise NetworkError("need message_length >= 1 and C >= 1")
    return (
        rng.integers(0, C, size=num_messages).astype(np.int64) * message_length
    )


def route_leveled_greedy(
    net: Network,
    paths: Sequence[Path] | Sequence[Sequence[int]],
    message_length: int,
    B: int = 1,
    release_times: np.ndarray | None = None,
    seed: int | None = 0,
    check_leveled: bool = True,
) -> SimulationResult:
    """Greedy wormhole routing on a leveled network.

    Raises if ``net`` is not leveled (unless ``check_leveled=False``);
    leveledness is what guarantees deadlock freedom here, so the check is
    on by default.  The run is asserted deadlock-free.
    """
    if check_leveled and not net.is_leveled():
        raise NetworkError("network is not leveled")
    result = run_wormhole_batch(
        net, paths, message_length, seeds=[seed], num_virtual_channels=B,
        release_times=release_times,
    )[0]
    if result.deadlocked:  # pragma: no cover - leveledness forbids this
        raise NetworkError("leveled run deadlocked; model invariant broken")
    return result
