"""Online network-independent wormhole routing (the [13] contrast).

The Theorem 2.1.6 schedule is *offline*: it examines the whole network
and message set.  The paper highlights that Cypher, Meyer auf der Heide,
Scheideler and Vocking [13] achieve comparable bounds
(``O((L C D^(1/B) + (L+D) log n) / B)``-flavored) with an *online*
algorithm the switches can execute themselves.

We implement the core online mechanism their family of algorithms (and
the store-and-forward online results [26, 27]) build on — **randomized
initial delays**: each message independently delays an integral number
of ``L``-flit slots drawn uniformly from ``[0, W)`` and then injects
greedily, with no further coordination.  The window ``W`` trades startup
latency against contention; ``W ~ C D^(1/B) / B`` slots mirrors the
[13] bound shape and is the default.

This is a documented *substitution* (DESIGN.md): the exact [13] protocol
(growing ranks with duplicate elimination) is replaced by the simpler
random-delay protocol over the same model, preserving the property the
experiments probe — online, local, randomized, with the same parameter
shape.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from ..network.graph import Network, NetworkError
from ..routing.paths import Path
from ..sim.stats import SimulationResult
from ..sim.batch import run_wormhole_batch
from ..sim.kernels import exact_count
from .coloring import MessageEdgeIncidence

__all__ = ["online_window", "route_online_random_delays"]


def online_window(C: int, D: int, B: int, alpha: float = 1.0) -> int:
    """Delay-window size in ``L``-slots: ``ceil(alpha * C * D^(1/B) / B)``."""
    if not (C >= 1 and D >= 1 and B >= 1 and 0 < alpha < math.inf):
        raise NetworkError("need C, D, B >= 1 and a finite alpha > 0")
    return max(1, int(math.ceil(alpha * C * (D ** (1.0 / B)) / B)))


def route_online_random_delays(
    net: Network,
    paths: Sequence[Path] | Sequence[Sequence[int]],
    message_length: int,
    B: int = 1,
    alpha: float = 1.0,
    window: int | None = None,
    rng: np.random.Generator | None = None,
    seed: int | None = 0,
) -> SimulationResult:
    """Online protocol: random start slot in ``[0, window)``, then greedy.

    Parameters
    ----------
    net, paths, message_length, B:
        As for :func:`~repro.sim.batch.run_wormhole_batch` (``B`` is its
        ``num_virtual_channels``).
    alpha:
        Window constant when ``window`` is derived from ``C, D, B``.
    window:
        Explicit window in ``L``-slots (overrides ``alpha``).
    rng:
        Randomness for the delays (``seed`` drives arbitration).
    """
    L = exact_count(message_length, "message_length", 1)
    path_list = list(paths)
    if window is None:
        C, D = MessageEdgeIncidence.from_paths(path_list).congestion_dilation()
        window = online_window(max(C, 1), max(D, 1), B, alpha)
    window = exact_count(window, "window", 1)
    if rng is None:
        rng = np.random.default_rng(seed)
    release = rng.integers(0, window, size=len(path_list)).astype(np.int64) * L
    return run_wormhole_batch(
        net, path_list, L, seeds=[seed], num_virtual_channels=B,
        release_times=release,
    )[0]
