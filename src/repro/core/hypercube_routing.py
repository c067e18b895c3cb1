"""Randomized hypercube permutation routing (Aiello et al. [1] style).

Section 1.3.4: Aiello, Leighton, Maggs and Newman route any permutation
of ``n`` ``L``-flit messages on an ``n``-node hypercube in
``O(L + log n)`` flit steps, using a small constant number of virtual
channels, assuming each node services all ``log n`` of its edges
simultaneously (which our per-edge model does naturally).

We implement the classic two-phase scheme their result refines:

1. **Phase 1 (Valiant):** every message routes by greedy bit-fixing to a
   uniformly random intermediate node;
2. **Phase 2:** it continues by bit-fixing to its true destination.

Random intermediates break any adversarial structure; with high
probability both phases' path sets have congestion ``O(log n / log log
n)``-ish, so a constant number of virtual channels keeps worms flowing
and total time is ``O(L + log n)``.  We route the two phases back to
back through the flit-level simulator (phase 2 is released after phase 1
completes, the batch analogue of their pipelining) and expose both the
combined and per-phase results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..network.graph import NetworkError
from ..network.hypercube import Hypercube, bit_fixing_path
from ..routing.paths import congestion, paths_from_node_walks
from ..routing.problems import RoutingInstance
from ..sim.stats import SimulationResult
from ..sim.batch import run_wormhole_batch

__all__ = ["HypercubeRoutingResult", "route_hypercube_permutation"]


@dataclass(frozen=True)
class HypercubeRoutingResult:
    """Outcome of the two-phase hypercube route."""

    phase1: SimulationResult
    phase2: SimulationResult
    total_flit_steps: int
    congestion_phase1: int
    congestion_phase2: int

    @property
    def all_delivered(self) -> bool:
        return self.phase1.all_delivered and self.phase2.all_delivered


def route_hypercube_permutation(
    cube: Hypercube,
    instance: RoutingInstance,
    message_length: int,
    B: int = 2,
    rng: np.random.Generator | None = None,
    seed: int | None = 0,
) -> HypercubeRoutingResult:
    """Route ``instance`` on ``cube`` by two-phase randomized bit-fixing.

    Parameters
    ----------
    cube:
        The hypercube.
    instance:
        Source/destination pairs over ``cube.n`` nodes (any h-relation;
        permutations are the classic case).
    message_length:
        ``L`` in flits.
    B:
        Virtual channels per edge; [1] needs only a small constant.
    rng:
        Randomness for intermediate destinations (``seed`` drives the
        simulator arbitration).

    Notes
    -----
    Phase 2 starts when phase 1 has fully completed.  This wastes at most
    a factor 2 versus pipelining and keeps each phase's analysis clean;
    the returned ``total_flit_steps`` is the sum of the two makespans.
    """
    if instance.n != cube.n:
        raise NetworkError(
            f"instance is over {instance.n} endpoints, hypercube has {cube.n}"
        )
    if message_length < 1:
        raise NetworkError("message length must be >= 1")
    if rng is None:
        rng = np.random.default_rng(seed)
    mids = rng.integers(0, cube.n, size=instance.num_messages)

    dim = cube.dimension
    walks1 = [
        bit_fixing_path(int(s), int(m), dim)
        for s, m in zip(instance.sources, mids)
    ]
    walks2 = [
        bit_fixing_path(int(m), int(d), dim)
        for m, d in zip(mids, instance.dests)
    ]
    paths1 = paths_from_node_walks(cube.network, walks1)
    paths2 = paths_from_node_walks(cube.network, walks2)

    # Both phases draw arbitration from one continuing stream.
    arbitration = np.random.default_rng(seed)
    res1, res2 = (
        run_wormhole_batch(
            cube.network, paths, message_length, seeds=[arbitration],
            num_virtual_channels=B,
        )[0]
        for paths in (paths1, paths2)
    )
    total = int(max(res1.makespan, 0) + max(res2.makespan, 0))
    return HypercubeRoutingResult(
        phase1=res1,
        phase2=res2,
        total_flit_steps=total,
        congestion_phase1=congestion(paths1),
        congestion_phase2=congestion(paths2),
    )
