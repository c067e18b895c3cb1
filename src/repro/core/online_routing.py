"""Online randomized wormhole routing: the Section 1.3 contrasts.

The Theorem 2.1.6 schedule is *offline*: it examines the whole network
and message set.  Two online, randomized algorithms the paper sets
beside it are each an ordinary wormhole trial with a drawn input:

* **Random initial delays** (the [13] contrast).  Cypher, Meyer auf der
  Heide, Scheideler and Vocking [13] achieve comparable bounds
  (``O((L C D^(1/B) + (L+D) log n) / B)``-flavored) with an online
  algorithm the switches can execute themselves.  The core mechanism
  their family (and the store-and-forward online results [26, 27])
  builds on is that each message independently delays an integral
  number of ``L``-flit slots drawn uniformly from ``[0, W)`` and then
  injects greedily.  :func:`online_window` is the ``W ~ C D^(1/B) / B``
  window mirroring the [13] bound shape; the draw is
  :func:`~repro.core.leveled.random_delay_release`, and the
  ``online-delays`` scenario is a leveled workload released on it.
  This is a documented *substitution* (DESIGN.md): the exact [13]
  protocol (growing ranks with duplicate elimination) is replaced by
  the simpler random-delay protocol over the same model, preserving
  the property the experiments probe — online, local, randomized, with
  the same parameter shape.
* **Two-phase hypercube routing** (Section 1.3.4).  Aiello, Leighton,
  Maggs and Newman [1] route any permutation of ``n`` ``L``-flit
  messages on an ``n``-node hypercube in ``O(L + log n)`` flit steps
  with a small constant number of virtual channels.  The classic scheme
  their result refines routes every message by greedy bit-fixing to a
  uniformly random intermediate node (Valiant), then on to its true
  destination; random intermediates break any adversarial structure.
  :func:`valiant_phase_workloads` builds the two phases as two
  workloads; E12 runs phase 2 after phase 1 has completed (the batch
  analogue of their pipelining), both on one arbitration stream, and
  adds the makespans.
"""

from __future__ import annotations

import math

import numpy as np

from ..network.graph import NetworkError
from ..sim.kernels import exact_count

__all__ = ["online_window", "valiant_phase_workloads"]


def online_window(C: int, D: int, B: int) -> int:
    """Delay-window size in ``L``-slots: ``ceil(C * D^(1/B) / B)``."""
    if not (C >= 1 and D >= 1 and B >= 1):
        raise NetworkError("need C, D, B >= 1")
    return max(1, int(math.ceil(C * (D ** (1.0 / B)) / B)))


def valiant_phase_workloads(cube, instance, L: int, rng: np.random.Generator):
    """The two bit-fixing phases of routing ``instance`` on ``cube``
    through random intermediates drawn from ``rng``, as two workloads
    at ``L`` flits.

    Bit-fixing corrects bits in ascending order, so every route climbs
    in dimension and each phase's channel dependency graph is acyclic.
    """
    from ..network.hypercube import bit_fixing_path
    from ..routing.paths import congestion, paths_from_node_walks
    from ..sim.spec import Workload

    if instance.n != cube.n:
        raise NetworkError(
            f"instance is over {instance.n} endpoints, hypercube has {cube.n}"
        )
    L = exact_count(L, "L", 1)
    mids = rng.integers(0, cube.n, size=instance.num_messages)
    phases = []
    for phase, (starts, ends) in enumerate(
        ((instance.sources, mids), (mids, instance.dests)), start=1
    ):
        walks = [
            bit_fixing_path(int(s), int(d), cube.dimension)
            for s, d in zip(starts, ends)
        ]
        paths = paths_from_node_walks(cube.network, walks)
        phases.append(
            Workload(
                cube.network,
                paths,
                default_length=L,
                info={
                    "n": cube.n,
                    "phase": phase,
                    "congestion": congestion(paths),
                    "messages": len(paths),
                },
                facts={"acyclic": True},
            )
        )
    return tuple(phases)
