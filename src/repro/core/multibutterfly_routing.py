"""Adaptive wormhole routing on multibutterflies ([3], Section 1.3.4).

Arora, Leighton and Maggs route ``n`` ``L``-flit messages from the
inputs to the outputs of an ``n``-input multibutterfly in
``O(L + log n)`` flit steps, online: the ``d``-fold path diversity at
every level means a blocked header simply takes one of the other
correct-direction edges.

The router here is the direct wormhole realization of that idea: heads
extend level by level, choosing uniformly among the destination-correct
edges with a free virtual channel; if all ``d`` are full the worm
stalls (and retries — the network is leveled, so no deadlock is
possible).  It is the adaptive model of :mod:`repro.sim.batch` with
policy ``"fully-adaptive"`` (MODEL.md section 7): worm mechanics
(lock-step motion, strict buffer release, ``B`` slots per edge) match
:func:`~repro.sim.batch.run_wormhole_batch` exactly.
"""

from __future__ import annotations

import numpy as np

from ..network.graph import NetworkError
from ..network.multibutterfly import Multibutterfly
from ..routing.problems import RoutingInstance
from ..sim.batch import LOCKSTEP_MODELS, run_adaptive_batch
from ..sim.stats import SimulationResult

__all__ = ["MultibutterflyRouter"]


class MultibutterflyRouter:
    """Online adaptive wormhole router for a multibutterfly: ``run`` is
    :func:`~repro.sim.batch.run_adaptive_batch` with one seed, and
    successive runs continue one random stream."""

    def __init__(
        self,
        mbf: Multibutterfly,
        num_virtual_channels: int = 1,
        seed: int | None = 0,
    ) -> None:
        LOCKSTEP_MODELS["adaptive"].check(num_virtual_channels, "fully-adaptive")
        self.mbf = mbf
        self.net = mbf.network
        self.B = num_virtual_channels
        self._rng = np.random.default_rng(seed)

    def run(
        self,
        instance: RoutingInstance,
        message_length: int,
        release_times: np.ndarray | None = None,
        max_steps: int | None = None,
    ) -> SimulationResult:
        """Route input->output demands; returns flit-step times."""
        if instance.n != self.mbf.n:
            raise NetworkError(
                f"instance over {instance.n} endpoints, network has {self.mbf.n}"
            )
        return run_adaptive_batch(
            self.mbf,
            np.stack([instance.sources, instance.dests], axis=1),
            message_length,
            seeds=[self._rng],
            num_virtual_channels=self.B,
            policy="fully-adaptive",
            release_times=release_times,
            max_steps=max_steps,
        )[0].result
