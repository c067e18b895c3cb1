"""The restricted virtual-channel model of the Section 1.4 Remarks.

The paper's main model lets an edge transmit ``B`` flits per flit step
(one per virtual channel).  The Remarks consider a *restricted* model:
each switch still buffers ``B`` flits per edge (one per message), but the
edge forwards only **one** flit per step — buffering is increased by a
factor of ``B`` while link bandwidth stays fixed.  The paper notes the
main algorithms emulate this model with a slowdown of ``B``, so
increasing *buffering alone* still cuts the schedule length by about
``D^(1 - 1/B)`` — potentially more than ``B``, a superlinear return on
buffers with no extra wires.

Worms here no longer move in lock-step (different flits of one worm can
advance in different steps as the shared link serves one resident message
at a time), so the simulator tracks per-message, per-edge crossing counts
like the cut-through engine:

* ``crossed[m][i]`` = flits of ``m`` that have crossed path edge ``i``;
* a message is *resident* on edge ``i`` (holding one of its ``B`` buffer
  slots) from its header crossing until its last flit vacates the head
  buffer (crosses edge ``i + 1``; the final edge delivers instantly);
* per step, each edge forwards one flit among its residents' ready flits
  and admissible new headers (rotating service order for fairness);
* a header may cross edge ``i`` only if a slot is free
  (``residents < B``).

The rotating-service advance rule is this router's contribution
(:class:`~repro.sim.kernels.RestrictedKernel`); the step protocol
(release gating, gap skipping, deadlock declaration, step caps, result
assembly) comes from the shared
:class:`~repro.sim.engine.BatchStepLoop`.
:class:`RestrictedWormholeSimulator` is the single-trial front end of
:func:`repro.sim.batch.run_restricted_batch`.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..network.graph import Network
from ..routing.paths import Path
from . import batch
from .stats import SimulationResult

__all__ = ["RestrictedWormholeSimulator"]


class RestrictedWormholeSimulator:
    """Synchronous simulator for the Remarks' buffering-only model.

    Parameters
    ----------
    net:
        The network (only ``num_edges`` is used).
    num_buffers:
        Buffer slots per edge (``B``); each slot holds one flit of a
        distinct message.  Bandwidth is one flit per edge per step
        regardless of ``B``.
    seed:
        Seed for the rotating service order.
    """

    def __init__(
        self,
        net: Network,
        num_buffers: int = 1,
        seed: int | None = 0,
    ) -> None:
        batch.LOCKSTEP_MODELS["restricted"].check(num_buffers, None)
        self.net = net
        self.num_edges = net.num_edges
        self.B = int(num_buffers)
        self._rng = np.random.default_rng(seed)

    def run(
        self,
        paths: Sequence[Path] | Sequence[Sequence[int]],
        message_length: int | np.ndarray,
        release_times: np.ndarray | None = None,
        max_steps: int | None = None,
    ) -> SimulationResult:
        """Route all messages; times in flit steps.

        ``message_length`` may be a scalar or a per-message array.
        """
        return batch.run_restricted_batch(
            self.net,
            paths,
            message_length,
            seeds=[self._rng],
            num_buffers=self.B,
            release_times=release_times,
            max_steps=max_steps,
        )[0]
