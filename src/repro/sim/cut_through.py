"""Virtual cut-through router (Kermani-Kleinrock [21]; Section 1.4).

Section 1.4 compares, for a fixed buffer budget, a wormhole router whose
per-edge buffer holds one flit from each of ``B`` different messages
against a virtual cut-through router whose per-edge buffer holds ``B``
flits *of a single message*.  The paper observes the cut-through router
performs roughly like a wormhole router without virtual channels routing
messages of length ``L / B`` — a *linear* speedup in ``B``, versus the
*superlinear* ``B * D**(1 - 1/B)`` available to virtual channels.

Model implemented here (single channel per edge, bandwidth one flit per
flit step):

* each edge's head buffer is owned by at most one message at a time, from
  the step its header crosses until its last flit has moved on;
* up to ``buffer_flits`` flits of the owning message may sit in the
  buffer, so a blocked worm *compresses* instead of stalling flat;
* a flit crosses edge ``i`` when its predecessor flit has left room (or
  it is the header), the message owns (or can claim) the edge, and the
  buffer at the head of ``i`` has space (delivery removes flits
  instantly, as in the wormhole model).

State per message is the vector ``c[i]`` = number of its flits that have
crossed path edge ``i``; the buffer at the head of edge ``i`` holds
``c[i] - c[i+1]`` flits.  One flit may cross each owned edge per step.

The ownership-based advance rule lives in
:class:`~repro.sim.kernels.CutThroughKernel`; the step protocol (release
gating, gap skipping, deadlock declaration, step caps, result assembly)
comes from the shared :class:`~repro.sim.engine.BatchStepLoop`.
:class:`CutThroughSimulator` is the single-trial front end of
:func:`repro.sim.batch.run_cut_through_batch`.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from ..network.graph import Network
from ..routing.paths import Path
from ..telemetry.probe import Probe, ProbeSet
from . import batch
from .stats import SimulationResult

__all__ = ["CutThroughSimulator"]


class CutThroughSimulator:
    """Synchronous virtual cut-through simulator.

    Parameters
    ----------
    net:
        The network.
    buffer_flits:
        Per-edge buffer capacity in flits (the comparison's ``B``).
    priority:
        Arbitration among headers contending for a free edge:
        ``"random"`` or ``"index"``.
    seed:
        Seed for random arbitration.
    """

    def __init__(
        self,
        net: Network,
        buffer_flits: int = 1,
        priority: str = "random",
        seed: int | None = 0,
    ) -> None:
        batch.LOCKSTEP_MODELS["cut_through"].check(buffer_flits, priority)
        self.net = net
        self.num_edges = net.num_edges
        self.buffer_flits = int(buffer_flits)
        self.priority = priority
        self._rng = np.random.default_rng(seed)

    def run(
        self,
        paths: Sequence[Path] | Sequence[Sequence[int]],
        message_length: int | np.ndarray,
        release_times: np.ndarray | None = None,
        max_steps: int | None = None,
        telemetry: "ProbeSet | Probe | Iterable[Probe] | None" = None,
    ) -> SimulationResult:
        """Route all messages; returns flit-step times.

        ``message_length`` may be a scalar or a per-message array.
        ``telemetry`` attaches :mod:`repro.telemetry` probes; grants
        are edge-ownership claims (each implying the owning message's
        ``L`` flits will stream across the edge), releases fire when
        ownership is surrendered.
        """
        return batch.run_cut_through_batch(
            self.net,
            paths,
            message_length,
            seeds=[self._rng],
            buffer_flits=self.buffer_flits,
            priority=self.priority,
            release_times=release_times,
            max_steps=max_steps,
            telemetry=telemetry,
        )[0]
