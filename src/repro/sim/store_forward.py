"""Store-and-forward router (Section 1, baseline for E5).

In a store-and-forward router a switch must buffer an *entire* message
before forwarding it, so a message makes discrete hops; the time to cross
one link is a *message step* of ``ceil(L / B)`` flit steps (an edge can
push ``B`` flits per flit step when it supports ``B`` virtual channels,
and the classic ``B = 1`` case gives ``L`` flit steps per hop).

The scheduler here is the greedy online protocol analyzed in the
literature the paper builds on (Leighton-Maggs-Rao [27] proved optimal
``O(C + D)`` schedules exist; Mansour and Patt-Shamir [33] bound greedy
shortest-path schedules): each edge forwards one waiting message per
message step, with a configurable priority — ``"random"``,
``"age"`` (earliest injected first) or ``"farthest"`` (longest remaining
distance first, the classic greedy rule).

An optional initial random delay in ``[0, delay_range)`` message steps per
message implements the random-delay smoothing trick behind the
``O(C + D log n)`` online algorithm of [27].

Unlike every other router, store-and-forward performs **no**
edge-simplicity validation — deliberately.  A slot-holding router (worm
spanning several edges) can self-deadlock on a path that repeats an
edge, so those routers reject such paths; here an edge is held only
within the message step it transmits and queues are unbounded, so a
repeated edge simply means the message queues at that edge twice.  The
exemption is part of the engine's validation contract (see
:mod:`repro.sim.engine`).

The greedy protocol also cannot deadlock — every contended edge forwards
exactly one message per message step — so the shared
:class:`~repro.sim.engine.BatchStepLoop` runs with deadlock detection
off.  :class:`StoreForwardSimulator` is the single-trial front end of
:func:`repro.sim.batch.run_store_forward_batch`.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from ..network.graph import Network
from ..routing.paths import Path
from ..telemetry.probe import Probe, ProbeSet
from . import batch
from .stats import SimulationResult

__all__ = ["StoreForwardSimulator"]


class StoreForwardSimulator:
    """Greedy synchronous store-and-forward simulator.

    Queues at the tail of each edge are unbounded (buffer growth is
    reported in ``extra["max_queue"]`` so experiments can check the
    constant-buffer claims of [27, 42] empirically).  Each edge transmits
    at most one message per message step.

    Parameters
    ----------
    net:
        The network (only edge count and structure via paths are used).
    bandwidth_flits_per_step:
        ``B`` in footnote 4; one hop costs ``ceil(L / B)`` flit steps.
    priority:
        Arbitration rule among messages queued on the same edge.
    seed:
        Seed for random arbitration / delays.
    """

    def __init__(
        self,
        net: Network,
        bandwidth_flits_per_step: int = 1,
        priority: str = "farthest",
        seed: int | None = 0,
    ) -> None:
        batch.LOCKSTEP_MODELS["store_forward"].check(
            bandwidth_flits_per_step, priority
        )
        self.net = net
        self.bandwidth = int(bandwidth_flits_per_step)
        self.priority = priority
        self._rng = np.random.default_rng(seed)

    def run(
        self,
        paths: Sequence[Path] | Sequence[Sequence[int]],
        message_length: int,
        release_times: np.ndarray | None = None,
        delay_range: int = 0,
        max_steps: int | None = None,
        telemetry: "ProbeSet | Probe | Iterable[Probe] | None" = None,
    ) -> SimulationResult:
        """Route all messages; times are reported in **flit steps**.

        ``release_times`` are in flit steps and are rounded up to message
        steps.  ``delay_range > 0`` adds an extra uniform random delay of
        ``[0, delay_range)`` message steps per message.

        ``telemetry`` attaches :mod:`repro.telemetry` probes.  Events
        use the simulator's native **message steps** as the time axis
        (``meta.extra["flit_steps_per_step"]`` converts); each grant
        means the whole ``L``-flit message crosses the edge this step.
        """
        return batch.run_store_forward_batch(
            self.net,
            paths,
            message_length,
            seeds=[self._rng],
            bandwidth_flits_per_step=self.bandwidth,
            priority=self.priority,
            delay_range=delay_range,
            release_times=release_times,
            max_steps=max_steps,
            telemetry=telemetry,
        )[0]
