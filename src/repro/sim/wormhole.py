"""Flit-level wormhole router with ``B`` virtual channels (Section 1.1).

This simulator implements the paper's machine model exactly:

* Each edge (physical channel) multiplexes ``B`` virtual channels.  The
  buffer at the head of each edge holds up to ``B`` flits, **each
  belonging to a different message**.
* In one flit step, one flit can cross each of the ``B`` virtual channels
  of an edge — so up to ``B`` flits per edge per step, at most one per
  message.
* The header flit cannot cross an edge whose buffer has no free slot;
  while it is stalled, every flit behind it stalls too (switches buffer
  only one flit per message).
* Messages start in external injection buffers and are injected one flit
  per step; flits reaching the destination are removed immediately into
  external delivery buffers.

Because each virtual-channel buffer holds exactly one flit, an unblocked
worm advances in lock-step: in a step where the worm moves, *every* edge
currently holding one of its flits forwards that flit.  The simulator
therefore keeps one integer per message — the number of completed moves
``k`` — instead of per-flit state, which is bit-exact with flit-level
simulation of this model:

* during its move ``k`` (1-indexed) the worm's flit ``j`` crosses edge
  ``k - j`` of its path (when ``0 <= k - j <= D_m - 1``);
* the worm acquires a virtual channel (buffer slot) on path edge ``k - 1``
  at move ``k`` (for ``k <= D_m``) and releases the slot on edge
  ``k - L - 1`` after move ``k``: the last flit ``L`` crosses edge ``i``
  during move ``i + L`` and *leaves its head buffer* during move
  ``i + L + 1``, so only then is the slot free for another header.  Slots
  on the final edge are released at completion (delivered flits are
  removed from the network immediately);
* the worm finishes after ``L + D_m - 1`` moves, matching the paper's
  unobstructed latency ``D + L - 1``.

The per-step state update is fully vectorized and lives in
:class:`~repro.sim.kernels.WormholeKernel`; the shared
:mod:`repro.sim.engine` core owns the rest — the
:class:`~repro.sim.engine.BatchSlotArbiter` the contend/rank/grant
kernel and slot occupancy, the :class:`~repro.sim.engine.BatchStepLoop`
release gating, step caps, deadlock declaration, the probe lifecycle and
result assembly.  :class:`WormholeSimulator` is the single-trial front
end of :func:`repro.sim.batch.run_wormhole_batch`: one ``run()`` is that
driver with one seed.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from ..network.graph import Network
from ..routing.paths import Path
from ..telemetry.probe import Probe, ProbeSet
from . import batch
from .engine import PaddedPaths
from .stats import SimulationResult

__all__ = ["PaddedPaths", "WormholeSimulator"]


class WormholeSimulator:
    """Synchronous flit-level wormhole simulator.

    Parameters
    ----------
    net:
        The network; only its edge count is needed for channel state, so
        arithmetic topologies may pass a pre-built :class:`Network` or any
        object with a ``num_edges`` attribute.
    num_virtual_channels:
        The paper's ``B >= 1``.
    priority:
        Arbitration among header flits contending for the free slots of
        the same edge: ``"random"`` (fresh random priorities each step),
        ``"age"`` (earlier-released message wins, ties by index),
        ``"index"`` (message index order, fully deterministic), or
        ``"rank"`` (a random rank drawn once per message and kept for the
        whole run — the fixed-priority discipline of Greenberg and Oh's
        universal wormhole algorithm [19]).
    seed:
        Seed for ``"random"`` arbitration (ignored otherwise).

    Notes
    -----
    Virtual-channel slots freed in step ``t`` become available in step
    ``t + 1`` (conservative synchronous semantics): a header never chases
    the tail of another worm through an edge within a single flit step.
    """

    def __init__(
        self,
        net: Network,
        num_virtual_channels: int = 1,
        priority: str = "random",
        seed: int | None = 0,
    ) -> None:
        batch.LOCKSTEP_MODELS["wormhole"].check(num_virtual_channels, priority)
        self.net = net
        self.num_edges = net.num_edges
        self.B = int(num_virtual_channels)
        self.priority = priority
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    def run(
        self,
        paths: Sequence[Path] | Sequence[Sequence[int]] | PaddedPaths,
        message_length: int | np.ndarray,
        release_times: np.ndarray | None = None,
        max_steps: int | None = None,
        vc_ids: np.ndarray | Sequence[Sequence[int]] | None = None,
        telemetry: "ProbeSet | Probe | Iterable[Probe] | None" = None,
    ) -> SimulationResult:
        """Route all messages; returns a :class:`SimulationResult`.

        Parameters
        ----------
        paths:
            Per-message routes — :class:`Path` objects, raw edge-id
            sequences, or a pre-packed
            :class:`~repro.sim.engine.PaddedPaths` (which skips the
            per-run re-pack and caches the edge-simplicity check across
            runs).  Paths must be edge-simple (a worm cannot hold two
            virtual channels on one edge).
        message_length:
            The paper's ``L`` (>= 1 flits), scalar or per-message array.
        release_times:
            Flit step at which each message becomes available for
            injection (default: all 0; injection is attempted from step
            ``release + 1`` on).  This is how Theorem 2.1.6 schedules are
            executed.
        max_steps:
            Safety cap; defaults to the engine's documented wormhole
            bound (see :func:`repro.sim.batch.default_step_cap`).
        vc_ids:
            Optional per-hop virtual-channel *class* assignment — the
            Dally-Seitz mechanism proper.  Ragged per-message sequences
            (same lengths as ``paths``) of integers in ``[0, B)``; a
            header may then only enter the *assigned* virtual channel of
            each edge (one buffer slot per (edge, class)).  Without it,
            the ``B`` slots of an edge are interchangeable (the paper's
            Section 1.1 reading).  Class assignments are what make
            deadlock-freedom *provable* (acyclic CDG); interchangeable
            slots merely make deadlock unlikely.
        telemetry:
            Probes to instrument the run — a
            :class:`~repro.telemetry.probe.ProbeSet`, a single
            :class:`~repro.telemetry.probe.Probe`, or an iterable of
            probes (see :mod:`repro.telemetry`).  With nothing attached
            the hot loop performs no probe dispatch at all, and attached
            collectors never perturb the simulation (no RNG draws, no
            state writes), so results are bit-identical either way.
        """
        return batch.run_wormhole_batch(
            self.net,
            paths,
            message_length,
            seeds=[self._rng],
            num_virtual_channels=self.B,
            priority=self.priority,
            release_times=release_times,
            max_steps=max_steps,
            vc_ids=vc_ids,
            telemetry=telemetry,
        )[0]
