"""Adaptive wormhole routing on 2-D meshes (Section 1.3.4's category).

The paper surveys *adaptive* deadlock-free wormhole algorithms (Glass-Ni
turn models, fully-adaptive minimal schemes [39], ...) as the third big
strand of wormhole research.  This simulator routes worms whose next hop
is chosen **online** among the minimal (productive) directions, under a
configurable restriction:

``"dimension"``
    Deterministic XY routing (correct X first, then Y) — deadlock-free
    because no turn from Y back to X ever occurs.
``"west-first"``
    The Glass-Ni turn model: if the destination lies to the west, the
    worm first moves fully west (no adaptivity); otherwise it may choose
    adaptively among the productive {east, north, south} moves.  The
    model forbids the two turns into "west", which breaks all cycles —
    deadlock-free on a mesh with a single (virtual) channel.
``"fully-adaptive"``
    Any productive direction, no restriction — *can deadlock* at
    ``B = 1``; included to demonstrate why the restrictions exist.

Worm mechanics are identical to :class:`~repro.sim.wormhole
.WormholeSimulator` (B slots per edge, lock-step motion, strict buffer
release) except the head extends its path one chosen edge at a time.  A
head is *blocked* only when every direction its policy allows is full;
this is where adaptivity pays — the worm routes around congestion.

Route selection and slot occupancy live in
:class:`~repro.sim.kernels.AdaptiveKernel` (the model grants
sequentially in a random head order, each head picking among its free
directions; the kernel serves every head whose outcome cannot depend on
an earlier one in the same pass — MODEL.md section 7) and the step
protocol in the shared
:class:`~repro.sim.engine.BatchStepLoop`.  :class:`AdaptiveMeshRouter`
is the single-trial front end of
:func:`repro.sim.batch.run_adaptive_batch`.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from ..network.mesh import KAryNCube
from ..telemetry.probe import Probe, ProbeSet
from . import batch
from .kernels import check_mesh
from .stats import AdaptiveRunResult

__all__ = ["AdaptiveMeshRouter", "AdaptiveRunResult"]


class AdaptiveMeshRouter:
    """Online adaptive wormhole router for a 2-D mesh.

    Parameters
    ----------
    cube:
        A :class:`~repro.network.mesh.KAryNCube` with ``n == 2`` and
        ``wrap=False`` (turn models are stated for meshes).
    num_virtual_channels:
        Slots per edge, as in the main model.
    policy:
        One of ``"dimension"``, ``"west-first"``, ``"fully-adaptive"``.
    seed:
        Random tie-breaking among allowed free directions and among
        contending headers.
    """

    def __init__(
        self,
        cube: KAryNCube,
        num_virtual_channels: int = 1,
        policy: str = "west-first",
        seed: int | None = 0,
    ) -> None:
        check_mesh(cube)
        batch.LOCKSTEP_MODELS["adaptive"].check(num_virtual_channels, policy)
        self.cube = cube
        self.net = cube.network
        self.B = int(num_virtual_channels)
        self.policy = policy
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    def run(
        self,
        demands: list[tuple[int, int]],
        message_length: int,
        release_times: np.ndarray | None = None,
        max_steps: int | None = None,
        telemetry: "ProbeSet | Probe | Iterable[Probe] | None" = None,
    ) -> AdaptiveRunResult:
        """Route ``(source, destination)`` node-id demands adaptively.

        ``telemetry`` attaches :mod:`repro.telemetry` probes.  Because
        routes are chosen online, ``meta.paths`` is ``None``; a blocked
        head reports the first edge its policy allowed as the edge it
        wanted.
        """
        return batch.run_adaptive_batch(
            self.cube,
            demands,
            message_length,
            seeds=[self._rng],
            num_virtual_channels=self.B,
            policy=self.policy,
            release_times=release_times,
            max_steps=max_steps,
            telemetry=telemetry,
        )[0]
