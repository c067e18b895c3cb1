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
possible).  Worm mechanics (lock-step motion, strict buffer release,
``B`` slots per edge) match :class:`~repro.sim.batch
.WormholeSimulator` exactly.
"""

from __future__ import annotations

import numpy as np

from ..network.graph import NetworkError
from ..network.multibutterfly import Multibutterfly
from ..routing.problems import RoutingInstance
from ..sim.stats import SimulationResult

__all__ = ["MultibutterflyRouter"]


class MultibutterflyRouter:
    """Online adaptive wormhole router for a multibutterfly."""

    def __init__(
        self,
        mbf: Multibutterfly,
        num_virtual_channels: int = 1,
        seed: int | None = 0,
    ) -> None:
        if num_virtual_channels < 1:
            raise NetworkError("need at least one virtual channel")
        self.mbf = mbf
        self.net = mbf.network
        self.B = int(num_virtual_channels)
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
        L = int(message_length)
        if L < 1:
            raise NetworkError("message length L must be >= 1")
        M = instance.num_messages
        release = (
            np.zeros(M, dtype=np.int64)
            if release_times is None
            else np.asarray(release_times, dtype=np.int64)
        )
        completion = np.full(M, -1, dtype=np.int64)
        blocked = np.zeros(M, dtype=np.int64)
        if M == 0:
            return SimulationResult(completion, -1, 0, blocked)

        D = self.mbf.log_n  # every input-to-output route has log n hops
        if max_steps is None:
            max_steps = int(release.max() + (L + D + 2) * M + 10)

        position = instance.sources.astype(np.int64).copy()  # node ids at lvl 0
        dest_col = instance.dests.astype(np.int64)
        taken: list[list[int]] = [[] for _ in range(M)]
        k = np.zeros(M, dtype=np.int64)
        occupancy = np.zeros(self.net.num_edges, dtype=np.int64)
        done = np.zeros(M, dtype=bool)
        pending = M

        t = 0
        while pending and t < max_steps:
            t += 1
            active = np.flatnonzero(~done & (release < t))
            if active.size == 0:
                t = int(release[~done].min())
                continue
            movers: list[int] = []
            order = active[np.argsort(self._rng.random(active.size))]
            for m in order:
                if k[m] < D:  # head still extending
                    options = self.mbf.candidate_edges(
                        int(position[m]), int(dest_col[m])
                    )
                    free = [e for e in options if occupancy[e] < self.B]
                    if not free:
                        blocked[m] += 1
                        continue
                    e = free[int(self._rng.integers(len(free)))]
                    occupancy[e] += 1
                    taken[m].append(int(e))
                    position[m] = self.net.head(e)
                    movers.append(int(m))
                else:
                    movers.append(int(m))

            for m in movers:
                k[m] += 1
                rel = int(k[m]) - L - 1
                if 0 <= rel < D - 1:
                    occupancy[taken[m][rel]] -= 1
                if k[m] == L + D - 1:
                    occupancy[taken[m][D - 1]] -= 1
                    completion[m] = t
                    done[m] = True
                    pending -= 1

            # A leveled network cannot deadlock; if nothing moved, some
            # release lies in the future (handled by the skip above) or
            # every active head lost arbitration transiently.

        return SimulationResult(
            completion_times=completion,
            makespan=int(completion.max()),
            steps_executed=t,
            blocked_steps=blocked,
            hit_step_cap=pending > 0,
        )
