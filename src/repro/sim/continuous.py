"""Continuous (steady-state) wormhole routing.

The paper routes *batches*; Scheideler and Vocking [43] showed that for
*continuous* routing — packets arriving over time by a random process —
the same ``D^(1/B)`` factor governs the maximum injection rate a
``B``-virtual-channel wormhole network can sustain.  This module adds an
open-loop harness around :class:`~repro.sim.wormhole.WormholeSimulator`'s
model: messages are generated over time (Bernoulli arrivals per source
per flit step), routed by a caller-supplied path generator, and the
run reports sustained throughput, latency, and backlog so experiments
can locate the stability knee as a function of ``B``.

Arrivals do not read network state, so a run is a wormhole *workload*:
one :func:`~repro.sim.batch.run_wormhole_batch` call over arrivals and
routes drawn up front (release = arrival step, one injection queue per
source), and the backlog statistic is the paper-model analogue of "the
network is unstable at this rate".
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from ..network.graph import Network, NetworkError
from .batch import run_wormhole_batch
from .spec import exact_int

__all__ = ["ContinuousResult", "ContinuousWormholeSimulator"]

PathGenerator = Callable[[int, np.random.Generator], Sequence[int]]
"""Maps (source index, rng) -> an edge-id path for a new message."""


@dataclass
class ContinuousResult:
    """Outcome of an open-loop run.

    Attributes
    ----------
    generated / delivered:
        Message counts over the measurement window.
    throughput:
        Deliveries per flit step.
    mean_latency:
        Mean delivery time minus arrival time (flit steps), delivered
        messages only.
    final_backlog:
        Messages still queued or in flight at the end; a backlog growing
        linearly with the horizon indicates an unstable rate.
    backlog_series:
        Backlog sampled every ``sample_every`` steps (for trend checks).
    """

    generated: int
    delivered: int
    horizon: int
    mean_latency: float
    final_backlog: int
    backlog_series: np.ndarray
    sample_every: int

    @property
    def throughput(self) -> float:
        return self.delivered / self.horizon if self.horizon else 0.0

    def backlog_slope(self) -> float:
        """Least-squares slope of backlog vs time — ~0 when stable."""
        y = self.backlog_series.astype(np.float64)
        if y.size < 2:
            return 0.0
        x = np.arange(y.size, dtype=np.float64) * self.sample_every
        x = x - x.mean()
        denom = float((x * x).sum())
        return float((x * (y - y.mean())).sum() / denom) if denom else 0.0


class ContinuousWormholeSimulator:
    """Open-loop wormhole simulator with Bernoulli arrivals.

    Parameters
    ----------
    net:
        The network (``num_edges`` is required; sources are caller-level
        indices passed to ``path_of``).
    num_sources:
        Number of injection points.
    num_virtual_channels:
        The ``B`` of the model.
    seed:
        Drives arrivals, path generation, and arbitration: three child
        streams of one generator per ``run()``.
    """

    def __init__(
        self,
        net: Network,
        num_sources: int,
        num_virtual_channels: int = 1,
        seed: int | None = 0,
    ) -> None:
        num_virtual_channels = exact_int(num_virtual_channels, "num_virtual_channels")
        if num_virtual_channels < 1:
            raise NetworkError("need at least one virtual channel")
        if num_sources < 1:
            raise NetworkError("need at least one source")
        self.net = net
        self.num_edges = net.num_edges
        self.num_sources = int(num_sources)
        self.B = num_virtual_channels
        self._rng = np.random.default_rng(seed)

    def run(
        self,
        rate: float | np.ndarray | Sequence[float],
        message_length: int,
        path_of: PathGenerator,
        horizon: int,
        sample_every: int = 50,
    ) -> ContinuousResult:
        """Simulate ``horizon`` flit steps at per-source arrival ``rate``.

        Each flit step, each source independently generates a new message
        with probability ``rate``; its route comes from ``path_of``.
        ``rate`` may also be a ``(horizon,)`` array giving the arrival
        probability of each step — bursty or heavy-tailed open-loop
        traces — with a scalar run being bit-identical to the equivalent
        constant trace (the RNG draw schedule does not change).
        Sources inject FIFO: a source's next message contends for its
        path's first edge from the step after its predecessor's *first*
        move (the predecessor's header has entered the network; its
        other flits may still sit in the injection buffer), as MODEL.md
        section 1 states.
        """
        if horizon < 1:
            raise NetworkError("horizon must be >= 1")
        if sample_every < 1:
            raise NetworkError("sample_every must be >= 1")
        rates = np.asarray(rate, dtype=np.float64)
        if rates.ndim == 0:
            rates = np.full(int(horizon), float(rates))
        elif rates.shape != (int(horizon),):
            raise NetworkError(
                f"per-step rate must have shape ({int(horizon)},), "
                f"got {rates.shape}"
            )
        if not (np.all(rates >= 0.0) and np.all(rates <= 1.0)):
            raise NetworkError("rate must be in [0, 1]")
        L = exact_int(message_length, "message_length")
        if L < 1:
            raise NetworkError("message length L must be >= 1")

        seq = np.random.SeedSequence(self._rng.integers(1 << 32, size=4))
        arrivals, routes, arbitration = map(np.random.default_rng, seq.spawn(3))
        # One block of draws equals one draw per step, in step order.
        hits = arrivals.random((int(horizon), self.num_sources)) < rates[:, None]
        step, source = np.nonzero(hits)
        arrival = step + 1
        paths = [path_of(int(s), routes) for s in source]
        completion = run_wormhole_batch(
            self.net, paths, L,
            seeds=[arbitration], num_virtual_channels=self.B,
            release_times=arrival, max_steps=int(horizon), sources=source,
        )[0].completion_times

        done = completion >= 0
        delivered = int(np.count_nonzero(done))
        latency_sum = int((completion[done] - arrival[done]).sum())
        at = np.arange(sample_every, int(horizon) + 1, sample_every)
        samples = np.searchsorted(arrival, at, "right")
        samples -= np.searchsorted(np.sort(completion[done]), at, "right")
        backlog = len(paths) - delivered
        return ContinuousResult(
            generated=len(paths),
            delivered=delivered,
            horizon=horizon,
            mean_latency=latency_sum / delivered if delivered else 0.0,
            final_backlog=backlog,
            backlog_series=np.asarray(samples, dtype=np.int64),
            sample_every=sample_every,
        )
