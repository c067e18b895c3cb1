"""Continuous (steady-state) wormhole routing.

The paper routes *batches*; Scheideler and Vocking [43] showed that for
*continuous* routing — packets arriving over time by a random process —
the same ``D^(1/B)`` factor governs the maximum injection rate a
``B``-virtual-channel wormhole network can sustain.  Experiments locate
that stability knee as a function of ``B`` from open-loop runs:
messages generated over time (Bernoulli arrivals per source per flit
step), routed by a caller-supplied path generator, and reported as
sustained throughput, latency and backlog.

Arrivals do not read network state, so an open-loop run is an ordinary
wormhole :class:`~repro.sim.spec.Workload`:

* :func:`open_loop_streams` splits one seed into the arrival, route and
  arbitration streams;
* :func:`draw_arrivals` draws the trace up front — release = arrival
  step, one injection queue per source — into the workload's
  ``release_times`` / ``sources`` / ``paths``;
* one :func:`~repro.sim.batch.run_model` ``("wormhole", ...)`` call with
  ``max_steps`` = the horizon runs it at every ``B`` in lockstep, each
  trial seeded from the arbitration child;
* :meth:`ContinuousResult.of` reads the rate report off each finished
  trial.  Its backlog statistic is the paper-model analogue of "the
  network is unstable at this rate".

The arrival scenarios (``repro.scenarios``) draw their traces with the
same helper and run them as ordinary wormhole trials.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from ..network.graph import NetworkError
from .kernels import exact_count

__all__ = ["ContinuousResult", "draw_arrivals", "open_loop_streams"]

PathGenerator = Callable[[int, np.random.Generator], Sequence[int]]
"""Maps (source index, rng) -> an edge-id path for a new message."""


def open_loop_streams(
    seed,
) -> tuple[np.random.Generator, np.random.Generator, np.random.SeedSequence]:
    """One open-loop seed as ``(arrivals, routes, arbitration)``: the
    generators :func:`draw_arrivals` reads, and the child seed every
    trial of the run builds its own arbitration generator from."""
    entropy = np.random.default_rng(seed).integers(1 << 32, size=4)
    arrivals, routes, arbitration = np.random.SeedSequence(entropy).spawn(3)
    return np.random.default_rng(arrivals), np.random.default_rng(routes), arbitration


def draw_arrivals(
    rates: np.ndarray,
    num_sources: int,
    path_of: PathGenerator,
    arrivals: np.random.Generator,
    routes: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, list]:
    """One open-loop trace: ``(release times, sources, paths)``.

    Each of ``num_sources`` sources generates a message at flit step
    ``t`` (1-based) with probability ``rates[t - 1]``, drawn from
    ``arrivals``; the message is released at ``t`` and routed by
    ``path_of(source, routes)``.  Messages are in (step, source) order,
    so each source's messages are in release order — the FIFO order of
    its injection queue.
    """
    num_sources = exact_count(num_sources, "num_sources", 1)
    if not (np.all(rates >= 0.0) and np.all(rates <= 1.0)):
        raise NetworkError("rate must be in [0, 1]")
    # One block of draws equals one draw per step, in step order.
    hits = arrivals.random((rates.size, num_sources)) < rates[:, None]
    step, source = np.nonzero(hits)
    return step + 1, source, [path_of(int(s), routes) for s in source]


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

    @classmethod
    def of(
        cls, release_times, completion_times, horizon: int, sample_every: int = 50
    ) -> ContinuousResult:
        """The report of a trial run for ``horizon`` steps: per-message
        release and completion times (``-1`` undelivered), the backlog
        — released, not yet delivered — sampled every ``sample_every``
        steps."""
        sample_every = exact_count(sample_every, "sample_every", 1)
        release = np.asarray(release_times, dtype=np.int64)
        completion = np.asarray(completion_times, dtype=np.int64)
        done = completion >= 0
        delivered = int(np.count_nonzero(done))
        latency_sum = int((completion[done] - release[done]).sum())
        at = np.arange(sample_every, horizon + 1, sample_every)
        samples = np.searchsorted(np.sort(release), at, "right")
        samples -= np.searchsorted(np.sort(completion[done]), at, "right")
        return cls(
            generated=release.size,
            delivered=delivered,
            horizon=horizon,
            mean_latency=latency_sum / delivered if delivered else 0.0,
            final_backlog=release.size - delivered,
            backlog_series=samples.astype(np.int64),
            sample_every=sample_every,
        )
