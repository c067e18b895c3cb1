"""Shared result types and statistics for the router simulators.

All simulators (wormhole, store-and-forward, virtual cut-through) report a
:class:`SimulationResult` measured in **flit steps**, the paper's time
unit: "a flit step is the time taken to transmit one flit across a single
link" — and when each link supports ``B`` virtual channels, the time to
transmit ``B`` flits, one per virtual channel (footnote 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["AdaptiveRunResult", "SimulationResult", "summarize_latencies"]


@dataclass
class SimulationResult:
    """Outcome of one routing simulation.

    Attributes
    ----------
    completion_times:
        Per-message flit step at which the last flit reached the delivery
        buffer; ``-1`` for undelivered messages (deadlock or step cap).
    makespan:
        Largest completion time (``-1`` when nothing was delivered).
    steps_executed:
        Number of flit steps simulated.
    blocked_steps:
        Per-message count of flit steps spent blocked (wanting to move but
        denied a virtual channel / buffer).
    deadlocked:
        True iff the simulator proved no further progress was possible
        while undelivered messages remained.
    hit_step_cap:
        True iff simulation stopped at ``max_steps`` with messages pending.
    """

    completion_times: np.ndarray
    makespan: int
    steps_executed: int
    blocked_steps: np.ndarray
    deadlocked: bool = False
    hit_step_cap: bool = False
    extra: dict = field(default_factory=dict)

    @property
    def num_messages(self) -> int:
        return int(self.completion_times.size)

    @property
    def delivered(self) -> np.ndarray:
        """Boolean mask of delivered messages."""
        return self.completion_times >= 0

    @property
    def all_delivered(self) -> bool:
        return bool(self.delivered.all()) if self.num_messages else True

    @property
    def num_delivered(self) -> int:
        return int(self.delivered.sum())

    @property
    def total_blocked_steps(self) -> int:
        return int(self.blocked_steps.sum())

    def latencies(self, release_times: np.ndarray | None = None) -> np.ndarray:
        """Delivered messages' completion minus release times."""
        mask = self.delivered
        times = self.completion_times[mask].astype(np.float64)
        if release_times is not None:
            times = times - np.asarray(release_times, dtype=np.float64)[mask]
        return times


@dataclass
class AdaptiveRunResult:
    """A :class:`SimulationResult` plus the adaptively chosen routes."""

    result: SimulationResult
    taken_paths: list[list[int]]  # edge ids actually traversed per message

    @property
    def all_delivered(self) -> bool:
        return self.result.all_delivered


def summarize_latencies(latencies: np.ndarray) -> dict[str, float]:
    """Mean / median / p95 / max of a latency sample (empty-safe)."""
    if latencies.size == 0:
        return {"mean": 0.0, "median": 0.0, "p95": 0.0, "max": 0.0}
    return {
        "mean": float(np.mean(latencies)),
        "median": float(np.median(latencies)),
        "p95": float(np.percentile(latencies, 95)),
        "max": float(np.max(latencies)),
    }
