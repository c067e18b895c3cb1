"""Generic service metrics: counters, gauges, histograms, latencies.

The probe collectors in :mod:`repro.telemetry.collectors` observe one
simulation run from the inside.  The :mod:`repro.service` layer needs
the complementary view — aggregate statistics *across* requests: how
deep the admission queue runs, how full the lockstep batches are, how
many requests were rejected, and what the response-latency tail looks
like.  These collectors are deliberately tiny and dependency-free
(stdlib only) so the asyncio server can update them on its hot path,
and every one renders itself to a JSON-safe ``snapshot()`` that the
service's ``stats`` endpoint returns verbatim.

All collectors are single-threaded by design: the asyncio event loop is
the only writer, so no locking is needed.
"""

from __future__ import annotations

from collections import Counter

__all__ = [
    "DepthGauge",
    "EventCounter",
    "LatencyRecorder",
    "SizeHistogram",
    "StateGauge",
    "quantile",
]


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile of an unsorted sample (empty -> 0).

    ``q`` is a fraction in ``[0, 1]``; matches ``numpy.percentile``'s
    default (linear) method without requiring numpy.
    """
    if not values:
        return 0.0
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile fraction must be in [0, 1], got {q}")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


class EventCounter:
    """A fixed set of named monotonic counters.

    The names are declared up front so the snapshot always carries every
    key (dashboards and tests never have to guard missing fields) and a
    typo'd ``bump`` is an error rather than a silently new series.
    """

    def __init__(self, *names: str) -> None:
        self._counts: dict[str, int] = {name: 0 for name in names}

    def bump(self, name: str, n: int = 1) -> None:
        if name not in self._counts:
            raise KeyError(f"unknown counter {name!r}")
        self._counts[name] += n

    def __getitem__(self, name: str) -> int:
        return self._counts[name]

    def snapshot(self) -> dict[str, int]:
        return dict(self._counts)


class DepthGauge:
    """A current-value gauge that remembers its high-water mark."""

    def __init__(self) -> None:
        self.value = 0
        self.peak = 0

    def set(self, value: int) -> None:
        self.value = int(value)
        if self.value > self.peak:
            self.peak = self.value

    def snapshot(self) -> dict[str, int]:
        return {"depth": self.value, "peak": self.peak}


class StateGauge:
    """A named-state gauge that counts transitions.

    Tracks which discrete state a component is in (e.g. an execution
    backend running as ``"process"`` vs degraded to ``"inline"``) and
    how many times it has changed state — a cheap way to surface "this
    fell over and recovered N times" without keeping an event log.
    """

    def __init__(self, initial: str) -> None:
        self.state = str(initial)
        self.transitions = 0

    def set(self, state: str) -> None:
        state = str(state)
        if state != self.state:
            self.state = state
            self.transitions += 1

    def snapshot(self) -> dict:
        return {"state": self.state, "transitions": self.transitions}


class SizeHistogram:
    """Integer-size occupancy histogram (e.g. trials per lockstep batch)."""

    def __init__(self) -> None:
        self.counts: Counter[int] = Counter()

    def record(self, size: int) -> None:
        self.counts[int(size)] += 1

    @property
    def count(self) -> int:
        return sum(self.counts.values())

    @property
    def total(self) -> int:
        return sum(size * n for size, n in self.counts.items())

    def mean(self) -> float:
        n = self.count
        return self.total / n if n else 0.0

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "mean_occupancy": round(self.mean(), 4),
            "occupancy_hist": {
                str(size): n for size, n in sorted(self.counts.items())
            },
        }


#: Most recent observations a :class:`LatencyRecorder` keeps.
LATENCY_WINDOW = 4096


class LatencyRecorder:
    """A latency sample with mean / p50 / p95 / p99 / max summaries.

    Keeps at most :data:`LATENCY_WINDOW` of the most recent observations
    (a simple bounded window, not a reservoir) so a long-running service
    cannot grow without bound; the running count and mean cover the full
    history.
    """

    def __init__(self) -> None:
        self._window: list[float] = []
        self._count = 0
        self._sum = 0.0

    def record(self, seconds: float) -> None:
        self._count += 1
        self._sum += seconds
        self._window.append(seconds)
        if len(self._window) > LATENCY_WINDOW:
            del self._window[: len(self._window) - LATENCY_WINDOW]

    @property
    def count(self) -> int:
        return self._count

    def summary(self) -> dict[str, float]:
        ms = [s * 1000.0 for s in self._window]
        mean = (self._sum / self._count * 1000.0) if self._count else 0.0
        return {
            "count": self._count,
            "mean": round(mean, 3),
            "p50": round(quantile(ms, 0.50), 3),
            "p95": round(quantile(ms, 0.95), 3),
            "p99": round(quantile(ms, 0.99), 3),
            "max": round(max(ms), 3) if ms else 0.0,
        }
