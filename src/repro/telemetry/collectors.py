"""Standard collectors: probes that accumulate run statistics.

These are the observables that buffer-aware wormhole analyses single
out: per-channel utilization, per-buffer occupancy, head-of-line
blocking attribution, and delivered throughput / injection backlog.
Each collector is independent; attach any subset via the simulators'
``telemetry=`` parameter.  Attaching collectors never changes a
simulation's outcome — they observe the event stream, they do not touch
simulator state or its random number generator.
"""

from __future__ import annotations

from collections import Counter, defaultdict

import numpy as np

from .probe import Probe, RunMeta

__all__ = [
    "BufferOccupancyCollector",
    "ChannelUtilizationCollector",
    "StallAttributionCollector",
    "ThroughputCollector",
    "TraceSnapshotCollector",
    "standard_collectors",
]


def standard_collectors() -> list[Probe]:
    """The default profiling bundle (what ``repro profile`` attaches)."""
    return [
        ChannelUtilizationCollector(),
        BufferOccupancyCollector(),
        StallAttributionCollector(),
        ThroughputCollector(),
    ]


class ChannelUtilizationCollector(Probe):
    """Per-edge flits-crossed totals and per-step network throughput.

    For the wormhole engine the count is *exact*: in the lock-step
    reduction, a worm that makes move ``k`` transports its flits
    ``1..L`` across path edges ``k - L .. k - 1`` (clipped to the path),
    so the per-step crossings are re-derived from the movers alone.  For
    engines without the lock-step invariant (cut-through ownership,
    store-and-forward hops, adaptive routing) each ``on_grant`` is
    weighted by the engine's ``flits_per_grant`` hint instead.

    Attributes
    ----------
    flits_crossed:
        ``(num_edges,)`` total flits transported per physical edge.
    flits_per_step:
        List of ``(t, flits)`` — network-wide flits moved each step
        (wormhole engine only).
    """

    def __init__(self) -> None:
        self.flits_crossed: np.ndarray = np.zeros(0, dtype=np.int64)
        self.flits_per_step: list[tuple[int, int]] = []

    def on_run_start(self, meta: RunMeta) -> None:
        self.flits_crossed = np.zeros(meta.num_edges, dtype=np.int64)
        self.flits_per_step = []
        self._exact = meta.simulator == "wormhole" and meta.paths is not None
        self._paths = meta.paths
        self._L = meta.message_length
        self._D = meta.lengths
        w = meta.extra.get("flits_per_grant", 1)
        self._grant_weight = np.asarray(w) if not np.isscalar(w) else w

    def on_grant(self, t: int, messages: np.ndarray, edges: np.ndarray) -> None:
        if self._exact:
            return  # exact flit spans are counted in on_step instead
        w = self._grant_weight
        weights = w[messages] if isinstance(w, np.ndarray) else w
        np.add.at(self.flits_crossed, edges, weights)

    def on_step(self, t: int, movers: np.ndarray, k: np.ndarray) -> None:
        if self._exact and movers.size:
            # Move number k transports flit j across edge k - j; the
            # per-worm span is [max(0, k - L), min(k - 1, D - 1)].
            k_new = k[movers]
            lo = np.maximum(k_new - self._L[movers], 0)
            hi = np.minimum(k_new - 1, self._D[movers] - 1)
            counts = hi - lo + 1
            total = int(counts.sum())
            if total:
                msg_rep = np.repeat(movers, counts)
                starts = np.repeat(lo, counts)
                offsets = np.arange(total) - np.repeat(
                    np.cumsum(counts) - counts, counts
                )
                crossed = self._paths[msg_rep, starts + offsets]
                np.add.at(self.flits_crossed, crossed, 1)
            self.flits_per_step.append((t, total))
        elif self._exact:
            self.flits_per_step.append((t, 0))

    # ------------------------------------------------------------------
    @property
    def total_flits(self) -> int:
        return int(self.flits_crossed.sum())

    def hottest(self, n: int = 5) -> list[tuple[int, int]]:
        """The ``n`` busiest edges as ``(edge_id, flits)``, descending."""
        if self.flits_crossed.size == 0:
            return []
        order = np.argsort(self.flits_crossed, kind="stable")[::-1][:n]
        return [
            (int(e), int(self.flits_crossed[e]))
            for e in order
            if self.flits_crossed[e] > 0
        ]


class BufferOccupancyCollector(Probe):
    """Per-edge buffer-slot occupancy histograms.

    Tracks its own occupancy image from grant/release events and, each
    step, adds the end-of-step occupancy of every edge into a
    ``(num_edges, B + 1)`` histogram — ``hist[e, c]`` is the number of
    steps edge ``e`` spent with exactly ``c`` occupied slots.
    """

    def __init__(self) -> None:
        self.hist: np.ndarray = np.zeros((0, 1), dtype=np.int64)
        self.occupancy: np.ndarray = np.zeros(0, dtype=np.int64)
        self.max_occupancy: np.ndarray = np.zeros(0, dtype=np.int64)
        self.steps_observed = 0

    def on_run_start(self, meta: RunMeta) -> None:
        E, B = meta.num_edges, meta.num_virtual_channels
        self._B = B
        self.hist = np.zeros((E, B + 1), dtype=np.int64)
        self.occupancy = np.zeros(E, dtype=np.int64)
        self.max_occupancy = np.zeros(E, dtype=np.int64)
        self.steps_observed = 0
        self._rows = np.arange(E)

    def on_grant(self, t: int, messages: np.ndarray, edges: np.ndarray) -> None:
        np.add.at(self.occupancy, edges, 1)

    def on_release(self, t: int, messages: np.ndarray, edges: np.ndarray) -> None:
        np.add.at(self.occupancy, edges, -1)

    def on_step(self, t: int, movers: np.ndarray, k: np.ndarray) -> None:
        levels = np.clip(self.occupancy, 0, self._B)
        self.hist[self._rows, levels] += 1
        np.maximum(self.max_occupancy, self.occupancy, out=self.max_occupancy)
        self.steps_observed += 1

    # ------------------------------------------------------------------
    def mean_occupancy(self) -> np.ndarray:
        """Per-edge mean occupied slots over the observed steps."""
        if self.steps_observed == 0:
            return np.zeros(self.hist.shape[0], dtype=np.float64)
        levels = np.arange(self.hist.shape[1], dtype=np.float64)
        return (self.hist * levels).sum(axis=1) / self.steps_observed

    def global_histogram(self) -> np.ndarray:
        """Fraction of edge-steps spent at each occupancy level."""
        totals = self.hist.sum(axis=0).astype(np.float64)
        denom = totals.sum()
        return totals / denom if denom else totals


class StallAttributionCollector(Probe):
    """Who blocked whom: the head-of-line blame graph.

    Every time a header is denied an edge, one unit of blame flows from
    the blocked message to each message currently holding a slot on that
    edge.  Holder sets are reconstructed from the grant/release event
    stream, so the collector works with any engine that emits both.
    """

    def __init__(self) -> None:
        self.blame: Counter[tuple[int, int]] = Counter()
        self.blocked_at_edge: Counter[int] = Counter()
        self.blocked_steps: Counter[int] = Counter()
        self._holders: defaultdict[int, set[int]] = defaultdict(set)

    def on_run_start(self, meta: RunMeta) -> None:
        self.blame = Counter()
        self.blocked_at_edge = Counter()
        self.blocked_steps = Counter()
        self._holders = defaultdict(set)

    def on_grant(self, t: int, messages: np.ndarray, edges: np.ndarray) -> None:
        for m, e in zip(messages.tolist(), edges.tolist()):
            self._holders[e].add(m)

    def on_release(self, t: int, messages: np.ndarray, edges: np.ndarray) -> None:
        for m, e in zip(messages.tolist(), edges.tolist()):
            self._holders[e].discard(m)

    def on_block(self, t: int, messages: np.ndarray, edges: np.ndarray) -> None:
        for m, e in zip(messages.tolist(), edges.tolist()):
            if e < 0:
                continue
            self.blocked_at_edge[e] += 1
            self.blocked_steps[m] += 1
            for holder in self._holders[e]:
                if holder != m:
                    self.blame[(m, holder)] += 1

    # ------------------------------------------------------------------
    def top_blame(self, n: int = 5) -> list[tuple[int, int, int]]:
        """Worst ``(blocked, holder, steps)`` pairs, descending."""
        return [(m, h, c) for (m, h), c in self.blame.most_common(n)]

    def blame_chain(self, start: int | None = None, max_len: int = 8) -> list[int]:
        """Follow the heaviest blame edges from the most-blocked worm.

        Returns a message-id chain ``[a, b, c, ...]`` meaning "``a`` was
        mostly blocked behind ``b``, which was mostly blocked behind
        ``c``, ..." — the dominant head-of-line convoy.  Stops at a
        cycle, at a message that was never blocked, or at ``max_len``.
        """
        if start is None:
            if not self.blocked_steps:
                return []
            start = self.blocked_steps.most_common(1)[0][0]
        chain = [start]
        seen = {start}
        while len(chain) < max_len:
            cur = chain[-1]
            culprits = [
                (c, h) for (m, h), c in self.blame.items() if m == cur
            ]
            if not culprits:
                break
            _, nxt = max(culprits)
            if nxt in seen:
                break
            chain.append(nxt)
            seen.add(nxt)
        return chain


class ThroughputCollector(Probe):
    """Delivered flits/messages per step and the injection backlog.

    ``backlog[i]`` counts messages that are released but have not yet
    entered the network at step ``steps[i]`` — the paper-model analogue
    of "the injection buffers are filling up".
    """

    def __init__(self) -> None:
        self.steps: list[int] = []
        self.backlog: list[int] = []
        self.delivered_at: Counter[int] = Counter()
        self.delivered_total = 0

    def on_run_start(self, meta: RunMeta) -> None:
        self.steps = []
        self.backlog = []
        self.delivered_at = Counter()
        self.delivered_total = 0
        self._release = meta.release
        self._D = meta.lengths
        self._L = meta.message_length

    def on_complete(self, t: int, messages: np.ndarray) -> None:
        self.delivered_at[t] += int(messages.size)
        self.delivered_total += int(messages.size)

    def on_step(self, t: int, movers: np.ndarray, k: np.ndarray) -> None:
        # Released but not injected: k == 0 means the header never moved
        # (delivered nontrivial messages have k >= 1, so no false hits).
        waiting = (self._release < t) & (k == 0) & (self._D > 0)
        self.steps.append(t)
        self.backlog.append(int(waiting.sum()))

    # ------------------------------------------------------------------
    def delivered_series(self) -> np.ndarray:
        """Deliveries aligned with :attr:`steps` (one entry per step)."""
        return np.asarray(
            [self.delivered_at.get(t, 0) for t in self.steps], dtype=np.int64
        )

    @property
    def peak_backlog(self) -> int:
        return max(self.backlog) if self.backlog else 0

    def mean_rate(self) -> float:
        """Delivered messages per observed step."""
        return self.delivered_total / len(self.steps) if self.steps else 0.0


class TraceSnapshotCollector(Probe):
    """Per-step completed-move snapshots — the spacetime-diagram input.

    Reproduces the ``(steps, M)`` matrix previously returned by the
    wormhole simulator's ``record_trace=True`` (``-1`` before release),
    consumable by :func:`repro.analysis.render.render_spacetime`.
    """

    def __init__(self) -> None:
        self._rows: list[np.ndarray] = []
        self._release: np.ndarray | None = None

    def on_run_start(self, meta: RunMeta) -> None:
        self._rows = []
        self._release = meta.release

    def on_step(self, t: int, movers: np.ndarray, k: np.ndarray) -> None:
        self._rows.append(np.where(self._release < t, k, -1))

    @property
    def matrix(self) -> np.ndarray:
        """The ``(steps, M)`` snapshot matrix (empty-safe)."""
        return (
            np.vstack(self._rows)
            if self._rows
            else np.zeros((0, 0), dtype=np.int64)
        )
