"""The single-process tier: admission, dynamic batching, stats.

:class:`SimulationService` is the :class:`~repro.service.endpoint
.Endpoint` whose ``dispatch`` runs the trial in this process:

* a bounded :class:`~repro.service.admission.AdmissionQueue` — a full
  queue answers ``rejected`` with a ``retry_after_ms`` drain estimate
  instead of queueing unboundedly;
* the :class:`~repro.service.batcher.DynamicBatcher` coalescing
  compatible requests into lockstep batches;
* :mod:`repro.telemetry.metrics` collectors (request counters,
  queue-depth gauge, batch-occupancy histogram, latency quantiles)
  behind the ``health`` / ``stats`` endpoints.

The acceptor, line loop, op table, estimate fast path and graceful
drain are the endpoint's; on shutdown the batcher flushes every queued
and in-flight request before the endpoint closes.
"""

from __future__ import annotations

import asyncio
import os
from typing import Any

from ..network.errors import NetworkError
from ..sim.spec import batch_compat_key
from ..telemetry.metrics import DepthGauge, EventCounter, SizeHistogram
from .admission import AdmissionQueue, PendingRequest, QueueFullError
from .batcher import CLOSED_BY, DynamicBatcher
from .config import ServiceConfig
from .endpoint import Endpoint
from .protocol import RunRequest, reject_response

__all__ = ["ServiceConfig", "SimulationService"]


class SimulationService(Endpoint):
    """One service instance: call :meth:`run` (blocks until drained).

    Tier counters on top of the endpoint's: ``rejected_queue_full``,
    ``rejected_infeasible``, ``deadline_expired``.
    """

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        super().__init__(
            self.config.host,
            self.config.port,
            "rejected_queue_full",
            "rejected_infeasible",
            "deadline_expired",
        )
        self.queue_depth = DepthGauge()
        self.batches = SizeHistogram()
        self.closed_by = EventCounter(*CLOSED_BY)
        self.queue = AdmissionQueue(self.config.queue_limit)
        self.backend = self.config.make_backend()
        self.batcher = DynamicBatcher(
            self.queue,
            max_batch=self.config.max_batch,
            max_wait_ms=self.config.max_wait_ms,
            idle_peers=self.idle_peers,
            stats=self,
            backend=self.backend,
        )

    # -- lifecycle -----------------------------------------------------
    def request_shutdown(self) -> None:
        super().request_shutdown()
        self.batcher.begin_drain()

    async def startup(self) -> None:
        self._batcher_task = asyncio.create_task(
            self.batcher.run(), name="repro-batcher"
        )

    def on_listening(self) -> None:
        if self.config.port_file:
            # Atomic write so a polling supervisor never reads a torn file.
            tmp = f"{self.config.port_file}.tmp{os.getpid()}"
            with open(tmp, "w") as handle:
                handle.write(f"{self.port}\n")
            os.replace(tmp, self.config.port_file)

    def on_disconnect(self) -> None:
        # A peer leaving mid-window can leave nobody who could still
        # send: have the batcher look again instead of sleeping it out.
        self.queue.kick()

    async def teardown(self) -> None:
        # Draining, with an empty queue: the batcher loop exits and
        # releases its dispatch thread and backend.
        await self._batcher_task

    # -- batcher callbacks ---------------------------------------------
    def idle_peers(self) -> int:
        """Open connections with no run queued: who could still send one.

        The line loop reads a connection's next line only after its last
        run was answered, so each queued run pins one connection, and
        while a window is open every unanswered run is queued (the
        batcher executes nothing meanwhile).  The difference is a hard
        upper bound on the runs existing peers can add to the window; a
        peer whose reply was just resolved counts as able to send —
        its next request is one round trip away.
        """
        return self.open_connections - len(self.queue)

    def note_completed(self, latency_s: float) -> None:
        self._completed(latency_s)

    def note_batch(self, size: int, closed_by: str) -> None:
        if size:
            self.batches.record(size)
            self.closed_by.bump(closed_by)

    def note_expired(self) -> None:
        self.counters.bump("deadline_expired")

    def note_errors(self, n: int) -> None:
        self.counters.bump("errors", n)

    # -- the run path --------------------------------------------------
    def screen(self, request: RunRequest) -> dict[str, Any] | None:
        """Estimator-driven admission control (``step_cost_ms``).

        Rejects ``infeasible_deadline`` — carrying the minimum feasible
        deadline as ``retry_after_ms`` — when the request's own deadline
        is provably too small.  Proceeds when the screen is off, the
        request carries no deadline, the spec has no envelope, or the
        deadline is feasible.  Uses the *lower* envelope: rejection only
        when even a contention-free run could not finish in time.
        """
        if self.config.step_cost_ms is None or request.deadline_ms is None:
            return None
        from ..analysis.estimate import estimate_spec

        try:
            envelope = estimate_spec(request.spec)
        except NetworkError:
            return None  # not estimable: admit normally
        lower = envelope.lower
        if lower is None:  # adaptive: fall back to the per-message floor
            lower = max(envelope.per_message_lower, default=0)
        floor_ms = lower * self.config.step_cost_ms
        if floor_ms <= request.deadline_ms:
            return None
        self.counters.bump("rejected_infeasible")
        return reject_response(
            request.id, "infeasible_deadline", retry_after_ms=floor_ms
        )

    async def dispatch(self, request: RunRequest) -> dict[str, Any]:
        """Admit the request and await the batcher's answer.

        ``completed`` and ``latency_ms`` come from the batcher callbacks
        (enqueue → resolved), so they exclude the socket write.
        """
        loop = asyncio.get_running_loop()
        now = loop.time()
        pending = PendingRequest(
            request=request,
            key=batch_compat_key(request.spec),
            enqueued_at=now,
            expires_at=(
                None
                if request.deadline_ms is None
                else now + request.deadline_ms / 1000.0
            ),
            future=loop.create_future(),
        )
        try:
            self.queue.admit(pending)
        except QueueFullError as exc:
            self.counters.bump("rejected_queue_full")
            return reject_response(
                request.id, "queue full", retry_after_ms=exc.retry_after_ms
            )
        self.queue_depth.set(len(self.queue))
        return await pending.future

    # -- introspection endpoints ---------------------------------------
    def health(self) -> dict[str, Any]:
        exec_stats = self.backend.stats_snapshot()
        return {
            **self._preface(),
            "queue_depth": len(self.queue),
            "in_flight": self.batcher.in_flight,
            "backend": exec_stats["backend"],
            "backend_mode": exec_stats["mode"],
            "worker_restarts": exec_stats["worker_restarts"],
        }

    async def stats(self) -> dict[str, Any]:
        self.queue_depth.set(len(self.queue))
        return {
            **self._preface(),
            "queue": {**self.queue_depth.snapshot(), "limit": self.queue.limit},
            "in_flight": self.batcher.in_flight,
            "counters": self.counters.snapshot(),
            "batches": {
                **self.batches.snapshot(),
                "closed_by": self.closed_by.snapshot(),
            },
            "latency_ms": self.latency.summary(),
            "exec": self.backend.stats_snapshot(),
        }

    # -- banners -------------------------------------------------------
    def listening_banner(self) -> str:
        cfg = self.config
        pool = f" x{cfg.workers}" if cfg.backend == "process" else ""
        return (
            f"repro service listening on {cfg.host}:{self.port} "
            f"(queue limit {cfg.queue_limit}, max batch {cfg.max_batch}, "
            f"max wait {cfg.max_wait_ms} ms, backend {cfg.backend}{pool})"
        )

    def drained_banner(self) -> str:
        return (
            f"repro service drained: {self.counters['completed']} completed, "
            f"{self.counters['rejected_queue_full']} queue-full rejects, "
            f"{self.counters['deadline_expired']} expired"
        )
