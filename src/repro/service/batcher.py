"""Dynamic request batching: coalesce compatible trials into lockstep runs.

The batcher is the service's continuous-batching engine, the same shape
inference servers use.  One asyncio task loops forever:

1. wait for the admission queue to be non-empty;
2. take the *oldest* request's compatibility key
   (:func:`repro.sim.spec.batch_compat_key` — shared verbatim with the
   sweep packer, so offline and online batching can never disagree on
   what "compatible" means) and hold a coalescing window open until
   the first of three conditions, checked in this order, closes it:

   * **full** — ``max_batch`` compatible requests are queued;
   * **idle** — no open connection is left that could still send: the
     v1 endpoint serves one in-flight ``run`` per connection
     (``_handle_line`` awaits ``dispatch`` before it reads the next
     line) and nothing executes while a window is open, so every
     unanswered run is in the queue and *open connections − queued
     runs* is a hard upper bound on the requests existing peers can add
     to this window.  At zero the wait is provably for nobody and the
     batch launches at once.  The count is the server's
     (:meth:`~repro.service.server.SimulationService.idle_peers`),
     injected as ``idle_peers=``;
   * **timeout** — ``max_wait_ms`` has passed since the oldest request
     was admitted: the cap on waiting for a peer that is connected but
     silent.

   The bound is exact for connected peers.  It is blind only to a peer
   that connects *after* the window closed and to a client pipelining
   a second run onto a busy connection (unread until the first is
   answered): either rides the next batch — a smaller batch, never a
   different answer.  While a previous batch is still executing, new
   arrivals accumulate in the queue, so under load the window never
   adds latency — the next batch fills "for free";
3. take the compatible requests out of the queue, drop any whose
   deadline expired while queued (they get ``deadline_exceeded``
   responses — cancellation before compute is wasted on them), and run
   the rest through the configured :mod:`repro.exec` backend: one
   lockstep ``run_*_batch`` call (:data:`repro.sim.batch.LOCKSTEP_MODELS`
   — mixed ``B`` / seeds / root seeds in one grid; a lone request is a
   batch of one) — the sweep's own
   :func:`repro.sim.sweep.execute_compatible`, re-exported here.

The batcher never blocks the event loop: a single dispatch thread hosts
the backend's (blocking, fault-tolerant) ``run`` call, so batches
execute in admission order whatever the substrate.  With the
:class:`~repro.exec.process.ProcessPoolBackend` the compute itself
leaves the server process — worker crashes are retried and the pool
restarted without any admitted request being dropped, and after
repeated failures the backend degrades to in-process execution rather
than going dark.

Because every trial's seed derives from ``(spec, root_seed)`` exactly
as in :func:`repro.sim.sweep.trial_seed` and the lockstep engine is
bit-identical to serial runs per trial, the *composition* of a batch
can never change a response: any interleaving of concurrent clients
yields byte-identical metrics.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from typing import Any

from ..sim.sweep import execute_compatible
from .admission import AdmissionQueue, PendingRequest
from .protocol import error_response, expired_response, ok_response

__all__ = ["CLOSED_BY", "DynamicBatcher", "execute_compatible"]

#: Why a coalescing window closed, in the order the conditions are
#: checked (``drain``: shutdown flushed it without waiting).
CLOSED_BY = ("full", "idle", "timeout", "drain")


class DynamicBatcher:
    """The coalesce/dispatch loop over an :class:`AdmissionQueue`."""

    def __init__(
        self,
        queue: AdmissionQueue,
        *,
        max_batch: int,
        max_wait_ms: float,
        idle_peers,
        stats,
        backend,
    ) -> None:
        self._queue = queue
        self._max_batch = max_batch
        self._max_wait_s = max_wait_ms / 1000.0
        self._stats = stats
        #: ``() -> int``: open connections with no run queued, i.e. how
        #: many requests could still join a window.
        self._idle_peers = idle_peers
        self.backend = backend
        # One dispatch thread: batches execute in admission order, the
        # shared per-process workload memo is never touched concurrently,
        # and the backend's blocking run() stays off the event loop.
        self._dispatch = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-batch"
        )
        self._draining = False
        self.in_flight = 0

    def begin_drain(self) -> None:
        """Stop after the queue empties; wake the loop if it's waiting."""
        self._draining = True
        self._queue.kick()

    async def run(self) -> None:
        """Serve batches until drained; returns with nothing in flight."""
        loop = asyncio.get_running_loop()
        try:
            while True:
                if not len(self._queue):
                    if self._draining:
                        return
                    await self._queue.wait_arrival()
                    continue
                closed_by = await self._coalesce(loop)
                batch = self._take_batch(loop)
                if batch:
                    await self._dispatch_batch(loop, batch, closed_by)
        finally:
            self._dispatch.shutdown(wait=True)
            self.backend.close()

    # ------------------------------------------------------------------
    async def _coalesce(self, loop) -> str:
        """Hold the window open; returns which :data:`CLOSED_BY` ended it.

        The batch fills, or nobody is left who could add to it, or the
        wait expires.  The window is anchored at the *oldest* request's
        admission time, so time spent queued behind an executing batch
        counts toward it — a full queue dispatches immediately.  Every
        event that can change the answer (an admission on any key, a
        peer disconnecting, the drain) sets the queue's arrival event,
        so the loop re-evaluates instead of sleeping out the remainder.
        Draining skips the wait entirely: shutdown flushes with whatever
        is already queued.
        """
        first = self._queue.peek()
        window_closes = first.enqueued_at + self._max_wait_s
        while not self._draining:
            if self._queue.count_compatible(first.key) >= self._max_batch:
                return "full"
            if self._idle_peers() <= 0:
                return "idle"
            remaining = window_closes - loop.time()
            if remaining <= 0:
                return "timeout"
            await self._queue.wait_arrival(remaining)
        return "drain"

    def _take_batch(self, loop) -> list[PendingRequest]:
        """Pull the dispatchable batch; expire stale requests in passing."""
        first = self._queue.peek()
        taken = self._queue.take_compatible(first.key, self._max_batch)
        now = loop.time()
        live: list[PendingRequest] = []
        for p in taken:
            if p.expired(now):
                self._resolve(
                    p,
                    expired_response(
                        p.request.id,
                        waited_ms=(now - p.enqueued_at) * 1000.0,
                    ),
                )
                self._stats.note_expired()
            else:
                live.append(p)
        return live

    async def _dispatch_batch(
        self, loop, batch: list[PendingRequest], closed_by: str
    ) -> None:
        items = [(p.request.spec, p.request.root_seed) for p in batch]
        self.in_flight = len(batch)
        started = loop.time()
        try:
            metrics = await loop.run_in_executor(
                self._dispatch, self.backend.run, execute_compatible, items
            )
        except Exception as exc:  # noqa: BLE001 - reported to the client
            for p in batch:
                self._resolve(
                    p,
                    error_response(
                        p.request.id, f"trial execution failed: {exc}"
                    ),
                )
            self._stats.note_errors(len(batch))
            return
        finally:
            elapsed = loop.time() - started
            self.in_flight = 0
            self._queue.note_service_time(elapsed, len(batch) or 1)
        now = loop.time()
        for p, m in zip(batch, metrics):
            queued_for = started - p.enqueued_at
            self._resolve(
                p,
                ok_response(
                    p.request.id,
                    m,
                    batched=len(batch),
                    queue_ms=queued_for * 1000.0,
                ),
            )
            self._stats.note_completed(now - p.enqueued_at)
        self._stats.note_batch(len(batch), closed_by)

    @staticmethod
    def _resolve(pending: PendingRequest, response: dict[str, Any]) -> None:
        if not pending.future.done():
            pending.future.set_result(response)
