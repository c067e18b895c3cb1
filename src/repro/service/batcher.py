"""Dynamic request batching: coalesce compatible trials into lockstep runs.

The batcher is the service's continuous-batching engine, the same shape
inference servers use.  One asyncio task loops forever:

1. wait for the admission queue to be non-empty;
2. take the *oldest* request's compatibility key
   (:func:`repro.sim.batch.batch_compat_key` — shared verbatim with the
   sweep packer, so offline and online batching can never disagree on
   what "compatible" means) and hold a coalescing window open: dispatch
   as soon as ``max_batch`` compatible requests are queued, or when
   ``max_wait_ms`` has passed since the oldest request was admitted,
   whichever comes first.  While a previous batch is still executing,
   new arrivals accumulate in the queue, so under load the window never
   adds latency — the next batch fills "for free";
3. take the compatible requests out of the queue, drop any whose
   deadline expired while queued (they get ``deadline_exceeded``
   responses — cancellation before compute is wasted on them), and run
   the rest through the configured :mod:`repro.exec` backend: one
   lockstep ``run_*_batch`` call for trials of any flit-level router
   (:data:`repro.sim.batch.LOCKSTEP_MODELS` — mixed ``B`` / seeds /
   root seeds in one grid; a lone request is a batch of one), trial by
   trial for the ``schedule`` pipeline — the sweep's own
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
from dataclasses import dataclass
from typing import Any

from ..sim.batch import batch_compat_key
from ..sim.sweep import TrialSpec, execute_compatible
from .admission import AdmissionQueue, PendingRequest
from .protocol import error_response, expired_response, ok_response

__all__ = ["BatchPolicy", "DynamicBatcher", "execute_compatible"]


@dataclass(frozen=True)
class BatchPolicy:
    """When a coalescing window closes.

    ``max_batch`` caps trials per lockstep call; ``max_wait_ms`` caps
    how long the *oldest* queued request may wait for company before its
    batch launches anyway.
    """

    max_batch: int = 32
    max_wait_ms: float = 2.0

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_wait_ms < 0:
            raise ValueError(
                f"max_wait_ms must be >= 0, got {self.max_wait_ms}"
            )


class DynamicBatcher:
    """The coalesce/dispatch loop over an :class:`AdmissionQueue`."""

    def __init__(
        self,
        queue: AdmissionQueue,
        policy: BatchPolicy,
        *,
        stats=None,
        backend=None,
        own_backend: bool = True,
    ) -> None:
        from ..exec import InlineBackend

        self._queue = queue
        self._policy = policy
        self._stats = stats
        self.backend = backend if backend is not None else InlineBackend()
        self._own_backend = own_backend if backend is not None else True
        # One dispatch thread: batches execute in admission order, the
        # shared per-process workload memo is never touched concurrently,
        # and the backend's blocking run() stays off the event loop.
        self._dispatch = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-batch"
        )
        self._draining = False
        self.in_flight = 0
        self.batches_executed = 0

    @staticmethod
    def compat_key(spec: TrialSpec) -> tuple:
        """The batch-compatibility key (shared with the sweep packer)."""
        return batch_compat_key(spec)

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
                await self._coalesce(loop)
                batch = self._take_batch(loop)
                if batch:
                    await self._dispatch_batch(loop, batch)
        finally:
            self._dispatch.shutdown(wait=True)
            if self._own_backend:
                self.backend.close()

    # ------------------------------------------------------------------
    async def _coalesce(self, loop) -> None:
        """Hold the window open until the batch fills or the wait expires.

        The window is anchored at the *oldest* request's admission time,
        so time spent queued behind an executing batch counts toward it
        — a full queue dispatches immediately.  Draining skips the wait
        entirely: shutdown flushes with whatever is already queued.
        """
        first = self._queue.peek()
        window_closes = first.enqueued_at + self._policy.max_wait_ms / 1000.0
        while not self._draining:
            if self._queue.count_compatible(first.key) >= self._policy.max_batch:
                return
            remaining = window_closes - loop.time()
            if remaining <= 0:
                return
            await self._queue.wait_arrival(remaining)

    def _take_batch(self, loop) -> list[PendingRequest]:
        """Pull the dispatchable batch; expire stale requests in passing."""
        first = self._queue.peek()
        taken = self._queue.take_compatible(first.key, self._policy.max_batch)
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
                if self._stats is not None:
                    self._stats.note_expired()
            else:
                live.append(p)
        return live

    async def _dispatch_batch(self, loop, batch: list[PendingRequest]) -> None:
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
            if self._stats is not None:
                self._stats.note_errors(len(batch))
            return
        finally:
            elapsed = loop.time() - started
            self.in_flight = 0
            self.batches_executed += 1
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
            if self._stats is not None:
                self._stats.note_completed(
                    latency_s=now - p.enqueued_at, batch_size=len(batch)
                )
        if self._stats is not None:
            self._stats.note_batch(len(batch))

    @staticmethod
    def _resolve(pending: PendingRequest, response: dict[str, Any]) -> None:
        if not pending.future.done():
            pending.future.set_result(response)
