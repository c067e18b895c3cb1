"""Bounded admission with explicit backpressure for the service.

The admission queue is the service's only buffer: a FIFO of pending
requests with a hard depth limit.  When the queue is full, admission
fails *immediately* with a :class:`QueueFullError` carrying a
``retry_after_ms`` hint — the 429-style contract — instead of letting
latency grow without bound.  The hint is the queue's estimated drain
time: current depth times an exponentially-weighted moving average of
per-request service time, which the batcher feeds back after every
dispatch (buffer-aware backpressure, the service-level analogue of the
paper model's bounded per-edge buffers).

Requests stay *in* the queue while the batcher's coalescing window is
open — the batcher peeks, waits, then takes — so the advertised depth
is honest: a request counts against the limit until its batch launches.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass, field
from typing import Any

from .protocol import RunRequest

__all__ = ["AdmissionQueue", "PendingRequest", "QueueFullError"]

#: Per-request service time (ms) the retry hint assumes before the
#: first batch has been timed.
DEFAULT_SERVICE_MS = 50.0
#: Weight of the newest batch in the per-request service-time average.
EWMA_ALPHA = 0.2


class QueueFullError(Exception):
    """Admission denied: the queue is at its depth limit."""

    def __init__(self, retry_after_ms: float) -> None:
        super().__init__(
            f"admission queue full; retry after {retry_after_ms:.0f} ms"
        )
        self.retry_after_ms = retry_after_ms


@dataclass
class PendingRequest:
    """One admitted request waiting for (or riding in) a batch."""

    request: RunRequest
    key: tuple
    enqueued_at: float
    expires_at: float | None
    future: "asyncio.Future[dict[str, Any]]" = field(repr=False, default=None)

    def expired(self, now: float) -> bool:
        return self.expires_at is not None and now >= self.expires_at


class AdmissionQueue:
    """A bounded FIFO of :class:`PendingRequest` with arrival signaling.

    Single-producer/single-consumer within one event loop: connection
    handlers :meth:`admit`, the batcher peeks / waits / takes.  No
    locking — the event loop serializes everything.
    """

    def __init__(self, limit: int) -> None:
        if limit < 1:
            raise ValueError(f"queue limit must be >= 1, got {limit}")
        self.limit = int(limit)
        self._items: deque[PendingRequest] = deque()
        self._arrival = asyncio.Event()
        self._service_ms = DEFAULT_SERVICE_MS

    def __len__(self) -> int:
        return len(self._items)

    @property
    def full(self) -> bool:
        return len(self._items) >= self.limit

    def retry_after_ms(self) -> float:
        """Estimated time for the current backlog to drain."""
        return max(1.0, len(self._items) * self._service_ms)

    def note_service_time(self, seconds: float, requests: int) -> None:
        """Batcher feedback: one batch of ``requests`` took ``seconds``."""
        if requests < 1:
            return
        per_request_ms = seconds * 1000.0 / requests
        self._service_ms += EWMA_ALPHA * (per_request_ms - self._service_ms)

    # -- producer side -------------------------------------------------
    def admit(self, pending: PendingRequest) -> None:
        """Append, or raise :class:`QueueFullError` with a retry hint."""
        if self.full:
            raise QueueFullError(self.retry_after_ms())
        self._items.append(pending)
        self._arrival.set()

    # -- consumer (batcher) side ---------------------------------------
    def peek(self) -> PendingRequest:
        """The oldest pending request (queue must be non-empty)."""
        return self._items[0]

    def count_compatible(self, key: tuple) -> int:
        return sum(1 for p in self._items if p.key == key)

    def take_compatible(self, key: tuple, max_batch: int) -> list[PendingRequest]:
        """Remove and return up to ``max_batch`` requests matching ``key``.

        FIFO order among the matches; non-matching requests keep their
        positions and ride a later batch.
        """
        taken: list[PendingRequest] = []
        kept: deque[PendingRequest] = deque()
        while self._items:
            p = self._items.popleft()
            if len(taken) < max_batch and p.key == key:
                taken.append(p)
            else:
                kept.append(p)
        self._items = kept
        return taken

    async def wait_arrival(self, timeout: float | None = None) -> None:
        """Wait until a new request arrives (or the timeout elapses)."""
        self._arrival.clear()
        if self._items and timeout is None:
            return
        try:
            await asyncio.wait_for(self._arrival.wait(), timeout)
        except asyncio.TimeoutError:
            pass

    def kick(self) -> None:
        """Wake any waiter without an arrival (drain began, a peer left)."""
        self._arrival.set()
