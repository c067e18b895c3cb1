"""The execution-backend contract shared by the service and the sweep.

Both heavy consumers of simulation compute in this repository push the
same shape of work: a picklable top-level function applied to picklable
payloads (the sweep's ``_execute_unit`` work units, the service
batcher's ``execute_compatible`` item lists).  Before this module each
consumer owned its own substrate — the batcher a one-thread
``ThreadPoolExecutor``, the sweep a bespoke ``ProcessPoolExecutor``
path — so batching policy and execution substrate were welded together.

:class:`ExecutionBackend` is the seam between them:

``run(fn, arg)``
    Execute one unit, blocking, and return its result.  Exceptions
    *raised by* ``fn`` propagate unchanged (a deterministic failure is
    not worth retrying); *infrastructure* failures (a worker process
    dying, a batch timing out) are the backend's problem to absorb.
``map(fn, args)``
    Execute many independent units, returning results in input order.
    Backends with real parallelism overlap them.
``stats_snapshot()``
    JSON-safe counters (submitted / completed / retried units, worker
    restarts, degradations) built on :mod:`repro.telemetry.metrics`,
    surfaced verbatim by the service's ``stats`` endpoint.

The three implementations — :class:`~repro.exec.inline.InlineBackend`,
:class:`~repro.exec.thread.ThreadBackend`, and the fault-tolerant
:class:`~repro.exec.process.ProcessPoolBackend` — are bit-equivalent by
construction: a backend only moves *where* ``fn`` runs, never what it
computes, and every trial's randomness is derived from its spec, so the
correctness anchor "responses identical to the same trial run alone
through :func:`repro.simulate`" holds regardless of substrate.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Sequence
from typing import Any, Protocol, runtime_checkable

from ..telemetry.metrics import EventCounter, StateGauge

__all__ = [
    "BACKENDS",
    "ExecStats",
    "ExecutionBackend",
    "ExecutionError",
    "create_backend",
]

#: Names accepted by :func:`create_backend` (and the ``--backend`` CLI
#: flags); each maps to the backend class's import path.
BACKENDS = ("inline", "thread", "process")


class ExecutionError(RuntimeError):
    """A unit could not be executed despite the backend's fault handling.

    Raised only after retries are exhausted (and, for the process
    backend, only when degradation is disabled) — by the time a caller
    sees this, the backend has already burned its recovery budget.
    """


class ExecStats:
    """Counters and state for one backend, snapshot-ready for ``stats``.

    ``submitted`` counts unit attempts handed to the substrate,
    ``completed`` successful unit results, ``retried`` re-submissions
    after an infrastructure failure, ``timeouts`` per-unit deadline
    overruns, ``worker_restarts`` pool rebuilds after a crash or
    timeout, ``degradations`` permanent fallbacks to inline execution,
    and ``failures`` units that exhausted every recovery path.  The
    :class:`~repro.telemetry.metrics.StateGauge` names the substrate
    currently executing work (e.g. ``"process"``, then ``"inline"``
    after degradation).

    Writes happen on whichever thread drives the backend; increments
    are single bytecode-level dict updates guarded by the GIL, and the
    asyncio reader only ever snapshots, so no locking is needed.
    """

    def __init__(self, backend: str) -> None:
        self.backend = backend
        self.counters = EventCounter(
            "submitted",
            "completed",
            "retried",
            "timeouts",
            "worker_restarts",
            "degradations",
            "failures",
        )
        self.mode = StateGauge(backend)

    def snapshot(self) -> dict[str, Any]:
        return {
            "backend": self.backend,
            "mode": self.mode.state,
            "mode_transitions": self.mode.transitions,
            **self.counters.snapshot(),
        }


@runtime_checkable
class ExecutionBackend(Protocol):
    """What the batcher and the sweep require of a substrate."""

    name: str
    stats: ExecStats

    def run(self, fn: Callable[[Any], Any], arg: Any) -> Any:
        """Execute one unit; block until its result is available."""
        ...

    def map(
        self, fn: Callable[[Any], Any], args: Sequence[Any]
    ) -> list[Any]:
        """Execute units independently; results in input order."""
        ...

    def stats_snapshot(self) -> dict[str, Any]:
        ...

    def close(self) -> None:
        """Release substrate resources (idempotent)."""
        ...


class _StatsMixin:
    """The bookkeeping shared by every backend implementation."""

    name: str

    def __init__(self) -> None:
        self.stats = ExecStats(self.name)
        self._closed = False
        self._lock = threading.Lock()

    def stats_snapshot(self) -> dict[str, Any]:
        return self.stats.snapshot()

    def close(self) -> None:
        self._closed = True

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def create_backend(
    spec: "str | ExecutionBackend | None",
    *,
    workers: int = 2,
    **options: Any,
) -> "ExecutionBackend":
    """Resolve a backend name (or pass an instance through).

    ``spec`` may be ``None`` (inline), one of :data:`BACKENDS`, or an
    already-constructed backend (returned unchanged, ``workers`` and
    ``options`` ignored).  ``workers`` sizes the thread/process pools;
    process-backend fault-tolerance knobs (``timeout_s``,
    ``max_retries``, ``backoff_base_s``, ``degrade_after``) ride in
    ``options``.
    """
    if spec is None:
        spec = "inline"
    if not isinstance(spec, str):
        return spec
    name = spec.strip().lower()
    if name == "inline":
        from .inline import InlineBackend

        return InlineBackend()
    if name == "thread":
        from .thread import ThreadBackend

        return ThreadBackend(workers=workers)
    if name == "process":
        from .process import ProcessPoolBackend

        return ProcessPoolBackend(workers=workers, **options)
    raise ValueError(
        f"unknown execution backend {spec!r}; choose from {', '.join(BACKENDS)}"
    )
