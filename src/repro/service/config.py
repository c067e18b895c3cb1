"""Service tunables: the one config schema of a ``repro serve`` tier.

Pure data, apart from the module that runs it: the cluster router
renders each worker's ``repro serve`` argv from a :class:`ServiceConfig`
template without loading the batcher or the simulator behind it.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["BatchPolicy", "ServiceConfig"]


@dataclass(frozen=True)
class BatchPolicy:
    """When a coalescing window closes.

    Three conditions, first one wins: ``max_batch`` compatible requests
    are queued (caps trials per lockstep call); every open connection
    already has a run queued, so nobody is left who could join (no
    knob — exact, because the endpoint reads a connection's next line
    only after answering its last); or ``max_wait_ms`` has passed since
    the *oldest* queued request was admitted — the cap on how long it
    waits for company while some connected peer sits idle.
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


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables for one service instance.

    This is the one config schema shared by the server, the ``repro
    serve`` CLI, and embedding tests: execution substrate
    (``backend``/``workers``/``batch_timeout_s``) rides next to
    batching policy (``max_batch``/``max_wait_ms``) and admission
    (``queue_limit``), so the two axes are configured together but
    vary independently.
    """

    host: str = "127.0.0.1"
    port: int = 7654
    queue_limit: int = 64
    max_batch: int = 32
    max_wait_ms: float = 2.0
    #: Execution substrate for batch compute: ``"inline"`` (on the
    #: batcher's one dispatch thread) or ``"process"`` (fault-tolerant
    #: worker processes).  The batcher runs one batch at a time on its
    #: own thread, so a thread pool under it could only add a hop.
    backend: str = "inline"
    #: Process-pool width (``backend="process"`` only).
    workers: int = 2
    #: Optional per-batch wall-clock budget (process backend only); a
    #: stalled worker is terminated and the batch retried.
    batch_timeout_s: float | None = None
    #: Write the bound port here (atomically) once listening.  With
    #: ``port=0`` the OS picks an ephemeral port; the port file is how
    #: a supervisor (``repro.cluster``) learns which one.
    port_file: str | None = None
    #: Estimator-driven admission control: wall milliseconds one
    #: simulated flit step costs on the serving host.  When set, an exact run
    #: request carrying a ``deadline_ms`` is pre-screened against the
    #: analytic *lower* envelope (:mod:`repro.analysis.estimate`) —
    #: if even the optimistic ``lower * step_cost_ms`` floor exceeds
    #: the deadline, the request is rejected ``infeasible_deadline``
    #: before it ever queues.  ``None`` disables the screen.  Calibrate
    #: from perfbench's ``ns_per_msg_step`` on ``service_closed`` (times
    #: the trial's message count, over 1e6).
    step_cost_ms: float | None = None

    def policy(self) -> BatchPolicy:
        return BatchPolicy(max_batch=self.max_batch, max_wait_ms=self.max_wait_ms)

    def make_backend(self):
        """Build the configured :mod:`repro.exec` backend instance."""
        from ..exec import create_backend

        if self.backend not in ("inline", "process"):
            raise ValueError(
                f"unknown backend {self.backend!r}; choose from inline, process"
            )
        options = {}
        if self.backend == "process" and self.batch_timeout_s is not None:
            options["timeout_s"] = self.batch_timeout_s
        return create_backend(self.backend, workers=self.workers, **options)
