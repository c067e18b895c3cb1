"""``repro.exec`` — pluggable, fault-tolerant execution backends.

One small contract (:class:`~repro.exec.base.ExecutionBackend`: run one
picklable unit, or map many) with three substrates behind it:

* :class:`~repro.exec.inline.InlineBackend` — in the calling thread;
  the bit-exact reference, and the degradation target;
* :class:`~repro.exec.thread.ThreadBackend` — a shared thread pool;
  keeps blocking work off the asyncio loop (GIL-bound for compute);
* :class:`~repro.exec.process.ProcessPoolBackend` — pre-warmed worker
  processes with crash detection, automatic pool restart, per-unit
  timeouts, bounded exponential-backoff retry, and graceful degradation
  to inline after repeated failures.

Both the online service batcher (``repro serve --backend … --workers
…``) and the offline sweep runner (:func:`repro.sim.sweep.run_sweep`)
execute through this seam, so batching policy and execution substrate
vary independently — and every backend returns results bit-identical
to the same trial run alone through :func:`repro.simulate`, which is
what the service's loadgen gate and the sweep's golden tests pin.
"""

from .._lazy import attach

_EXPORTS = {
    "BACKENDS": ".base",
    "ExecStats": ".base",
    "ExecutionBackend": ".base",
    "ExecutionError": ".base",
    "InlineBackend": ".inline",
    "ProcessPoolBackend": ".process",
    "ThreadBackend": ".thread",
    "create_backend": ".base",
}
__getattr__, __dir__ = attach(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
