"""``repro.cluster`` — the sharded multi-worker service tier.

One front-end router process speaks the existing v1 wire protocol
(:mod:`repro.service.protocol`) and multiplexes many logical request
streams onto N :mod:`repro.service` worker processes — the serving
analog of the paper's virtual channels multiplexing logical channels
onto one physical link:

* :mod:`~repro.cluster.hashing` — a deterministic consistent-hash
  ring over worker slots, keyed by
  :func:`~repro.sim.spec.batch_compat_key`, so *compatible* requests
  land on the same worker and coalesce into the large lockstep batches
  the kernels are fast at;
* :mod:`~repro.cluster.worker` — worker lifecycle: spawn ``repro
  serve`` subprocesses on ephemeral ports, watch liveness, respawn
  crashed workers with bounded exponential backoff (the
  :mod:`repro.exec` crash-recovery discipline, one level up);
* :mod:`~repro.cluster.router` — the :class:`~repro.service.endpoint
  .Endpoint` whose ``dispatch`` routes: a persistent cross-worker
  :class:`~repro.cache.ResultCache` consulted before any forward,
  per-request retry/fallback so a worker crash never drops an accepted
  request, aggregated ``health``/``stats``.

The router holds no simulator: it parses, keys, hashes and forwards
trials through the NumPy-free :mod:`repro.sim.spec`, and the workers
run them.

Usage::

    # router + 2 workers, one process tree
    repro cluster serve --port 7900 --workers 2

    # any v1 client works unchanged
    repro loadgen --port 7900 --requests 64 --shutdown
"""

from .._lazy import attach

_EXPORTS = {
    "ClusterConfig": ".router",
    "ClusterRouter": ".router",
    "HashRing": ".hashing",
    "WorkerHandle": ".worker",
    "WorkerSupervisor": ".worker",
}
__getattr__, __dir__ = attach(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
