"""``repro.service`` — the online simulation service.

An asyncio TCP server that turns the batched lockstep simulator into a
continuously-batching trial service, plus the matching client and load
generator:

* :mod:`~repro.service.protocol` — the newline-delimited-JSON wire
  format (``run`` / ``health`` / ``stats`` / ``shutdown``, structured
  rejects with ``retry_after_ms``);
* :mod:`~repro.service.admission` — the bounded admission queue whose
  full-queue rejects carry a drain-time estimate (backpressure);
* :mod:`~repro.service.batcher` — dynamic batching of compatible
  requests (shared :func:`~repro.sim.spec.batch_compat_key`) into
  :func:`~repro.sim.batch.run_wormhole_batch` calls under a
  max-batch / max-wait policy, with deadline cancellation;
* :mod:`~repro.service.endpoint` — the one v1 endpoint both tiers
  subclass: acceptor, op table, estimate fast path, graceful draining
  shutdown, and the :func:`serve` signal/banner scaffold;
* :mod:`~repro.service.config` — :class:`ServiceConfig` and
  :class:`BatchPolicy`, the tier's tunables as pure data;
* :mod:`~repro.service.server` — :class:`SimulationService`, the
  endpoint whose ``dispatch`` admits into the batcher, plus its
  ``health`` / ``stats`` bodies;
* :mod:`~repro.service.client` — :class:`ServiceClient` and the
  bit-exactness-verifying load generator behind ``repro loadgen``.

Names resolve on first access (:mod:`repro._lazy`), so a process that
only speaks the protocol — the cluster router — never loads the batcher
or the simulator behind it.

Responses are bit-identical to the same trials run alone through
:func:`repro.simulate` with sweep-derived seeds, whatever batch
composition the traffic produces.

Usage::

    # server process
    asyncio.run(serve(SimulationService(ServiceConfig(port=7654))))

    # client
    async with await ServiceClient.connect("127.0.0.1", 7654) as c:
        resp = await c.run_trial(
            {"workload": "chain-bundle", "simulator": "wormhole", "B": 2}
        )
"""

from .._lazy import attach

_EXPORTS = {
    "AdmissionQueue": ".admission",
    "BatchPolicy": ".config",
    "DynamicBatcher": ".batcher",
    "Endpoint": ".endpoint",
    "LoadgenConfig": ".client",
    "PROTOCOL_VERSION": ".protocol",
    "PendingRequest": ".admission",
    "ProtocolError": ".protocol",
    "QueueFullError": ".admission",
    "RunRequest": ".protocol",
    "STATUS_ERROR": ".protocol",
    "STATUS_EXPIRED": ".protocol",
    "STATUS_OK": ".protocol",
    "STATUS_REJECTED": ".protocol",
    "ServiceClient": ".client",
    "ServiceConfig": ".config",
    "ServiceConnectionError": ".client",
    "ServiceTimeoutError": ".client",
    "SimulationService": ".server",
    "UnsupportedVersionError": ".protocol",
    "check_version": ".protocol",
    "decode_message": ".protocol",
    "encode_message": ".protocol",
    "execute_compatible": ".batcher",
    "run_loadgen": ".client",
    "serve": ".endpoint",
}
__getattr__, __dir__ = attach(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
