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
  requests (shared :func:`~repro.sim.batch.batch_compat_key`) into
  :func:`~repro.sim.batch.run_wormhole_batch` calls under a
  max-batch / max-wait policy, with deadline cancellation;
* :mod:`~repro.service.endpoint` — the one v1 endpoint both tiers
  subclass: acceptor, op table, estimate fast path, graceful draining
  shutdown, and the :func:`serve` signal/banner scaffold;
* :mod:`~repro.service.server` — :class:`SimulationService`, the
  endpoint whose ``dispatch`` admits into the batcher, plus its
  ``health`` / ``stats`` bodies;
* :mod:`~repro.service.client` — :class:`ServiceClient` and the
  bit-exactness-verifying load generator behind ``repro loadgen``.

Responses are bit-identical to serial :class:`~repro.sim.wormhole
.WormholeSimulator` runs with sweep-derived seeds, whatever batch
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

from .admission import AdmissionQueue, PendingRequest, QueueFullError
from .batcher import BatchPolicy, DynamicBatcher, execute_compatible
from .client import (
    LoadgenConfig,
    ServiceClient,
    ServiceConnectionError,
    ServiceTimeoutError,
    run_loadgen,
)
from .endpoint import Endpoint, serve
from .protocol import (
    PROTOCOL_VERSION,
    STATUS_ERROR,
    STATUS_EXPIRED,
    STATUS_OK,
    STATUS_REJECTED,
    ProtocolError,
    RunRequest,
    UnsupportedVersionError,
    check_version,
    decode_message,
    encode_message,
)
from .server import ServiceConfig, SimulationService

__all__ = [
    "AdmissionQueue",
    "BatchPolicy",
    "DynamicBatcher",
    "Endpoint",
    "LoadgenConfig",
    "PROTOCOL_VERSION",
    "PendingRequest",
    "ProtocolError",
    "QueueFullError",
    "RunRequest",
    "STATUS_ERROR",
    "STATUS_EXPIRED",
    "STATUS_OK",
    "STATUS_REJECTED",
    "ServiceClient",
    "ServiceConfig",
    "ServiceConnectionError",
    "ServiceTimeoutError",
    "SimulationService",
    "UnsupportedVersionError",
    "check_version",
    "decode_message",
    "encode_message",
    "execute_compatible",
    "run_loadgen",
    "serve",
]
