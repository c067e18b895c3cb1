"""Client and load generator for the simulation service.

:class:`ServiceClient` is a minimal asyncio client: one TCP connection,
one request/response in flight at a time (the server's per-connection
discipline).  Concurrency comes from opening several clients, which is
exactly what :func:`run_loadgen` does.

The load generator is also the service's *correctness harness*: after
driving ``concurrency`` connections at an optional request rate, it
replays every accepted trial through the sweep runner's serial path
(:func:`repro.sim.sweep._execute_trial` — a one-trial
:func:`~repro.sim.batch.run_model` call with the identical derived
seed) and demands byte-identical metrics.  Any divergence —
a batching bug, a seed-derivation drift, a cross-trial state leak —
fails the run.  The latency/throughput/occupancy report it assembles
is what ``repro loadgen --output`` saves.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from dataclasses import dataclass, field
from typing import Any

from ..sim.spec import TrialSpec
from .protocol import (
    MAX_LINE_BYTES,
    MODE_EXACT,
    PROTOCOL_VERSION,
    STATUS_OK,
    ProtocolError,
    RunRequest,
    decode_message,
    encode_message,
)

__all__ = [
    "LoadgenConfig",
    "ServiceClient",
    "ServiceConnectionError",
    "ServiceTimeoutError",
    "run_loadgen",
]


class ServiceConnectionError(ConnectionError):
    """The server went away mid-request (reset, EOF, refused).

    Raised instead of a raw :class:`ConnectionResetError` traceback so
    callers — the load generator, the cluster router — can attribute
    the failure: the message names the peer, the op, and the request
    id of whatever was in flight.
    """

    def __init__(self, peer: str, op: str, req_id: str, cause: str) -> None:
        super().__init__(
            f"connection to {peer} lost during {op!r} (id={req_id!r}): {cause}"
        )
        self.peer = peer
        self.op = op
        self.req_id = req_id


class ServiceTimeoutError(ServiceConnectionError):
    """A per-request ``timeout_s`` elapsed with no response line."""

    def __init__(self, peer: str, op: str, req_id: str, timeout_s: float) -> None:
        super().__init__(
            peer, op, req_id, f"no response within {timeout_s}s"
        )
        self.timeout_s = timeout_s


class ServiceClient:
    """One connection to a running service (async context manager)."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        peer: str = "server",
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._ids = itertools.count()
        self.peer = peer

    @classmethod
    async def connect(
        cls, host: str, port: int, *, retry_for_s: float = 0.0
    ) -> "ServiceClient":
        """Connect, optionally retrying while the server starts up."""
        deadline = time.monotonic() + retry_for_s
        while True:
            try:
                reader, writer = await asyncio.open_connection(
                    host, port, limit=MAX_LINE_BYTES
                )
                return cls(reader, writer, peer=f"{host}:{port}")
            except OSError:
                if time.monotonic() >= deadline:
                    raise
                await asyncio.sleep(0.1)

    async def __aenter__(self) -> "ServiceClient":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass

    async def request(
        self, msg: dict[str, Any], *, timeout_s: float | None = None
    ) -> dict[str, Any]:
        """Send one message (stamped ``v: 1``) and await its response.

        ``timeout_s`` bounds the whole exchange; expiry raises
        :class:`ServiceTimeoutError` (the connection is then poisoned —
        a late response line would answer the wrong request — so the
        caller must discard this client).  A connection torn down
        mid-exchange raises :class:`ServiceConnectionError` naming the
        peer, op, and request id instead of a raw reset traceback.
        """
        op = str(msg.get("op", "?"))
        req_id = str(msg.get("id", ""))
        msg.setdefault("v", PROTOCOL_VERSION)

        async def exchange() -> bytes:
            self._writer.write(encode_message(msg))
            await self._writer.drain()
            return await self._reader.readline()

        try:
            line = await asyncio.wait_for(exchange(), timeout_s)
        except (asyncio.TimeoutError, TimeoutError):
            raise ServiceTimeoutError(
                self.peer, op, req_id, timeout_s or 0.0
            ) from None
        except (ConnectionResetError, BrokenPipeError, OSError) as exc:
            raise ServiceConnectionError(
                self.peer, op, req_id, str(exc) or type(exc).__name__
            ) from None
        if not line:
            raise ServiceConnectionError(
                self.peer, op, req_id, "server closed the connection"
            )
        return decode_message(line)

    async def run_trial(
        self,
        spec: TrialSpec | dict[str, Any],
        *,
        root_seed: int = 0,
        deadline_ms: float | None = None,
        req_id: str | None = None,
        timeout_s: float | None = None,
        mode: str = MODE_EXACT,
    ) -> dict[str, Any]:
        rid = req_id if req_id is not None else f"c{next(self._ids)}"
        if isinstance(spec, TrialSpec):
            # The unified request schema: build the RunRequest the server
            # will parse, rather than assembling a raw dict by hand.
            msg = RunRequest(
                id=rid,
                spec=spec,
                root_seed=int(root_seed),
                deadline_ms=deadline_ms,
                mode=mode,
                timeout_s=timeout_s,
            ).to_wire()
        else:
            msg = {
                "op": "run",
                "id": rid,
                "spec": spec,
                "root_seed": int(root_seed),
                "mode": mode,
            }
            if deadline_ms is not None:
                msg["deadline_ms"] = deadline_ms
            if timeout_s is not None:
                msg["timeout_s"] = timeout_s
        return await self.request(msg, timeout_s=timeout_s)

    async def health(self) -> dict[str, Any]:
        return await self.request({"op": "health", "id": "health"})

    async def stats(self) -> dict[str, Any]:
        return await self.request({"op": "stats", "id": "stats"})

    async def shutdown(self) -> dict[str, Any]:
        return await self.request({"op": "shutdown", "id": "shutdown"})


# ----------------------------------------------------------------------
# Load generation
# ----------------------------------------------------------------------


@dataclass
class LoadgenConfig:
    """What to throw at the server, and how hard."""

    workload: str = "chain-bundle"
    workload_params: dict[str, Any] = field(default_factory=dict)
    simulator: str = "wormhole"
    channels: tuple[int, ...] = (1, 2, 4)
    message_length: int | None = None
    #: Cycle several simulators / message lengths across the request
    #: stream (empty = just ``simulator`` / ``message_length``).  Each
    #: distinct (simulator, length) pair is its own batch-compat key,
    #: so this is how loadgen produces *multi-key* traffic — the kind a
    #: sharded cluster can actually spread across workers.
    simulators: tuple[str, ...] = ()
    lengths: tuple[int | None, ...] = ()
    requests: int = 32
    concurrency: int = 8
    #: Aggregate request rate in req/s; 0 = as fast as possible.
    rate: float = 0.0
    root_seed: int = 0
    deadline_ms: float | None = None
    #: Execution mode stamped on every run request: ``"exact"`` runs
    #: trials through the batcher, ``"estimate"`` exercises the
    #: closed-form envelope tier (verification then compares against a
    #: local :func:`repro.analysis.estimate.estimate_spec` call, which
    #: must be bit-stable with what the service returned).
    mode: str = MODE_EXACT
    #: Replay a registered adversarial scenario (``repro.scenarios``)
    #: instead of ``workload``: scenarios substitute their
    #: ``scenario:<name>`` sweep workload, except that a scenario whose
    #: workload has release times (an arrival trace) keeps ``workload``
    #: and paces the request stream to its arrivals (see
    #: :meth:`arrival_offsets`).
    scenario: str | None = None
    #: Replay every accepted response against a serial run and compare.
    verify: bool = True
    #: Send a ``shutdown`` op once the run (and verification) is done.
    shutdown: bool = False
    connect_timeout_s: float = 5.0

    def effective_workload(self) -> str:
        if self.scenario is not None and self._arrivals() is None:
            return f"scenario:{self.scenario}"
        return self.workload

    def _arrivals(self):
        """The scenario workload's release times (``None`` if it has none)."""
        from ..scenarios import get_scenario

        scen = get_scenario(self.scenario)
        wl = scen.build_case(B=self.channels[0], **self.workload_params)
        return wl.release_times

    def specs(self) -> list[TrialSpec]:
        """One unique spec per request.

        Channels cycle fastest, then (simulator, length) pairs, then
        the repeat counter advances — so with the default single
        simulator/length the stream is exactly the classic
        channels-cycle/repeats-advance order, and with several pairs
        every compat key sees the full channel rotation.
        """
        workload = self.effective_workload()
        sims = self.simulators or (self.simulator,)
        lens = self.lengths or (self.message_length,)
        pairs = [(sim, length) for sim in sims for length in lens]
        specs = []
        for i in range(self.requests):
            sim, length = pairs[(i // len(self.channels)) % len(pairs)]
            specs.append(
                TrialSpec.make(
                    workload,
                    sim,
                    B=self.channels[i % len(self.channels)],
                    workload_params=self.workload_params,
                    message_length=length,
                    repeat=i // (len(self.channels) * len(pairs)),
                )
            )
        return specs

    def arrival_offsets(self) -> list[float] | None:
        """Per-request send offsets (seconds) from an arrival scenario.

        ``None`` unless ``scenario`` names a scenario whose workload has
        release times.  Its sorted releases are a cumulative arrival
        curve; request ``i`` is placed where the curve crosses
        ``(i + 0.5) / requests`` of its messages, so bursts in the trace
        become bursts on the wire.  One flit *step* maps to ``1 / rate``
        seconds when ``rate`` is set, else 10 ms.
        """
        if self.scenario is None:
            return None
        release = self._arrivals()
        if release is None:
            return None
        import numpy as np

        release = np.sort(np.asarray(release, dtype=np.int64))
        if not release.size:
            return [0.0] * self.requests
        at = (np.arange(self.requests) + 0.5) * release.size / self.requests
        step_s = (1.0 / self.rate) if self.rate > 0 else 0.01
        return [float(release[int(k)]) * step_s for k in at]


async def run_loadgen(
    host: str, port: int, config: LoadgenConfig
) -> dict[str, Any]:
    """Drive a running server; return the loadgen report.

    Opens ``concurrency`` connections, issues ``requests`` unique trial
    requests across them (paced to ``rate`` req/s when set), measures
    client-side latency, fetches the server's ``stats`` snapshot, and —
    unless ``verify`` is off — checks every accepted response
    bit-identical against a local serial replay.
    """
    specs = config.specs()
    offsets = config.arrival_offsets()
    started = time.monotonic()
    work = asyncio.Queue()
    for i, spec in enumerate(specs):
        work.put_nowait((i, spec))
    send_times: list[float | None] = [None] * len(specs)
    responses: list[dict[str, Any] | None] = [None] * len(specs)
    latencies: list[float] = []

    def _pace(i: int) -> float:
        """Seconds from start at which request ``i`` may be sent."""
        if offsets is not None:
            return offsets[i]
        return i / config.rate if config.rate > 0 else 0.0

    async def worker() -> None:
        client = await ServiceClient.connect(
            host, port, retry_for_s=config.connect_timeout_s
        )
        try:
            while True:
                try:
                    i, spec = work.get_nowait()
                except asyncio.QueueEmpty:
                    return
                delay = started + _pace(i) - time.monotonic()
                if delay > 0:
                    await asyncio.sleep(delay)
                t0 = time.monotonic()
                send_times[i] = t0
                try:
                    responses[i] = await client.run_trial(
                        spec,
                        root_seed=config.root_seed,
                        deadline_ms=config.deadline_ms,
                        req_id=f"lg{i}",
                        mode=config.mode,
                    )
                except ServiceConnectionError as exc:
                    # Attribute the loss instead of crashing the run,
                    # then reconnect for the remaining requests.
                    responses[i] = {
                        "id": f"lg{i}",
                        "status": "connection_error",
                        "error": str(exc),
                    }
                    await client.close()
                    client = await ServiceClient.connect(
                        host, port, retry_for_s=config.connect_timeout_s
                    )
                latencies.append(time.monotonic() - t0)
        finally:
            await client.close()

    workers = [
        asyncio.create_task(worker())
        for _ in range(max(1, config.concurrency))
    ]
    await asyncio.gather(*workers)
    wall_s = time.monotonic() - started

    status_counts: dict[str, int] = {}
    for resp in responses:
        status = resp.get("status", "missing") if resp else "missing"
        status_counts[status] = status_counts.get(status, 0) + 1
    ok = status_counts.get(STATUS_OK, 0)

    mismatches: list[str] = []
    verified = 0
    if config.verify:
        for i, (spec, resp) in enumerate(zip(specs, responses)):
            if not resp or resp.get("status") != STATUS_OK:
                continue
            if config.mode == "estimate":
                # Estimates are deterministic closed forms of the spec:
                # the oracle is the local estimator, not a serial replay.
                from ..analysis.estimate import estimate_spec

                local = estimate_spec(spec).to_metrics()
                oracle = "local estimate"
            else:
                from ..sim.sweep import _execute_trial

                local, _ = _execute_trial((spec, config.root_seed))
                oracle = "serial replay"
            verified += 1
            if resp["metrics"] != local:
                mismatches.append(
                    f"request lg{i} ({spec.label()}): served "
                    f"{resp['metrics']} != {oracle} {local}"
                )

    server_stats: dict[str, Any] | None = None
    try:
        async with await ServiceClient.connect(host, port) as client:
            server_stats = await client.stats()
            if config.shutdown:
                await client.shutdown()
    except (OSError, ConnectionError, ProtocolError):
        pass  # server already gone; report client-side numbers only

    batch_sizes = [
        r["batched"] for r in responses if r and r.get("status") == STATUS_OK
    ]
    lat_ms = sorted(lat * 1000.0 for lat in latencies)

    def q(fraction: float) -> float:
        from ..telemetry.metrics import quantile

        return round(quantile(lat_ms, fraction), 3)

    return {
        "config": {
            "workload": config.effective_workload(),
            "scenario": config.scenario,
            "workload_params": dict(config.workload_params),
            "simulator": config.simulator,
            "simulators": list(config.simulators),
            "lengths": list(config.lengths),
            "channels": list(config.channels),
            "message_length": config.message_length,
            "requests": config.requests,
            "concurrency": config.concurrency,
            "rate_rps": config.rate,
            "root_seed": config.root_seed,
            "deadline_ms": config.deadline_ms,
            "mode": config.mode,
        },
        "wall_s": round(wall_s, 4),
        "throughput_rps": round(len(latencies) / wall_s, 2) if wall_s else 0.0,
        "statuses": status_counts,
        "ok": ok,
        "latency_ms": {
            "count": len(lat_ms),
            "mean": round(sum(lat_ms) / len(lat_ms), 3) if lat_ms else 0.0,
            "p50": q(0.50),
            "p95": q(0.95),
            "p99": q(0.99),
            "max": round(lat_ms[-1], 3) if lat_ms else 0.0,
        },
        "client_mean_batch": (
            round(sum(batch_sizes) / len(batch_sizes), 3)
            if batch_sizes
            else 0.0
        ),
        "verified": verified,
        "mismatches": mismatches,
        "bit_exact": (not mismatches) if config.verify else None,
        "server": server_stats,
    }
