"""One v1-protocol serving endpoint; a tier supplies only ``dispatch``.

:class:`Endpoint` owns everything a tier does before and after it
decides *where a run executes*: the ``asyncio.start_server`` acceptor
reading newline-delimited JSON (:mod:`repro.service.protocol`, one
in-flight ``run`` per connection), the version check and op table
(``run`` / ``health`` / ``stats`` / ``shutdown``), the ``run`` prologue
(parse, the ``mode=estimate`` closed-form fast path, the ``draining``
reject), the in-flight ledger behind the graceful drain, and the
:func:`serve` signal/banner scaffold.  A number therefore reads the same
— and a malformed line is refused the same — whichever tier serves it.

Two tiers subclass it: :class:`~repro.service.server.SimulationService`
(``dispatch`` = admit → await the batcher) and
:class:`~repro.cluster.router.ClusterRouter` (``dispatch`` = cache →
ring → forward/retry).  Each adds its ``health``/``stats`` bodies, the
start-up/tear-down of what it owns, and its two banner lines.

Graceful shutdown (``shutdown`` op, or SIGINT/SIGTERM under
:func:`serve`) follows the drain discipline: stop accepting
connections, reject new ``run`` admissions with a ``draining``
backpressure response, wait until every admitted run has resolved and
its response has been written, let the tier stop what it owns, then
close.  No admitted request is ever dropped or answered partially; a
peer that stops reading is hung up on after :data:`SEND_TIMEOUT_S`, so
it cannot hold the drain open.
"""

from __future__ import annotations

import abc
import asyncio
import contextlib
import signal
from typing import Any

from ..network.errors import NetworkError
from ..telemetry.metrics import EventCounter, LatencyRecorder
from .protocol import (
    MAX_LINE_BYTES,
    MODE_ESTIMATE,
    PROTOCOL_VERSION,
    ProtocolError,
    RunRequest,
    UnknownModeError,
    UnsupportedVersionError,
    check_version,
    decode_message,
    encode_message,
    error_response,
    ok_response,
    parse_run_request,
    reject_response,
    unknown_mode_response,
    unsupported_version_response,
)

__all__ = ["DRAIN_RETRY_AFTER_MS", "Endpoint", "serve"]

#: Backpressure hint attached to ``draining`` rejects.
DRAIN_RETRY_AFTER_MS = 1000.0
#: How long the rest of an over-long line is read and discarded after
#: the error reply.  Closing with the sender's bytes still unread resets
#: the connection, which can destroy the reply before it is read.
OVERLONG_LINGER_S = 1.0
#: How long a reply may wait for a peer that is not reading it; on
#: expiry the connection is aborted.
SEND_TIMEOUT_S = 30.0


class Endpoint(abc.ABC):
    """One listening tier: call :meth:`run` (blocks until drained).

    Counter schema shared by both tiers (each appends its own
    ``tier_counters``; the router's ``stats`` also merges
    :meth:`repro.cache.ResultCache.snapshot`'s ``cache_*`` keys and the
    exec backends' ``worker_restarts``): ``requests_total`` runs
    attempted, ``completed`` answered ``ok`` (exact and estimate alike;
    ``estimated`` sub-counts the estimate fast path),
    ``rejected_draining``, ``errors``, ``protocol_errors``.
    """

    def __init__(self, host: str, port: int, *tier_counters: str) -> None:
        self.counters = EventCounter(
            "requests_total",
            "completed",
            "estimated",
            "rejected_draining",
            "errors",
            "protocol_errors",
            *tier_counters,
        )
        self.latency = LatencyRecorder()
        self.started = asyncio.Event()
        #: The bound port, once listening (``port=0`` asks the OS).
        self.port: int | None = None
        #: Runs past the prologue whose response is not yet written.
        self.in_flight = 0
        self._bind = (host, port)
        self._shutdown = asyncio.Event()
        self._draining = False
        self._writers: set[asyncio.StreamWriter] = set()
        self._conn_tasks: set[asyncio.Task] = set()
        self._all_flushed = asyncio.Event()
        self._all_flushed.set()
        self._started_at: float | None = None

    # -- what a tier supplies ------------------------------------------
    @abc.abstractmethod
    async def dispatch(self, request: RunRequest) -> dict[str, Any]:
        """Execute one admitted exact run; returns its response."""

    def screen(self, request: RunRequest) -> dict[str, Any] | None:
        """A reject that outranks ``draining``, or ``None`` to proceed."""
        return None

    @abc.abstractmethod
    def health(self) -> dict[str, Any]:
        """The ``health`` body (start from :meth:`_preface`)."""

    @abc.abstractmethod
    async def stats(self) -> dict[str, Any]:
        """The ``stats`` body (start from :meth:`_preface`)."""

    @abc.abstractmethod
    def listening_banner(self) -> str:
        """The line :func:`serve` prints once listening."""

    @abc.abstractmethod
    def drained_banner(self) -> str:
        """The line :func:`serve` prints once drained."""

    async def startup(self) -> None:
        """Bring up what the tier owns, before the socket is bound."""

    def on_listening(self) -> None:
        """The socket is bound (``self.port`` set), not yet announced."""

    def on_disconnect(self) -> None:
        """A connection just left :attr:`open_connections`."""

    async def teardown(self) -> None:
        """Stop what the tier owns; every admitted run has flushed."""

    # -- lifecycle -----------------------------------------------------
    @property
    def draining(self) -> bool:
        return self._draining

    def request_shutdown(self) -> None:
        """Begin the graceful drain (idempotent, callable from signals)."""
        self._draining = True
        self._shutdown.set()

    @property
    def open_connections(self) -> int:
        """Connections accepted and not yet closed, whatever they await."""
        return len(self._writers)

    async def run(self) -> None:
        """Listen, serve, drain; returns once fully shut down."""
        self._started_at = asyncio.get_running_loop().time()
        await self.startup()
        server = await asyncio.start_server(
            self._handle_connection, *self._bind, limit=MAX_LINE_BYTES
        )
        self.port = server.sockets[0].getsockname()[1]
        self.on_listening()
        self.started.set()
        try:
            await self._shutdown.wait()
        finally:
            self.request_shutdown()
            # 1. Stop accepting new connections; new runs on live
            #    connections are rejected as draining.
            server.close()
            await server.wait_closed()
            # 2. Every admitted run resolves and its response is written.
            await self._all_flushed.wait()
            # 3. The tier stops what it owns.
            await self.teardown()
            # 4. Close lingering connections; handlers exit on EOF.
            for writer in list(self._writers):
                writer.close()
            if self._conn_tasks:
                await asyncio.gather(*self._conn_tasks, return_exceptions=True)

    # -- connection handling -------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        task.add_done_callback(self._conn_tasks.discard)
        self._writers.add(writer)
        try:
            # A closing writer (``_send`` aborted a peer that stopped
            # reading) can answer nothing: leave its buffered lines unread.
            while not writer.is_closing():
                try:
                    line = await reader.readline()
                except ValueError:
                    # readline() reports a line over the limit this way.
                    # The rest of the oversized frame cannot be
                    # resynchronised, so answer and hang up.
                    await self._protocol_error(
                        writer,
                        error_response(
                            None,
                            f"message line exceeds MAX_LINE_BYTES "
                            f"({MAX_LINE_BYTES} bytes); closing connection",
                        ),
                    )
                    # OSError: the sender reset instead of reading it.
                    with contextlib.suppress(OSError, asyncio.TimeoutError):
                        writer.write_eof()
                        await asyncio.wait_for(
                            self._discard_input(reader), OVERLONG_LINGER_S
                        )
                    break
                if not line:
                    break
                await self._handle_line(line, writer)
        except ConnectionResetError:
            pass
        finally:
            self._writers.discard(writer)
            self.on_disconnect()
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    @staticmethod
    async def _discard_input(reader: asyncio.StreamReader) -> None:
        while await reader.read(1 << 16):
            pass

    async def _handle_line(
        self, line: bytes, writer: asyncio.StreamWriter
    ) -> None:
        try:
            msg = decode_message(line)
        except ProtocolError as exc:
            await self._protocol_error(writer, error_response(None, str(exc)))
            return
        # The one request-id normalisation: every reply below, error
        # paths included, echoes a string id.
        req_id = msg["id"] if isinstance(msg.get("id"), str) else ""
        try:
            check_version(msg)
        except UnsupportedVersionError as exc:
            await self._protocol_error(
                writer, unsupported_version_response(req_id, exc.got)
            )
            return
        op = msg.get("op")
        if op == "run":
            await self._handle_run(msg, req_id, writer)
        elif op == "health":
            await self._send(
                writer, {"v": PROTOCOL_VERSION, "id": req_id, **self.health()}
            )
        elif op == "stats":
            await self._send(
                writer,
                {"v": PROTOCOL_VERSION, "id": req_id, **await self.stats()},
            )
        elif op == "shutdown":
            await self._send(
                writer,
                {
                    "v": PROTOCOL_VERSION,
                    "id": req_id,
                    "status": "ok",
                    "draining": True,
                },
            )
            self.request_shutdown()
        else:
            await self._protocol_error(
                writer, error_response(req_id, f"unknown op {op!r}")
            )

    async def _handle_run(
        self, msg: dict[str, Any], req_id: str, writer: asyncio.StreamWriter
    ) -> None:
        self.counters.bump("requests_total")
        try:
            request = parse_run_request(msg)
        except UnknownModeError as exc:
            await self._protocol_error(
                writer, unknown_mode_response(req_id, exc.got)
            )
            return
        except ProtocolError as exc:
            await self._protocol_error(writer, error_response(req_id, str(exc)))
            return
        if request.mode == MODE_ESTIMATE:
            # Estimates are closed-form — bit-stable pure functions of
            # the spec — and never touch a queue, batcher or worker, so
            # — like health/stats — they are served even while draining.
            response = self._estimate_response(request)
        else:
            response = self.screen(request)
            if response is None and self._draining:
                self.counters.bump("rejected_draining")
                response = reject_response(
                    request.id, "draining", retry_after_ms=DRAIN_RETRY_AFTER_MS
                )
        if response is not None:
            await self._send(writer, response)
            return
        self.in_flight += 1
        self._all_flushed.clear()
        try:
            await self._send(writer, await self.dispatch(request))
        finally:
            self.in_flight -= 1
            if self.in_flight == 0:
                self._all_flushed.set()

    def _estimate_response(self, request: RunRequest) -> dict[str, Any]:
        """Answer an estimate request synchronously from closed form."""
        from ..analysis.estimate import estimate_spec

        loop = asyncio.get_running_loop()
        start = loop.time()
        try:
            metrics = estimate_spec(request.spec).to_metrics()
        except NetworkError as exc:
            self.counters.bump("errors")
            return error_response(request.id, str(exc))
        self.counters.bump("estimated")
        self._completed(loop.time() - start)
        return ok_response(
            request.id, metrics, batched=0, queue_ms=0.0, mode=MODE_ESTIMATE
        )

    def _completed(self, latency_s: float) -> None:
        """One ``ok`` answer: the tier decides which clock it hands in."""
        self.counters.bump("completed")
        self.latency.record(latency_s)

    async def _protocol_error(
        self, writer: asyncio.StreamWriter, response: dict[str, Any]
    ) -> None:
        self.counters.bump("protocol_errors")
        await self._send(writer, response)

    async def _send(
        self, writer: asyncio.StreamWriter, msg: dict[str, Any]
    ) -> None:
        try:
            writer.write(encode_message(msg))
            drain = writer.drain()
            if writer.transport.get_write_buffer_size():
                # The socket did not take the whole reply, so the peer is
                # behind and drain() may block.  Only then is the wait
                # bounded: wait_for costs a task, and the usual reply
                # leaves the buffer empty.
                drain = asyncio.wait_for(drain, SEND_TIMEOUT_S)
            await drain
        except asyncio.TimeoutError:
            # A peer that stopped reading: hang up on it rather than let
            # it hold ``in_flight`` and the graceful drain open forever.
            writer.transport.abort()
        except (ConnectionResetError, BrokenPipeError, RuntimeError):
            pass  # client went away; the drain ledger still balances

    # -- introspection -------------------------------------------------
    def _preface(self) -> dict[str, Any]:
        """The fields every ``health`` and ``stats`` reply starts with."""
        uptime = 0.0
        if self._started_at is not None:
            uptime = asyncio.get_running_loop().time() - self._started_at
        return {
            "status": "draining" if self._draining else "ok",
            "protocol": PROTOCOL_VERSION,
            "uptime_s": round(uptime, 3),
        }


async def serve(endpoint: Endpoint) -> None:
    """Run a tier until SIGINT/SIGTERM (or a ``shutdown`` op), then drain."""
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError, RuntimeError):
            loop.add_signal_handler(sig, endpoint.request_shutdown)
    runner = asyncio.create_task(endpoint.run())
    await endpoint.started.wait()
    print(endpoint.listening_banner(), flush=True)
    await runner
    print(endpoint.drained_banner(), flush=True)
