"""Wire conformance: ``repro serve`` and ``repro cluster serve`` are one
endpoint, so the same line must draw the same reply from either tier.

Each tier is spun up once and walked through one scripted conversation
(``_converse``); the tests below read that transcript.  A real
:class:`ClusterRouter` spawns a real worker subprocess, so one
conversation per tier keeps the suite cheap.

The client here is a bare socket that counts lines both ways — not
:class:`~repro.service.client.ServiceClient` — so hostile framing
(garbage, an over-long line, pipelined requests) reaches the tier as
written and "every line sent gets exactly one response line" is
checked against what actually crossed the wire.
"""

import asyncio
import functools
import json
import socket

import pytest

from repro.analysis.estimate import estimate_spec
from repro.cluster import ClusterConfig, ClusterRouter
from repro.service import ServiceConfig, SimulationService
from repro.service.protocol import MAX_LINE_BYTES, parse_run_request

TIERS = ("serve", "cluster")

SPEC = {
    "workload": "chain-bundle",
    "simulator": "wormhole",
    "B": 2,
    "workload_params": {"chains": 2, "depth": 4, "messages": 3},
    "message_length": 8,
}

# The parent commit's reply schemas, pinned literally (plus v/id).
PREFACE = {"v", "id", "status", "protocol", "uptime_s"}
HEALTH_KEYS = {
    "serve": PREFACE
    | {"queue_depth", "in_flight", "backend", "backend_mode", "worker_restarts"},
    "cluster": PREFACE
    | {
        "in_flight",
        "backend",
        "backend_mode",
        "workers",
        "workers_alive",
        "worker_restarts",
        "cache",
    },
}
STATS_KEYS = {
    "serve": PREFACE
    | {"queue", "in_flight", "counters", "batches", "latency_ms", "exec"},
    "cluster": PREFACE
    | {
        "in_flight",
        "counters",
        "latency_ms",
        "cache",
        "tier",
        "batches",
        "workers",
    },
}
SHARED_COUNTERS = {
    "requests_total",
    "completed",
    "estimated",
    "rejected_draining",
    "errors",
    "protocol_errors",
}
COUNTER_KEYS = {
    "serve": SHARED_COUNTERS
    | {"rejected_queue_full", "rejected_infeasible", "deadline_expired"},
    "cluster": SHARED_COUNTERS
    | {"cache_served", "forwarded", "forward_retries", "rejected_unavailable"},
}
LATENCY_KEYS = {"count", "mean", "p50", "p95", "p99", "max"}

# Replies that must be identical across tiers, key for key.
SHARED_CASES = (
    "overlong",
    "garbage",
    "unknown_op",
    "bad_version",
    "unknown_mode",
    "list_id",
    "bad_spec",
    "bad_param_estimate",
    "bad_type_estimate",
    "shutdown",
    "estimate_draining",
    "run_draining",
)


class _Conn:
    """A raw newline-JSON connection that counts lines both ways."""

    def __init__(self, reader, writer):
        self.reader, self.writer = reader, writer
        self.sent = self.received = 0

    @classmethod
    async def open(cls, port):
        return cls(
            *await asyncio.open_connection(
                "127.0.0.1", port, limit=MAX_LINE_BYTES
            )
        )

    async def ask_raw(self, *lines):
        """Send ``lines`` in one write; returns one reply per line
        (``None`` where the tier hung up instead of answering)."""
        self.sent += len(lines)
        replies = []
        try:
            self.writer.write(b"".join(lines))
            await self.writer.drain()
            for _ in lines:
                reply = await self.reader.readline()
                if reply:
                    self.received += 1
                replies.append(json.loads(reply) if reply else None)
        except ConnectionError:
            replies += [None] * (len(lines) - len(replies))
        return replies

    async def ask(self, **msg):
        return (await self.ask_raw(_line(**msg)))[0]

    async def rest(self):
        """Everything the tier still sends before it closes (b"" = none)."""
        try:
            return await asyncio.wait_for(self.reader.read(), 30)
        except ConnectionError:
            return b""
        finally:
            self.writer.close()


def _line(**msg):
    return json.dumps(msg).encode() + b"\n"


def _make(tier):
    if tier == "serve":
        # step_cost_ms arms the infeasible-deadline screen (worker only).
        return SimulationService(ServiceConfig(port=0, step_cost_ms=1.0))
    return ClusterRouter(ClusterConfig(port=0, workers=1))


async def _converse(tier):
    tasks_before = asyncio.all_tasks()
    endpoint = _make(tier)
    task = asyncio.create_task(endpoint.run())
    await endpoint.started.wait()
    t = {}
    # Hostile framing first, on a throw-away connection, so the stats
    # read right after it sees exactly this one protocol error.
    big = await _Conn.open(endpoint.port)
    [t["overlong"]] = await big.ask_raw(b"x" * (2 * MAX_LINE_BYTES) + b"\n")
    t["overlong_rest"] = await big.rest()
    conn = await _Conn.open(endpoint.port)
    t["stats_after_overlong"] = await conn.ask(op="stats", id="s1")
    [t["garbage"]] = await conn.ask_raw(b"not json\n")
    t["unknown_op"] = await conn.ask(op="transmogrify", id="x")
    t["bad_version"] = await conn.ask(op="run", id="vfuture", v=99)
    t["unknown_mode"] = await conn.ask(op="run", id="m", spec=SPEC, mode="turbo")
    t["list_id"] = await conn.ask(op="run", id=[1], spec=SPEC)
    t["bad_spec"] = await conn.ask(
        op="run", id="w", spec={"workload": "no-such-workload"}
    )
    # A workload parameter the builder does not take, or cannot use,
    # is only discovered when the workload is built — past the parser.
    for case, params in (("bad_param", {"nosuch": 1}), ("bad_type", {"chains": "x"})):
        spec = {**SPEC, "workload_params": params}
        t[f"{case}_estimate"] = await conn.ask(
            op="run", id=case, spec=spec, mode="estimate"
        )
        t[f"{case}_exact"] = await conn.ask(op="run", id=case, spec=spec)
    t["health"] = await conn.ask(op="health", id="h")
    t["stats"] = await conn.ask(op="stats", id="s2")
    # One write: the handler answers buffered lines back to back, so the
    # drain cannot close this connection between the ack and the runs
    # that must observe the draining state.
    (
        t["shutdown"],
        t["estimate_draining"],
        t["run_draining"],
        t["tight_draining"],
    ) = await conn.ask_raw(
        _line(op="shutdown", id="bye"),
        _line(op="run", id="e", spec=SPEC, mode="estimate"),
        _line(op="run", id="late", spec=SPEC),
        _line(op="run", id="tight", spec=SPEC, deadline_ms=0.001),
    )
    await asyncio.wait_for(task, 60)
    t["conn_rest"] = await conn.rest()
    t["lines"] = [(c.sent, c.received) for c in (big, conn)]
    t["tasks_left"] = len(asyncio.all_tasks() - tasks_before)
    t["counters"] = endpoint.counters.snapshot()
    return t


@functools.cache
def transcript(tier):
    return asyncio.run(asyncio.wait_for(_converse(tier), 120))


def _error(t, case, req_id, needle):
    reply = t[case]
    assert reply is not None, f"{case}: the tier hung up without a reply"
    assert reply["v"] == 1 and reply["status"] == "error"
    assert reply["id"] == req_id
    assert needle in reply["error"]
    return reply


@pytest.mark.parametrize("tier", TIERS)
def test_overlong_line_is_a_structured_error_then_hangup(tier):
    t = transcript(tier)
    reply = _error(t, "overlong", "", "MAX_LINE_BYTES")
    assert str(MAX_LINE_BYTES) in reply["error"]
    # The oversized frame cannot be resynchronised: nothing further is
    # sent and the connection is closed ...
    assert t["overlong_rest"] == b""
    # ... but the tier still serves the next connection, and counted it.
    after = t["stats_after_overlong"]
    assert after["status"] == "ok"
    assert after["counters"]["protocol_errors"] == 1


@pytest.mark.parametrize("tier", TIERS)
def test_garbage_line(tier):
    _error(transcript(tier), "garbage", "", "not valid JSON")


@pytest.mark.parametrize("tier", TIERS)
def test_unknown_op(tier):
    _error(transcript(tier), "unknown_op", "x", "unknown op 'transmogrify'")


@pytest.mark.parametrize("tier", TIERS)
def test_unsupported_version(tier):
    """A ``v`` the tier does not speak bounces without touching the op."""
    t = transcript(tier)
    reply = _error(t, "bad_version", "vfuture", "unsupported protocol version")
    assert reply["supported_versions"] == [1]
    # The connection survived (later cases ran on it) and no run was
    # attempted on the message's behalf.
    assert t["health"]["status"] == "ok"
    assert t["counters"]["requests_total"] == 10


@pytest.mark.parametrize("tier", TIERS)
def test_unknown_mode(tier):
    reply = _error(transcript(tier), "unknown_mode", "m", "unknown mode 'turbo'")
    assert reply["supported_modes"] == ["exact", "estimate"]


@pytest.mark.parametrize("tier", TIERS)
def test_non_string_id_on_run_is_normalised(tier):
    """Every error path echoes a string id, ``run`` included."""
    _error(transcript(tier), "list_id", "", "'id' must be a string")


@pytest.mark.parametrize("tier", TIERS)
def test_invalid_spec_is_answered_at_the_endpoint(tier):
    t = transcript(tier)
    _error(t, "bad_spec", "w", "unknown workload")
    if tier == "cluster":
        # Protocol errors are answered at the router, never forwarded:
        # only the two exact runs with a bad workload parameter were.
        assert t["counters"]["forwarded"] == 2
        assert t["health"]["workers_alive"] == 1


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("mode", ("estimate", "exact"))
@pytest.mark.parametrize("case", ("bad_param", "bad_type"))
def test_bad_workload_parameter_is_a_structured_error(tier, mode, case):
    """Found only when the workload is built, in either mode: still one
    error reply naming the workload and what it takes — not a dropped
    connection (``health`` is answered on the same one right after)."""
    t = transcript(tier)
    reply = _error(t, f"{case}_{mode}", case, "workload 'chain-bundle'")
    assert "parameters: chains, depth, messages" in reply["error"]
    assert "_wl_" not in reply["error"] and "()" not in reply["error"]
    assert t["health"]["status"] == "ok"
    # Two estimate errors at the endpoint; the two exact ones where the
    # trial ran (the router's worker counts its own).
    errors = t["stats"]["counters"]["errors"]
    if tier == "serve":
        assert errors == 4
    else:
        assert errors == 2
        assert t["stats"]["workers"][0]["counters"]["errors"] == 2


@pytest.mark.parametrize("tier", TIERS)
def test_shutdown_ack(tier):
    assert transcript(tier)["shutdown"] == {
        "v": 1,
        "id": "bye",
        "status": "ok",
        "draining": True,
    }


@pytest.mark.parametrize("tier", TIERS)
def test_estimate_is_answered_while_draining(tier):
    t = transcript(tier)
    reply = t["estimate_draining"]
    spec = parse_run_request({"spec": SPEC}).spec
    assert reply == {
        "v": 1,
        "id": "e",
        "status": "ok",
        "mode": "estimate",
        "metrics": estimate_spec(spec).to_metrics(),
        "batched": 0,
        "queue_ms": 0.0,
    }
    assert t["counters"]["estimated"] == 1
    assert t["counters"]["completed"] == 1


@pytest.mark.parametrize("tier", TIERS)
def test_draining_reject_carries_retry_after(tier):
    assert transcript(tier)["run_draining"] == {
        "v": 1,
        "id": "late",
        "status": "rejected",
        "error": "draining",
        "retry_after_ms": 1000.0,
    }


def test_infeasible_deadline_outranks_draining():
    """The worker's screen runs before the drain check; the router has
    no screen, so the same request is an ordinary draining reject."""
    serve = transcript("serve")
    assert serve["tight_draining"]["status"] == "rejected"
    assert serve["tight_draining"]["error"] == "infeasible_deadline"
    assert serve["counters"]["rejected_infeasible"] == 1
    assert serve["counters"]["rejected_draining"] == 1
    cluster = transcript("cluster")
    assert cluster["tight_draining"]["error"] == "draining"
    assert cluster["counters"]["rejected_draining"] == 2


@pytest.mark.parametrize("tier", TIERS)
def test_health_and_stats_key_sets(tier):
    t = transcript(tier)
    assert set(t["health"]) == HEALTH_KEYS[tier]
    assert set(t["stats"]) == STATS_KEYS[tier]
    assert set(t["stats"]["counters"]) == COUNTER_KEYS[tier]
    assert set(t["stats"]["latency_ms"]) == LATENCY_KEYS
    assert t["health"]["status"] == t["stats"]["status"] == "ok"
    assert t["health"]["protocol"] == t["stats"]["protocol"] == 1
    if tier == "serve":
        assert set(t["stats"]["queue"]) == {"depth", "peak", "limit"}
    else:
        [worker] = t["stats"]["workers"]
        assert set(worker) == STATS_KEYS["serve"]
        assert set(worker["counters"]) == COUNTER_KEYS["serve"]


@pytest.mark.parametrize("tier", TIERS)
def test_every_line_answered_once_and_nothing_left_pending(tier):
    t = transcript(tier)
    # One response line per line sent, on every connection ...
    assert t["lines"] == [(1, 1), (17, 17)]
    # ... no stray extra line before the drain closed the connection ...
    assert t["conn_rest"] == b""
    # ... and no connection task outlived the drain.
    assert t["tasks_left"] == 0
    # Seven malformed lines, each counted exactly once.
    assert t["counters"]["protocol_errors"] == 7


#: A stalled peer pipelines this many estimate runs and never reads.
#: Each carries a 64 KiB id, which every reply echoes, so a few dozen
#: replies fill the socket buffers and the rest cannot be written.
STALL_RUNS = 256
STALL_ID = "p" * (1 << 16)


async def _stall(tier):
    endpoint = _make(tier)
    task = asyncio.create_task(endpoint.run())
    await endpoint.started.wait()
    sock = socket.socket()
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    sock.setblocking(False)
    await asyncio.get_running_loop().sock_connect(sock, ("127.0.0.1", endpoint.port))
    _, writer = await asyncio.open_connection(sock=sock, limit=MAX_LINE_BYTES)
    writer.transport.pause_reading()
    line = _line(op="run", id=STALL_ID, spec=SPEC, mode="estimate")
    writer.write(line * STALL_RUNS)
    try:
        # The tier hangs up once a reply has waited SEND_TIMEOUT_S.
        while endpoint.open_connections:
            await asyncio.sleep(0.01)
        in_flight = endpoint.in_flight
        endpoint.request_shutdown()
        await task
    finally:
        # A reset frees a tier still stuck on this peer, so a failure
        # here ends in a timeout rather than a hang.
        writer.transport.abort()
    return in_flight, endpoint.counters.snapshot()


@pytest.mark.parametrize("tier", TIERS)
def test_a_peer_that_stops_reading_cannot_pin_the_drain(tier, monkeypatch):
    monkeypatch.setattr("repro.service.endpoint.SEND_TIMEOUT_S", 0.1)
    in_flight, counters = asyncio.run(asyncio.wait_for(_stall(tier), 60))
    assert in_flight == 0
    # The peer was cut off mid-pipeline, not answered in full ...
    assert 0 < counters["estimated"] < STALL_RUNS
    # ... every run read before that was answered exactly once, and the
    # half-read rest was dropped, not parsed as a malformed line.
    assert counters["requests_total"] == counters["estimated"]
    assert counters["completed"] == counters["estimated"]
    assert counters["protocol_errors"] == 0


def test_tiers_answer_identically():
    serve, cluster = transcript("serve"), transcript("cluster")
    for case in SHARED_CASES:
        assert serve[case] == cluster[case], case
    for reply in ("health", "stats"):
        shared = PREFACE - {"uptime_s"}
        assert {k: serve[reply][k] for k in shared} == {
            k: cluster[reply][k] for k in shared
        }
