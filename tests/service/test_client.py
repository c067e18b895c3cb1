"""Client-side failure attribution: structured errors, timeouts, and
the multi-key loadgen spec stream."""

import asyncio

import pytest

from repro.service import (
    LoadgenConfig,
    ServiceClient,
    ServiceConnectionError,
    ServiceTimeoutError,
)

WORKLOAD_PARAMS = {"chains": 2, "depth": 4, "messages": 3}


def run_async(coro, timeout=30):
    return asyncio.run(asyncio.wait_for(coro, timeout))


async def _fake_server(handler):
    """An asyncio server running ``handler``; returns (server, port)."""
    server = await asyncio.start_server(handler, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1]


def test_timeout_raises_structured_timeout_error():
    """A server that accepts but never answers trips ``timeout_s`` with
    a :class:`ServiceTimeoutError` naming peer, op, and request id."""

    async def drive():
        async def black_hole(reader, writer):
            await reader.readline()  # swallow the request, answer nothing

        server, port = await _fake_server(black_hole)
        try:
            async with await ServiceClient.connect("127.0.0.1", port) as c:
                with pytest.raises(ServiceTimeoutError) as exc_info:
                    await c.request(
                        {"op": "health", "id": "t1"}, timeout_s=0.05
                    )
        finally:
            server.close()
            await server.wait_closed()
        return exc_info.value

    err = run_async(drive())
    assert err.op == "health" and err.req_id == "t1"
    assert err.timeout_s == pytest.approx(0.05)
    assert "health" in str(err) and "t1" in str(err)
    # The timeout is a *kind of* connection failure: one except clause
    # catches both on the retry path.
    assert isinstance(err, ServiceConnectionError)
    assert isinstance(err, ConnectionError)


def test_server_closing_mid_request_raises_attributable_error():
    async def drive():
        async def slammer(reader, writer):
            await reader.readline()
            writer.close()  # EOF instead of a response line

        server, port = await _fake_server(slammer)
        try:
            async with await ServiceClient.connect("127.0.0.1", port) as c:
                with pytest.raises(ServiceConnectionError) as exc_info:
                    await c.run_trial(
                        {
                            "workload": "chain-bundle",
                            "workload_params": WORKLOAD_PARAMS,
                        },
                        req_id="r7",
                    )
        finally:
            server.close()
            await server.wait_closed()
        return exc_info.value

    err = run_async(drive())
    assert err.op == "run" and err.req_id == "r7"
    assert err.peer.startswith("127.0.0.1:")
    assert "closed the connection" in str(err)


def test_no_timeout_means_unbounded_wait():
    """``timeout_s=None`` preserves the old blocking contract."""

    async def drive():
        async def slow_echo(reader, writer):
            await reader.readline()
            await asyncio.sleep(0.1)
            writer.write(b'{"status": "ok", "id": "s"}\n')
            await writer.drain()

        server, port = await _fake_server(slow_echo)
        try:
            async with await ServiceClient.connect("127.0.0.1", port) as c:
                return await c.request({"op": "health", "id": "s"})
        finally:
            server.close()
            await server.wait_closed()

    assert run_async(drive())["status"] == "ok"


# ----------------------------------------------------------------------
# Multi-key loadgen spec stream
# ----------------------------------------------------------------------


def test_default_spec_stream_is_unchanged():
    """With one simulator and one length the classic ordering holds: channels
    cycle fastest, the repeat counter advances."""
    config = LoadgenConfig(
        workload_params=WORKLOAD_PARAMS,
        channels=(1, 2),
        lengths=(8,),
        requests=6,
    )
    specs = config.specs()
    assert [(s.B, s.repeat) for s in specs] == [
        (1, 0), (2, 0), (1, 1), (2, 1), (1, 2), (2, 2),
    ]
    assert {s.simulator for s in specs} == {"wormhole"}


def test_multi_key_stream_cycles_pairs_between_channels_and_repeats():
    config = LoadgenConfig(
        workload_params=WORKLOAD_PARAMS,
        channels=(1, 2),
        simulators=("wormhole", "cut_through"),
        lengths=(8, 16),
        requests=16,
    )
    specs = config.specs()
    # 2 channels x 4 (sim, length) pairs = 8 unique cells per repeat.
    assert [(s.simulator, s.message_length, s.B) for s in specs[:8]] == [
        ("wormhole", 8, 1), ("wormhole", 8, 2),
        ("wormhole", 16, 1), ("wormhole", 16, 2),
        ("cut_through", 8, 1), ("cut_through", 8, 2),
        ("cut_through", 16, 1), ("cut_through", 16, 2),
    ]
    assert [s.repeat for s in specs[:8]] == [0] * 8
    assert [s.repeat for s in specs[8:]] == [1] * 8
    # Every spec is unique: nothing silently collapses to a cache hit.
    assert len({(s.simulator, s.message_length, s.B, s.repeat)
                for s in specs}) == 16
