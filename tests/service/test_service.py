"""End-to-end service tests: golden equivalence, backpressure, draining.

These exercise a real :class:`SimulationService` on an ephemeral port
inside ``asyncio.run`` (no event-loop plugin needed).  The headline
test is the golden-equivalence run: a concurrent load generator whose
every response must be bit-identical to a serial one-trial replay
through the sweep runner, while the
server's stats endpoint reports mean batch occupancy > 1 — i.e. the
dynamic batcher really coalesced concurrent requests and really did
not change a single answer.
"""

import asyncio
import contextlib
import threading

import pytest

from repro.service import (
    STATUS_EXPIRED,
    STATUS_OK,
    STATUS_REJECTED,
    LoadgenConfig,
    ServiceClient,
    ServiceConfig,
    SimulationService,
    run_loadgen,
)
from repro.sim.sweep import TrialSpec, _execute_trial

WORKLOAD_PARAMS = {"chains": 2, "depth": 4, "messages": 3}


def _spec(B=2, repeat=0):
    return TrialSpec.make(
        "chain-bundle",
        "wormhole",
        B=B,
        workload_params=WORKLOAD_PARAMS,
        message_length=8,
        repeat=repeat,
    )


def run_async(coro, timeout=60):
    return asyncio.run(asyncio.wait_for(coro, timeout))


@contextlib.asynccontextmanager
async def service(**overrides):
    """A live service on an ephemeral port; drains cleanly on exit."""
    overrides.setdefault("port", 0)
    svc = SimulationService(ServiceConfig(**overrides))
    task = asyncio.create_task(svc.run())
    await svc.started.wait()
    try:
        yield svc
    finally:
        svc.request_shutdown()
        await task


async def _wait_for_depth(svc, depth):
    """Poll until ``depth`` requests are queued (event-loop friendly)."""
    while len(svc.queue) < depth:
        await asyncio.sleep(0.005)


def test_golden_equivalence_under_concurrent_load():
    """Concurrent loadgen: batched answers bit-identical to serial runs.

    Pins the acceptance criterion: at concurrency 8 the stats endpoint
    must report mean batch occupancy > 1 while every response matches a
    local serial replay byte for byte.
    """

    async def drive():
        async with service(max_wait_ms=60.0, max_batch=32) as svc:
            config = LoadgenConfig(
                workload="chain-bundle",
                workload_params=WORKLOAD_PARAMS,
                channels=(1, 2, 4),
                lengths=(8,),
                requests=24,
                concurrency=8,
                root_seed=3,
                verify=True,
            )
            return await run_loadgen("127.0.0.1", svc.port, config)

    report = run_async(drive(), timeout=120)
    assert report["statuses"] == {STATUS_OK: 24}
    assert report["ok"] == 24
    assert report["verified"] == 24
    assert report["mismatches"] == []
    assert report["bit_exact"] is True
    batches = report["server"]["batches"]
    assert batches["mean_occupancy"] > 1
    assert batches["total"] == 24  # every request rode exactly one batch
    assert report["client_mean_batch"] > 1
    assert report["server"]["counters"]["completed"] == 24
    assert report["server"]["counters"]["errors"] == 0


def test_batch_composition_never_changes_answers():
    """The same spec served solo and in a crowd yields identical metrics."""

    async def drive():
        spec = _spec(B=2)
        async with service(max_wait_ms=50.0) as svc:
            # Solo: the only request, batch of one.
            async with await ServiceClient.connect("127.0.0.1", svc.port) as c:
                solo = await c.run_trial(spec, root_seed=11)
            # Crowded: same spec sharing a batch with six neighbours.
            clients = [
                await ServiceClient.connect("127.0.0.1", svc.port)
                for _ in range(7)
            ]
            try:
                specs = [spec] + [_spec(B=b, repeat=r) for b, r in
                                  [(1, 0), (4, 0), (2, 1), (1, 1), (4, 1), (2, 2)]]
                crowd = await asyncio.gather(*(
                    c.run_trial(s, root_seed=11)
                    for c, s in zip(clients, specs)
                ))
            finally:
                for c in clients:
                    await c.close()
        return solo, crowd

    solo, crowd = run_async(drive())
    assert solo["status"] == STATUS_OK and crowd[0]["status"] == STATUS_OK
    assert crowd[0]["batched"] > 1  # really shared a lockstep batch
    assert crowd[0]["metrics"] == solo["metrics"]
    serial, _ = _execute_trial((_spec(B=2), 11))
    assert solo["metrics"] == serial


def test_deadline_expiry_cancels_before_compute():
    async def drive():
        async with service(max_wait_ms=30.0) as svc:
            async with await ServiceClient.connect("127.0.0.1", svc.port) as c:
                # deadline_ms=0 expires the instant the batch launches.
                doomed = await c.run_trial(_spec(), deadline_ms=0)
                # The connection stays usable; a later request succeeds.
                fine = await c.run_trial(_spec(repeat=1))
            stats = await svc.stats()
        return doomed, fine, stats

    doomed, fine, stats = run_async(drive())
    assert doomed["status"] == STATUS_EXPIRED
    assert doomed["waited_ms"] >= 0
    assert "deadline" in doomed["error"]
    assert fine["status"] == STATUS_OK
    assert stats["counters"]["deadline_expired"] == 1
    assert stats["counters"]["completed"] == 1


def test_queue_full_returns_structured_reject():
    """With a depth-1 queue, a second concurrent request must bounce.

    A queued request counts against the limit for the whole coalescing
    window (max_batch=2 keeps the window open), so the second admission
    finds the queue full and gets the 429-style reject with a
    retry-after hint — it is never silently queued or dropped.
    """

    async def drive():
        async with service(
            queue_limit=1, max_batch=2, max_wait_ms=1500.0
        ) as svc:
            c1 = await ServiceClient.connect("127.0.0.1", svc.port)
            c2 = await ServiceClient.connect("127.0.0.1", svc.port)
            try:
                first = asyncio.create_task(c1.run_trial(_spec()))
                await _wait_for_depth(svc, 1)
                bounced = await c2.run_trial(_spec(repeat=1))
                first_resp = await first
            finally:
                await c1.close()
                await c2.close()
            stats = await svc.stats()
        return bounced, first_resp, stats

    bounced, first_resp, stats = run_async(drive())
    assert bounced["status"] == STATUS_REJECTED
    assert bounced["error"] == "queue full"
    assert bounced["retry_after_ms"] >= 1
    # The occupant of the queue was served normally, untouched.
    assert first_resp["status"] == STATUS_OK
    assert stats["counters"]["rejected_queue_full"] == 1
    assert stats["counters"]["completed"] == 1


def test_shutdown_drains_all_admitted_requests():
    """Drain discipline: everything admitted is answered, nothing after.

    Six requests sit in an open coalescing window (the max-wait is far
    longer than the test); a ``shutdown`` op must (a) flush them all
    with ``ok`` responses, (b) reject a subsequent ``run`` as
    ``draining``, and (c) let the server task finish cleanly.
    """

    async def drive():
        svc = SimulationService(
            ServiceConfig(port=0, max_wait_ms=60_000.0, max_batch=32)
        )
        server_task = asyncio.create_task(svc.run())
        await svc.started.wait()
        clients = [
            await ServiceClient.connect("127.0.0.1", svc.port)
            for _ in range(6)
        ]
        control = await ServiceClient.connect("127.0.0.1", svc.port)
        try:
            pending = [
                asyncio.create_task(c.run_trial(_spec(B=1 + i % 3, repeat=i)))
                for i, c in enumerate(clients)
            ]
            await _wait_for_depth(svc, 6)
            ack = await control.shutdown()
            # Same control connection, handled strictly after the
            # shutdown op: the run must bounce as draining.
            late = await control.run_trial(_spec(repeat=99))
            responses = await asyncio.gather(*pending)
        finally:
            for c in [*clients, control]:
                await c.close()
        await asyncio.wait_for(server_task, 30)
        return ack, late, responses, svc

    ack, late, responses, svc = run_async(drive())
    assert ack["status"] == "ok" and ack["draining"] is True
    assert late["status"] == STATUS_REJECTED
    assert late["error"] == "draining"
    assert late["retry_after_ms"] >= 1
    assert [r["status"] for r in responses] == [STATUS_OK] * 6
    # The drain flushed everything in one batch, skipping the window.
    assert all(r["batched"] == 6 for r in responses)
    assert svc.counters["completed"] == 6
    assert svc.counters["rejected_draining"] == 1
    assert len(svc.queue) == 0 and svc.batcher.in_flight == 0


def test_health_stats_and_protocol_errors():
    async def drive():
        async with service() as svc:
            async with await ServiceClient.connect("127.0.0.1", svc.port) as c:
                health = await c.health()
                await c.run_trial(_spec())
                stats = await c.stats()
        return health, stats

    health, stats = run_async(drive())
    assert health["status"] == "ok" and health["protocol"] == 1
    assert health["queue_depth"] == 0
    assert stats["counters"]["completed"] == 1
    assert stats["batches"]["count"] == 1
    assert stats["latency_ms"]["count"] == 1
    assert stats["queue"]["limit"] == ServiceConfig().queue_limit


def test_non_wormhole_trials_served_via_per_trial_path():
    async def drive():
        spec = TrialSpec.make(
            "chain-bundle",
            "store_forward",
            B=2,
            workload_params=WORKLOAD_PARAMS,
            message_length=8,
        )
        async with service(max_wait_ms=20.0) as svc:
            async with await ServiceClient.connect("127.0.0.1", svc.port) as c:
                resp = await c.run_trial(spec, root_seed=5)
        serial, _ = _execute_trial((spec, 5))
        return resp, serial

    resp, serial = run_async(drive())
    assert resp["status"] == STATUS_OK
    assert resp["metrics"] == serial


@pytest.mark.parametrize("field, value", [("max_batch", 0), ("max_wait_ms", -1)])
def test_bad_policy_rejected(field, value):
    with pytest.raises(ValueError, match=field):
        ServiceConfig(**{field: value})


def test_responses_carry_protocol_version():
    async def drive():
        async with service(max_wait_ms=10.0) as svc:
            async with await ServiceClient.connect("127.0.0.1", svc.port) as c:
                ok = await c.run_trial(_spec())
                health = await c.health()
        return ok, health

    ok, health = run_async(drive())
    assert ok["v"] == 1
    assert health["v"] == 1


# ----------------------------------------------------------------------
# Idle-aware window: full -> nobody left who could send -> max_wait_ms.
# Every test asserts on ``closed_by`` counts and batch sizes, never on
# wall-clock; NEVER_MS turns a window that waits into a test timeout.
# ----------------------------------------------------------------------

NEVER_MS = 60_000.0


def _closed_by(svc):
    """The non-zero ``batches.closed_by`` counters."""
    return {k: n for k, n in svc.closed_by.snapshot().items() if n}


async def _registered(*clients):
    """A round trip each: the server-side handlers are counted."""
    for c in clients:
        await c.health()


def test_lone_closed_loop_client_never_waits_out_the_window():
    """One connection, one request at a time: nobody else could send."""

    async def drive():
        async with service(max_wait_ms=NEVER_MS) as svc:
            async with await ServiceClient.connect("127.0.0.1", svc.port) as c:
                replies = [await c.run_trial(_spec(repeat=r)) for r in range(5)]
            stats = await svc.stats()
        return replies, stats

    replies, stats = run_async(drive(), timeout=30)
    assert [r["status"] for r in replies] == [STATUS_OK] * 5
    assert [r["batched"] for r in replies] == [1] * 5
    assert stats["batches"]["closed_by"] == {
        "full": 0, "idle": 5, "timeout": 0, "drain": 0
    }
    assert stats["batches"]["count"] == 5


def test_two_closed_loop_clients_always_coalesce():
    """The window closes when the second request lands — every round.

    Before the idle condition two closed-loop connections settled into
    either coalescing (occupancy 2) or alternating (occupancy 1) and
    stayed there; now the only stable state is the coalescing one,
    whatever the first exchange looked like.
    """

    async def drive():
        async with service(max_wait_ms=NEVER_MS) as svc:
            a = await ServiceClient.connect("127.0.0.1", svc.port)
            b = await ServiceClient.connect("127.0.0.1", svc.port)
            try:
                await _registered(a, b)

                async def closed_loop(client, offset):
                    return [
                        (await client.run_trial(_spec(repeat=offset + r)))["batched"]
                        for r in range(51)
                    ]

                sizes = await asyncio.gather(
                    closed_loop(a, 0), closed_loop(b, 100)
                )
            finally:
                await a.close()
                await b.close()
            return sizes, _closed_by(svc)

    (sizes_a, sizes_b), closed_by = run_async(drive(), timeout=60)
    assert sizes_a[1:] == [2] * 50
    assert sizes_b[1:] == [2] * 50
    assert set(closed_by) == {"idle"}


def test_alternating_clients_converge_to_coalescing():
    """Start in the old 'alternating' regime; one round later it is gone.

    ``a``'s run executes alone (``b`` not yet connected); ``b``'s lands
    while it computes.  When ``a`` resolves, ``a`` is a peer that can
    send again, so ``b``'s window waits for it instead of alternating.
    """

    async def drive():
        async with service(max_wait_ms=NEVER_MS) as svc:
            # Hold the first batch in the backend until b's run is queued.
            gate = threading.Event()
            run = svc.backend.run
            svc.backend.run = lambda fn, items: gate.wait(20) and run(fn, items)
            a = await ServiceClient.connect("127.0.0.1", svc.port)
            try:
                first = asyncio.create_task(a.run_trial(_spec(repeat=0)))
                while not svc.batcher.in_flight:
                    await asyncio.sleep(0.001)
                b = await ServiceClient.connect("127.0.0.1", svc.port)
                try:
                    queued = asyncio.create_task(b.run_trial(_spec(repeat=1)))
                    await _wait_for_depth(svc, 1)
                    gate.set()
                    solo = await first
                    follow = await a.run_trial(_spec(repeat=2))
                    joined = await queued
                finally:
                    await b.close()
            finally:
                await a.close()
        return solo, follow, joined

    solo, follow, joined = run_async(drive(), timeout=30)
    assert solo["batched"] == 1
    assert follow["batched"] == 2 and joined["batched"] == 2


def test_idle_peer_holds_the_window_to_max_wait():
    """Fallback is the old behaviour: a silent peer might still send."""

    async def drive():
        async with service(max_wait_ms=20.0) as svc:
            c = await ServiceClient.connect("127.0.0.1", svc.port)
            idle = await ServiceClient.connect("127.0.0.1", svc.port)
            try:
                await _registered(c, idle)
                replies = [await c.run_trial(_spec(repeat=r)) for r in range(3)]
            finally:
                await c.close()
                await idle.close()
            return replies, _closed_by(svc)

    replies, closed_by = run_async(drive(), timeout=30)
    assert [r["batched"] for r in replies] == [1] * 3
    assert closed_by == {"timeout": 3}


def test_idle_peer_disconnecting_mid_window_dispatches_at_once():
    async def drive():
        async with service(max_wait_ms=NEVER_MS) as svc:
            c = await ServiceClient.connect("127.0.0.1", svc.port)
            idle = await ServiceClient.connect("127.0.0.1", svc.port)
            try:
                await _registered(c, idle)
                pending = asyncio.create_task(c.run_trial(_spec()))
                await _wait_for_depth(svc, 1)
                await asyncio.sleep(0.05)
                held = len(svc.queue), svc.batches.count
                await idle.close()
                reply = await pending
            finally:
                await c.close()
            return held, reply, _closed_by(svc)

    held, reply, closed_by = run_async(drive(), timeout=30)
    assert held == (1, 0)  # the idle peer really held the window open
    assert reply["status"] == STATUS_OK and reply["batched"] == 1
    assert closed_by == {"idle": 1}


def test_admission_on_another_key_wakes_the_window():
    """The last idle peer sending *anything* closes the window.

    Its run is incompatible (another simulator, another batch), but it
    is no longer a peer that could join, so the first window closes
    ``idle`` on its admission — not on a compatible arrival.
    """

    async def drive():
        other = TrialSpec.make(
            "chain-bundle",
            "store_forward",
            B=2,
            workload_params=WORKLOAD_PARAMS,
            message_length=8,
        )
        async with service(max_wait_ms=NEVER_MS) as svc:
            a = await ServiceClient.connect("127.0.0.1", svc.port)
            b = await ServiceClient.connect("127.0.0.1", svc.port)
            try:
                await _registered(a, b)
                held = asyncio.create_task(a.run_trial(_spec()))
                await _wait_for_depth(svc, 1)
                late = asyncio.create_task(b.run_trial(other))
                replies = [await held]
                # ``a`` is answered, so it could send again: ``b``'s
                # window holds for it until it hangs up.
                await a.close()
                replies.append(await late)
            finally:
                await a.close()
                await b.close()
            return replies, _closed_by(svc)

    replies, closed_by = run_async(drive(), timeout=30)
    assert [r["status"] for r in replies] == [STATUS_OK] * 2
    assert [r["batched"] for r in replies] == [1, 1]
    assert closed_by == {"idle": 2}


class TestProcessBackendService:
    """The service on the fault-tolerant process backend.

    Answers must stay bit-identical to serial replays, and killing a
    worker mid-service must cost retries — never dropped requests or
    changed metrics.
    """

    def test_process_backend_bit_exact(self):
        async def drive():
            async with service(
                backend="process", workers=2, max_wait_ms=40.0
            ) as svc:
                config = LoadgenConfig(
                    workload="chain-bundle",
                    workload_params=WORKLOAD_PARAMS,
                    channels=(1, 2),
                    lengths=(8,),
                    requests=8,
                    concurrency=4,
                    root_seed=9,
                    verify=True,
                )
                report = await run_loadgen("127.0.0.1", svc.port, config)
                health = svc.health()
            return report, health

        report, health = run_async(drive(), timeout=120)
        assert report["bit_exact"] is True
        assert report["ok"] == 8
        assert health["backend"] == "process"
        assert health["backend_mode"] == "process"

    def test_worker_kill_recovers_without_dropping_requests(self):
        import os
        import signal

        async def drive():
            async with service(
                backend="process", workers=2, max_wait_ms=10.0
            ) as svc:
                async with await ServiceClient.connect(
                    "127.0.0.1", svc.port
                ) as c:
                    before = await c.run_trial(_spec(), root_seed=13)
                    os.kill(svc.backend.worker_pids()[0], signal.SIGKILL)
                    # Every request after the murder still gets served.
                    after = [
                        await c.run_trial(_spec(repeat=r), root_seed=13)
                        for r in range(3)
                    ]
                    stats = await c.stats()
                    health = await c.health()
            return before, after, stats, health

        before, after, stats, health = run_async(drive(), timeout=120)
        assert before["status"] == STATUS_OK
        assert [r["status"] for r in after] == [STATUS_OK] * 3
        # Bit-exactness survives the crash: replay each spec serially.
        serial = [_execute_trial((_spec(repeat=r), 13))[0] for r in range(3)]
        assert [r["metrics"] for r in after] == serial
        assert before["metrics"] == serial[0]
        assert stats["exec"]["worker_restarts"] >= 1
        assert health["worker_restarts"] >= 1
        assert health["backend_mode"] == "process"  # never degraded
        assert stats["counters"]["errors"] == 0
