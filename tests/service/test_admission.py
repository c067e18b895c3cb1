"""Unit tests for the bounded admission queue (backpressure layer)."""

import asyncio

import pytest

from repro.service.admission import AdmissionQueue, PendingRequest, QueueFullError


def _pending(key=("k",), enqueued_at=0.0, expires_at=None):
    return PendingRequest(
        request=None,
        key=key,
        enqueued_at=enqueued_at,
        expires_at=expires_at,
        future=None,
    )


def test_limit_must_be_positive():
    with pytest.raises(ValueError, match="limit"):
        AdmissionQueue(0)


def test_admit_until_full_then_structured_reject():
    async def drive():
        q = AdmissionQueue(2, default_service_ms=40.0)
        q.admit(_pending())
        q.admit(_pending())
        assert len(q) == 2 and q.full
        with pytest.raises(QueueFullError) as exc_info:
            q.admit(_pending())
        # Drain estimate: depth (2) x EWMA service time (40 ms).
        assert exc_info.value.retry_after_ms == pytest.approx(80.0)
        assert "retry after" in str(exc_info.value)
        assert len(q) == 2  # the rejected request was never queued

    asyncio.run(drive())


def test_retry_hint_tracks_ewma_service_time():
    async def drive():
        q = AdmissionQueue(8, default_service_ms=50.0, ewma_alpha=0.5)
        q.admit(_pending())
        assert q.retry_after_ms() == pytest.approx(50.0)
        # One batch of 4 requests took 0.8 s -> 200 ms/request observed;
        # EWMA with alpha=0.5 moves 50 -> 125.
        q.note_service_time(0.8, requests=4)
        assert q.retry_after_ms() == pytest.approx(125.0)
        q.note_service_time(0.0, requests=0)  # no-op guard
        assert q.retry_after_ms() == pytest.approx(125.0)

    asyncio.run(drive())


def test_retry_hint_floor_is_one_ms():
    async def drive():
        q = AdmissionQueue(4, default_service_ms=0.0)
        assert q.retry_after_ms() >= 1.0

    asyncio.run(drive())


def test_take_compatible_is_fifo_and_keeps_others_in_place():
    async def drive():
        q = AdmissionQueue(16)
        a1, b1, a2, b2, a3 = (
            _pending(key=("a",)),
            _pending(key=("b",)),
            _pending(key=("a",)),
            _pending(key=("b",)),
            _pending(key=("a",)),
        )
        for p in (a1, b1, a2, b2, a3):
            q.admit(p)
        assert q.peek() is a1
        assert q.count_compatible(("a",)) == 3
        assert q.count_compatible(("b",)) == 2

        taken = q.take_compatible(("a",), max_batch=2)
        assert taken == [a1, a2]  # FIFO among matches, capped at max_batch
        # Non-matching requests kept their relative order; the surplus
        # "a" rides a later batch.
        assert q.peek() is b1
        assert q.take_compatible(("b",), max_batch=8) == [b1, b2]
        assert q.take_compatible(("a",), max_batch=8) == [a3]
        assert len(q) == 0

    asyncio.run(drive())


def test_wait_arrival_wakes_on_admit_and_on_kick():
    async def drive():
        q = AdmissionQueue(4)

        async def admit_later():
            await asyncio.sleep(0.01)
            q.admit(_pending())

        task = asyncio.create_task(admit_later())
        await asyncio.wait_for(q.wait_arrival(), 5)
        await task
        assert len(q) == 1

        # kick() unblocks a waiter even with no arrival (drain path).
        async def kick_later():
            await asyncio.sleep(0.01)
            q.kick()

        q.take_compatible(("k",), 8)
        task = asyncio.create_task(kick_later())
        await asyncio.wait_for(q.wait_arrival(), 5)
        await task

        # With items queued and no timeout, wait_arrival returns at once.
        q.admit(_pending())
        await asyncio.wait_for(q.wait_arrival(), 5)

    asyncio.run(drive())


def test_ewma_tracks_bursty_arrivals_and_recovers():
    """The retry hint follows a burst up and decays back afterwards.

    A burst of slow batches must push ``retry_after_ms`` monotonically
    toward the burst's per-request cost (never past it), and a quiet
    period of fast batches must walk it back down — so the hint is
    load-*following*, not pinned to the configured default.
    """

    async def drive():
        q = AdmissionQueue(64, default_service_ms=50.0, ewma_alpha=0.2)
        q.admit(_pending())  # depth 1: retry hint == EWMA directly

        # Burst: 12 batches, each 4 requests in 1.6 s -> 400 ms/request.
        burst_hints = []
        for _ in range(12):
            q.note_service_time(1.6, requests=4)
            burst_hints.append(q.retry_after_ms())
        assert burst_hints == sorted(burst_hints)  # monotone rise
        assert burst_hints[0] > 50.0
        assert burst_hints[-1] <= 400.0
        # alpha=0.2 over 12 observations closes >90% of the 50->400 gap.
        assert burst_hints[-1] == pytest.approx(
            400.0 - (400.0 - 50.0) * 0.8**12
        )

        # Recovery: fast 5 ms/request batches pull the estimate down.
        recovery_hints = []
        for _ in range(12):
            q.note_service_time(0.02, requests=4)
            recovery_hints.append(q.retry_after_ms())
        assert recovery_hints == sorted(recovery_hints, reverse=True)
        assert recovery_hints[-1] < burst_hints[0]
        assert recovery_hints[-1] >= 5.0  # never undershoots the rate

        # The hint scales with backlog depth at the current estimate.
        per_request = q.retry_after_ms()
        for _ in range(3):
            q.admit(_pending())
        assert q.retry_after_ms() == pytest.approx(4 * per_request)

    asyncio.run(drive())


def test_take_compatible_stays_fair_when_two_keys_interleave():
    """Alternating dispatch over interleaved keys starves neither.

    With a/b arrivals interleaved and ``max_batch`` below each key's
    backlog, alternating takes must (a) serve each key strictly FIFO,
    (b) leave the other key's backlog intact and ordered, and (c) keep
    the queue head honest — after a take, the oldest *remaining*
    request is at the front regardless of key.
    """

    async def drive():
        q = AdmissionQueue(32)
        arrivals = []
        for i in range(6):  # a0 b0 a1 b1 ... a5 b5
            a = _pending(key=("a",), enqueued_at=float(i))
            b = _pending(key=("b",), enqueued_at=float(i) + 0.5)
            arrivals += [a, b]
            q.admit(a)
            q.admit(b)
        a_stream = [p for p in arrivals if p.key == ("a",)]
        b_stream = [p for p in arrivals if p.key == ("b",)]

        served_a, served_b = [], []
        while len(q):
            took_a = q.take_compatible(("a",), max_batch=2)
            served_a += took_a
            if len(q):
                # Head-of-line honesty: the front is now the oldest
                # remaining request (a "b" until that stream drains).
                expected_head = (b_stream + a_stream)[
                    len(served_b) if len(served_b) < len(b_stream) else -1
                ]
                if len(served_b) < len(b_stream):
                    assert q.peek() is expected_head
            served_b += q.take_compatible(("b",), max_batch=2)

        # Strict FIFO within each key, full service for both.
        assert served_a == a_stream
        assert served_b == b_stream
        # Batches were capped, so service really alternated: neither
        # key was drained in one take while the other waited.
        assert len(served_a) == len(served_b) == 6

    asyncio.run(drive())


def test_expiry_predicate():
    p = _pending(expires_at=10.0)
    assert not p.expired(9.9)
    assert p.expired(10.0)
    assert not _pending(expires_at=None).expired(1e9)
