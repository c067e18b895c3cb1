"""End-to-end cluster tests: sharded bit-exactness, cache, crash loss-freedom.

These spin up a real :class:`ClusterRouter` — which itself spawns real
``repro serve`` worker subprocesses on ephemeral ports — so they cover
the full stack: wire protocol through the router, consistent-hash
placement, worker DynamicBatcher execution, the shared result cache,
and supervisor-driven crash recovery.  Subprocess spawns are expensive,
so each test drives one tier hard rather than many tiers lightly.
"""

import asyncio
import contextlib
import json
import os
import signal

from repro.cluster import ClusterConfig, ClusterRouter
from repro.service import LoadgenConfig, ServiceClient, run_loadgen
from repro.sim.sweep import TrialSpec, run_sweep

WORKLOAD_PARAMS = {"chains": 2, "depth": 4, "messages": 3}


def run_async(coro, timeout=240):
    return asyncio.run(asyncio.wait_for(coro, timeout))


@contextlib.asynccontextmanager
async def cluster(workers=2, **overrides):
    """A live router + worker tier on an ephemeral port."""
    overrides.setdefault("port", 0)
    router = ClusterRouter(ClusterConfig(workers=workers, **overrides))
    task = asyncio.create_task(router.run())
    await router.started.wait()
    try:
        yield router
    finally:
        router.request_shutdown()
        await task


def _loadcfg(requests=18, root_seed=3):
    """Multi-key traffic: 3 simulators -> 3 distinct compat keys."""
    return LoadgenConfig(
        workload="chain-bundle",
        workload_params=WORKLOAD_PARAMS,
        channels=(1, 2),
        message_length=8,
        simulators=("wormhole", "cut_through", "store_forward"),
        requests=requests,
        concurrency=6,
        root_seed=root_seed,
        verify=True,
    )


def test_sharded_tier_is_bit_exact_caches_and_drains():
    """The headline run: one 2-worker tier, driven twice, then drained.

    Pass 1 must be bit-exact against serial replays with the requests
    actually spread across both workers (consistent hashing on the
    compat key); pass 2 (same seed) must be answered from the shared
    cache; stats must aggregate the tier; shutdown must ack, reject a
    late run as draining, and exit cleanly.
    """

    async def drive():
        async with cluster(workers=2) as router:
            config = _loadcfg()
            first = await run_loadgen("127.0.0.1", router.port, config)
            second = await run_loadgen("127.0.0.1", router.port, config)
            health = router.health()
            stats = await router.stats()

            control = await ServiceClient.connect("127.0.0.1", router.port)
            try:
                ack = await control.shutdown()
                late = await control.run_trial(
                    {
                        "workload": "chain-bundle",
                        "workload_params": WORKLOAD_PARAMS,
                        "B": 2,
                    }
                )
            finally:
                await control.close()
        return first, second, health, stats, ack, late, router

    first, second, health, stats, ack, late, router = run_async(drive())

    # Pass 1: every request executed, every answer bit-exact.
    assert first["ok"] == 18, first["statuses"]
    assert first["bit_exact"] is True, first["mismatches"]
    # Sharding really happened: both slots served traffic (placement is
    # deterministic, so this cannot flake).
    assert stats["counters"]["forwarded"] >= 18
    per_worker = [w for w in stats["workers"] if w]
    assert len(per_worker) == 2
    assert all(
        w["counters"]["completed"] > 0 for w in per_worker
    ), [w["counters"]["completed"] for w in per_worker]

    # Pass 2: answered from the shared cache, still bit-exact.
    assert second["ok"] == 18, second["statuses"]
    assert second["bit_exact"] is True, second["mismatches"]
    assert health["cache"]["cache_hits"] >= 18
    assert health["cache"]["cache_stores"] == 18
    assert router.counters["cache_served"] >= 18

    # Aggregated introspection.
    assert health["backend_mode"] == "cluster"
    assert health["workers_alive"] == 2
    assert health["worker_restarts"] == 0
    assert stats["batches"]["count"] > 0
    assert stats["batches"]["mean_occupancy"] >= 1.0

    # Drain discipline at the router.
    assert ack["status"] == "ok" and ack["draining"] is True
    assert late["status"] == "rejected"
    assert late["error"] == "draining"
    assert late["retry_after_ms"] >= 1


def test_worker_sigkill_mid_run_loses_no_accepted_request():
    """Crash loss-freedom: SIGKILL one worker while loadgen is running.

    Every request must still be answered ``ok`` and bit-exact (the
    router retries the dead slot's forwards on the surviving ring
    neighbour), the supervisor must restart the slot
    (``worker_restarts >= 1``), and a follow-up run against the healed
    tier must use both workers again.
    """

    async def drive():
        async with cluster(workers=2) as router:
            config = _loadcfg(requests=24, root_seed=11)

            async def kill_one_worker():
                await asyncio.sleep(0.2)
                victim = router.supervisor.handles[0]
                os.kill(victim.process.pid, signal.SIGKILL)

            report, _ = await asyncio.gather(
                run_loadgen("127.0.0.1", router.port, config),
                kill_one_worker(),
            )

            # The supervisor must notice and respawn slot 0.
            async def wait_for_respawn():
                handle = router.supervisor.handles[0]
                while not (handle.generation >= 2 and handle.alive):
                    await asyncio.sleep(0.05)

            await asyncio.wait_for(wait_for_respawn(), 60)
            health_after_kill = router.health()

            follow_up = await run_loadgen(
                "127.0.0.1", router.port, _loadcfg(requests=12, root_seed=12)
            )
            return report, health_after_kill, follow_up

    report, health, follow_up = run_async(drive())

    # Zero loss: nothing missing, nothing dropped on the floor; every
    # accepted request was answered (retried elsewhere) and verified.
    assert report["ok"] == 24, report["statuses"]
    assert report["statuses"].get("missing", 0) == 0
    assert report["statuses"].get("connection_error", 0) == 0
    assert report["bit_exact"] is True, report["mismatches"]

    assert health["worker_restarts"] >= 1
    assert health["workers_alive"] == 2
    assert health["backend_mode"] == "cluster"

    assert follow_up["ok"] == 12, follow_up["statuses"]
    assert follow_up["bit_exact"] is True, follow_up["mismatches"]


def test_one_client_never_waits_out_a_worker_window(monkeypatch):
    """The idle-aware window holds through the router, surplus or not.

    The worker's window is far longer than the test, so any window that
    waits fails the ``wait_for``; the asserts are on ``closed_by`` counts
    and pool contents, never on wall-clock.  Part 1: one closed-loop
    client uses one pooled connection, the worker's only peer.  Part 2:
    a burst leaves surplus pooled connections — idle peers the worker
    would wait for — and the next acquire reaps them.
    """
    from repro.cluster import router as router_mod
    from repro.service import ServiceConfig

    def spec(repeat):
        return {
            "workload": "chain-bundle",
            "workload_params": WORKLOAD_PARAMS,
            "B": 2,
            "repeat": repeat,
        }

    async def drive():
        worker = ServiceConfig(workers=1, max_wait_ms=60_000.0)
        async with cluster(workers=1, worker=worker) as router:
            async with await ServiceClient.connect(
                "127.0.0.1", router.port
            ) as client:
                replies = [await client.run_trial(spec(r)) for r in range(4)]
                first = await router.stats()

                # A burst's worth of pooled connections, newest last.
                key = (0, router.supervisor.handles[0].generation)
                held = [await router._acquire(0) for _ in range(3)]
                for pooled, generation in held:
                    router._release(0, generation, pooled)
                newest = router._pool[key][-1][1]
                reused, generation = await router._acquire(0)
                router._release(0, generation, reused)
                pool_after_burst = len(router._pool[key])

                monkeypatch.setattr(router_mod, "POOL_IDLE_S", 0.05)
                await asyncio.sleep(0.1)
                replies.append(await client.run_trial(spec(4)))
                pool_after_reap = len(router._pool[key])
                second = await router.stats()
        return replies, first, second, reused is newest, (
            pool_after_burst,
            pool_after_reap,
        )

    replies, first, second, lifo, pools = run_async(drive(), timeout=60)
    assert [r["status"] for r in replies] == ["ok"] * 5
    assert [r["batched"] for r in replies] == [1] * 5
    assert first["workers"][0]["batches"]["closed_by"] == {
        "full": 0, "idle": 4, "timeout": 0, "drain": 0
    }
    assert lifo  # the most recently released connection is reused first
    assert pools == (3, 1)
    assert second["workers"][0]["batches"]["closed_by"] == {
        "full": 0, "idle": 5, "timeout": 0, "drain": 0
    }



TRIAL = TrialSpec.make(
    "chain-bundle", "wormhole", B=2, workload_params=WORKLOAD_PARAMS, message_length=8
)


def _one_worker_session(exchange):
    """``await exchange(router, client)`` against a live 1-worker tier."""

    async def drive():
        async with cluster(workers=1) as router:
            async with await ServiceClient.connect(
                "127.0.0.1", router.port
            ) as client:
                return await exchange(router, client)

    return run_async(drive(), timeout=60)


def test_a_refused_cache_write_costs_the_entry_not_the_answer(full_cache_disk):
    """A full cache directory used to raise out of ``dispatch``: the
    client saw the connection close and the request vanished from the
    ledger (forwarded, never completed, never an error)."""

    async def exchange(router, client):
        reply = await client.run_trial(TRIAL, root_seed=5)
        return reply, await client.health(), router.counters.snapshot()

    reply, health, counters = _one_worker_session(exchange)
    (local,) = run_sweep([TRIAL], root_seed=5)
    assert reply["status"] == "ok" and reply["metrics"] == local.metrics
    assert health["status"] == "ok"
    assert health["cache"]["cache_store_errors"] == 1
    assert counters["requests_total"] == counters["completed"] == 1
    assert counters["errors"] == 0


def test_cache_entry_is_written_after_the_reply_and_verified_on_read():
    """The entry lands before a repeat sent right after the reply is
    read; an entry whose metrics were edited on disk is recomputed."""

    async def exchange(router, client):
        replies = [await client.run_trial(TRIAL, root_seed=5) for _ in "ab"]
        path = router.cache.root / f"{TRIAL.cache_key(5)}.json"
        payload = json.loads(path.read_text())
        payload["metrics"]["makespan"] += 1
        path.write_text(json.dumps(payload))
        replies.append(await client.run_trial(TRIAL, root_seed=5))
        return replies, (await client.health())["cache"]

    (first, repeat, recomputed), cache = _one_worker_session(exchange)
    (local,) = run_sweep([TRIAL], root_seed=5)
    assert [r.get("cached") for r in (first, repeat, recomputed)] == [
        None, True, None,
    ]
    assert all(
        r["metrics"] == local.metrics for r in (first, repeat, recomputed)
    )
    assert (cache["cache_hits"], cache["cache_corrupt"]) == (1, 1)
    assert cache["cache_stores"] == 2
