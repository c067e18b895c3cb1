"""``mode="estimate"`` through a live cluster router.

The acceptance property: the router answers estimates locally — no
forward, no cache lookup, no worker batcher involvement — and the
answers are bit-stable with the local estimator, interleaved freely
with exact traffic that still shards out to the workers.
"""

import asyncio
import contextlib

from repro.analysis.estimate import estimate_spec
from repro.cluster import ClusterConfig, ClusterRouter
from repro.service import LoadgenConfig, ServiceClient, run_loadgen

WORKLOAD_PARAMS = {"chains": 2, "depth": 4, "messages": 3}


def run_async(coro, timeout=240):
    return asyncio.run(asyncio.wait_for(coro, timeout))


@contextlib.asynccontextmanager
async def cluster(workers=2, **overrides):
    overrides.setdefault("port", 0)
    router = ClusterRouter(ClusterConfig(workers=workers, **overrides))
    task = asyncio.create_task(router.run())
    await router.started.wait()
    try:
        yield router
    finally:
        router.request_shutdown()
        await task


def test_router_answers_estimates_without_touching_workers():
    async def drive():
        async with cluster(workers=2) as router:
            est_cfg = LoadgenConfig(
                workload="chain-bundle",
                workload_params=WORKLOAD_PARAMS,
                simulators=("wormhole", "cut_through"),
                lengths=(8,),
                channels=(1, 2),
                requests=12,
                concurrency=4,
                mode="estimate",
            )
            report = await run_loadgen("127.0.0.1", router.port, est_cfg)
            assert report["ok"] == 12
            assert report["bit_exact"] is True  # matches local estimator

            stats = report["server"]
            counters = stats["counters"]
            assert counters["estimated"] == 12
            assert counters["forwarded"] == 0
            assert counters["cache_served"] == 0
            # The shared cache was never consulted.
            assert stats["cache"]["cache_hits"] == 0
            assert stats["cache"]["cache_misses"] == 0
            # No worker ran anything, let alone batched anything.
            for worker in stats["workers"]:
                assert worker["counters"]["completed"] == 0
                assert worker["batches"]["count"] == 0

            # Exact traffic through the same tier still shards + verifies.
            async with await ServiceClient.connect(
                "127.0.0.1", router.port
            ) as client:
                from repro.sim.sweep import TrialSpec

                spec = TrialSpec.make(
                    "chain-bundle",
                    "wormhole",
                    B=2,
                    workload_params=WORKLOAD_PARAMS,
                    message_length=8,
                )
                exact = await client.run_trial(spec)
                est = await client.run_trial(spec, mode="estimate", req_id="e")
                assert exact["status"] == est["status"] == "ok"
                assert est["metrics"] == estimate_spec(spec).to_metrics()
                lower = est["metrics"]["makespan_lower"]
                upper = est["metrics"]["makespan_upper"]
                assert lower <= exact["metrics"]["makespan"] <= upper
                stats2 = await client.stats()
            assert stats2["counters"]["forwarded"] == 1  # just the exact run
            assert stats2["counters"]["estimated"] == 13

    run_async(drive())
