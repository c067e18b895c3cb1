"""``repro bench --cluster`` — throughput scaling + cache hit rate.

Two measurements against live tiers, written to ``BENCH_cluster.json``:

``scaling``
    The same *multi-key* loadgen run (several simulators × message
    lengths, so consistent hashing has distinct compat keys to spread)
    against tiers of 1, 2 and 4 workers.  Every response is replayed
    serially — the bit-exactness gate holds at every width.  On a
    multi-core host throughput should rise with workers
    (``speedup_4v1``); a single-core host honestly reports ~1x (the
    committed numbers carry ``machine.cpus`` for exactly this reason).

``cache``
    One 2-worker tier, the same repeated-seed loadgen run twice.  The
    first pass populates the shared result cache (all misses + stores),
    the second is answered from it (``second_pass.hit_rate`` ~ 1.0,
    computed as the between-pass counter delta) — the cross-worker
    cache demonstrably serving repeat traffic without worker compute.
"""

from __future__ import annotations

import asyncio
from typing import Any

from ..service.client import LoadgenConfig, run_loadgen
from .router import ClusterConfig, ClusterRouter

__all__ = ["run_cluster_bench"]

#: Four flit-level models x two lengths = 8 batch-compat keys: enough
#: distinct keys that a 4-worker ring gets real spread.
BENCH_SIMULATORS = ("wormhole", "cut_through", "store_forward", "restricted")
BENCH_LENGTHS = (8, 16)


def _loadgen_config(quick: bool, root_seed: int) -> LoadgenConfig:
    return LoadgenConfig(
        workload="chain-bundle",
        workload_params={"chains": 4, "depth": 10, "messages": 6},
        simulators=BENCH_SIMULATORS,
        lengths=BENCH_LENGTHS,
        channels=(1, 2, 4),
        requests=48 if quick else 144,
        concurrency=12,
        root_seed=root_seed,
        verify=True,
    )


async def _run_tier(
    workers: int, config: LoadgenConfig, *, passes: int = 1
) -> tuple[list[dict[str, Any]], dict[str, Any]]:
    """Spin a tier up, drive it ``passes`` times, drain it."""
    router = ClusterRouter(ClusterConfig(port=0, workers=workers))
    task = asyncio.create_task(router.run())
    await router.started.wait()
    try:
        reports = []
        for _ in range(passes):
            reports.append(
                await run_loadgen("127.0.0.1", router.port, config)
            )
    finally:
        router.request_shutdown()
        await task
    return reports, router.health()


def _pass_summary(report: dict[str, Any]) -> dict[str, Any]:
    return {
        "throughput_rps": report["throughput_rps"],
        "wall_s": report["wall_s"],
        "ok": report["ok"],
        "statuses": report["statuses"],
        "bit_exact": report["bit_exact"],
        "latency_p50_ms": report["latency_ms"]["p50"],
        "latency_p95_ms": report["latency_ms"]["p95"],
        "mean_batch": report["client_mean_batch"],
    }


def _cache_counts(report: dict[str, Any]) -> tuple[int, int]:
    cache = (report.get("server") or {}).get("cache") or {}
    return int(cache.get("cache_hits", 0)), int(cache.get("cache_misses", 0))


async def run_cluster_bench(
    *, quick: bool = False, root_seed: int = 0
) -> dict[str, Any]:
    """The ``BENCH_cluster.json`` payload (sans ``machine``)."""
    config = _loadgen_config(quick, root_seed)
    bit_exact = True

    scaling: dict[str, Any] = {}
    for workers in (1, 2, 4):
        reports, health = await _run_tier(workers, config)
        summary = _pass_summary(reports[0])
        summary["worker_restarts"] = health["worker_restarts"]
        scaling[str(workers)] = summary
        bit_exact &= bool(summary["bit_exact"])
        print(
            f"bench cluster: {workers} worker(s) -> "
            f"{summary['throughput_rps']} req/s "
            f"(ok {summary['ok']}/{config.requests}, "
            f"bit_exact {summary['bit_exact']})",
            flush=True,
        )

    rps1 = scaling["1"]["throughput_rps"]
    rps4 = scaling["4"]["throughput_rps"]
    speedup = round(rps4 / rps1, 3) if rps1 else 0.0

    cache_reports, cache_health = await _run_tier(2, config, passes=2)
    first, second = cache_reports
    h1, m1 = _cache_counts(first)
    h2, m2 = _cache_counts(second)
    delta_hits = h2 - h1
    delta_lookups = (h2 + m2) - (h1 + m1)
    bit_exact &= bool(first["bit_exact"]) and bool(second["bit_exact"])
    print(
        f"bench cluster: repeated-seed pass -> {delta_hits}/{delta_lookups} "
        f"cache hits (tier totals: {cache_health['cache']})",
        flush=True,
    )

    return {
        "config": {
            "workload": config.workload,
            "workload_params": dict(config.workload_params),
            "simulators": list(config.simulators),
            "lengths": list(config.lengths),
            "channels": list(config.channels),
            "requests": config.requests,
            "concurrency": config.concurrency,
            "root_seed": config.root_seed,
            "quick": quick,
        },
        "scaling": scaling,
        "speedup_4v1": speedup,
        "cache": {
            "first_pass": {
                **_pass_summary(first),
                "hits": h1,
                "misses": m1,
            },
            "second_pass": {
                **_pass_summary(second),
                "hits": delta_hits,
                "lookups": delta_lookups,
                "hit_rate": (
                    round(delta_hits / delta_lookups, 4)
                    if delta_lookups
                    else 0.0
                ),
            },
            "tier": cache_health["cache"],
        },
        "bit_exact": bit_exact,
    }
