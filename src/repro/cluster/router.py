"""The cluster front-end: one v1-protocol endpoint over N workers.

:class:`ClusterRouter` is the same :class:`~repro.service.endpoint
.Endpoint` as a single :class:`~repro.service.server.SimulationService`
— ``repro loadgen`` and every existing client work unchanged — but its
``dispatch``:

1. answers repeat ``run`` requests from the shared
   :class:`~repro.cache.ResultCache` (keyed by
   :meth:`~repro.sim.spec.TrialSpec.cache_key`, the sweep's content
   hash) *before* spending any worker compute — cache hits carry
   ``"cached": true`` and ``batched: 0``;
2. shards misses across workers by consistent hashing on
   :func:`~repro.sim.spec.batch_compat_key`, so every request
   that *could* share a lockstep batch reaches the same worker's
   :class:`~repro.service.batcher.DynamicBatcher` and actually does;
3. retries a forward whose worker died mid-flight: the
   :class:`~repro.cluster.worker.WorkerSupervisor` respawns the slot
   while the router backs off, falls back to the key's next ring
   neighbour if the home slot stays down, and only after the attempt
   budget is spent answers ``rejected`` with ``retry_after_ms`` — an
   accepted request is retried or rejected-with-retry, never dropped.
   Re-execution is safe because trials are pure functions of
   ``(spec, root_seed)``: a replayed forward is bit-identical.

``health``/``stats`` aggregate the tier: router counters + cache
hit/miss + per-slot liveness + summed worker batch occupancy, with
``worker_restarts`` surfaced top-level exactly like the process
backend's, so the crash-recovery smoke reads either layer the same way.

The router process imports no simulator: parsing, keys and the ring go
through :mod:`repro.sim.spec`, which needs no NumPy.  Only two requests
pull more in, each on first use: a ``scenario:`` workload name
(:mod:`repro.scenarios` registers those) and a ``mode=estimate`` run
(:mod:`repro.analysis.estimate`).
"""

from __future__ import annotations

import asyncio
import contextlib
from dataclasses import dataclass, field
from typing import Any

from ..cache import ResultCache
from ..service.client import ServiceClient, ServiceConnectionError
from ..service.config import ServiceConfig
from ..service.endpoint import Endpoint
from ..service.protocol import (
    STATUS_OK,
    RunRequest,
    ok_response,
    reject_response,
)
from ..sim.spec import batch_compat_key
from .hashing import HashRing
from .worker import SPAWN_TIMEOUT_S, WorkerSupervisor

__all__ = ["ClusterConfig", "ClusterRouter"]

#: Per-forward exchange budget; a worker that neither answers nor dies
#: within this window counts as a failed attempt.
FORWARD_TIMEOUT_S = 300.0
#: A pooled worker connection idle this long is surplus from an earlier
#: burst and is closed the next time its slot forwards a request: every
#: idle socket on a worker is a peer its batcher waits ``max_wait_ms``
#: for (:meth:`~repro.service.server.SimulationService.idle_peers`).
POOL_IDLE_S = 1.0
#: Forward attempts per request before the structured reject.
MAX_FORWARD_ATTEMPTS = 4
#: Base of the between-attempt backoff (doubles per attempt).
RETRY_BACKOFF_S = 0.05
#: ``retry_after_ms`` hint when the attempt budget is exhausted.
UNAVAILABLE_RETRY_AFTER_MS = 500.0


@dataclass(frozen=True)
class ClusterConfig:
    """Tunables for one router + worker tier."""

    host: str = "127.0.0.1"
    port: int = 7900
    workers: int = 2
    #: Cross-worker result cache directory.  ``None`` puts it under the
    #: supervisor's runtime dir (fresh per tier); point several tiers
    #: at one directory to share results across routers.
    cache_dir: str | None = None
    #: Port files + worker logs live here (a tempdir when unset).
    runtime_dir: str | None = None
    #: Template every worker's ``repro serve`` argv is rendered from
    #: (every field ``repro serve`` has a flag for; host, port and port
    #: file are set per slot).  Workers are already separate processes,
    #: so the in-worker pool stays at 1.
    worker: ServiceConfig = field(
        default_factory=lambda: ServiceConfig(workers=1)
    )


class ClusterRouter(Endpoint):
    """One router instance: call :meth:`run` (blocks until drained).

    Tier counters on top of the endpoint's (worker internals stay on
    the workers): ``cache_served``, ``forwarded``, ``forward_retries``,
    ``rejected_unavailable``.
    """

    def __init__(self, config: ClusterConfig | None = None) -> None:
        self.config = config or ClusterConfig()
        super().__init__(
            self.config.host,
            self.config.port,
            "cache_served",
            "forwarded",
            "forward_retries",
            "rejected_unavailable",
        )
        self.supervisor = WorkerSupervisor(
            self.config.workers,
            host=self.config.host,
            service=self.config.worker,
            runtime_dir=self.config.runtime_dir,
        )
        self.cache = ResultCache(
            self.config.cache_dir or self.supervisor.runtime_dir / "cache"
        )
        self.ring = HashRing(range(self.config.workers))
        #: Idle pooled connections per (slot, generation), each with its
        #: release time; appended on release, so oldest first.
        self._pool: dict[
            tuple[int, int], list[tuple[float, ServiceClient]]
        ] = {}

    # -- lifecycle -----------------------------------------------------
    async def startup(self) -> None:
        await self.supervisor.start()
        self._monitor = asyncio.create_task(
            self.supervisor.monitor(), name="repro-cluster-monitor"
        )

    async def teardown(self) -> None:
        # Drain the worker tier (their own queued work flushes).
        self._monitor.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await self._monitor
        await self._close_pool()
        await self.supervisor.stop()

    # -- worker connection pool ----------------------------------------
    async def _acquire(self, slot: int) -> tuple[ServiceClient, int]:
        generation = self.supervisor.handles[slot].generation
        idle = self._pool.get((slot, generation))
        if idle:
            # LIFO on purpose: steady traffic keeps reusing the same few
            # connections, so a burst's surplus ages at the front — and
            # is closed here, before this forward reaches the worker.
            _, client = idle.pop()
            cutoff = asyncio.get_running_loop().time() - POOL_IDLE_S
            while idle and idle[0][0] < cutoff:
                await idle.pop(0)[1].close()
            return client, generation
        host, port = self.supervisor.address(slot)
        client = await ServiceClient.connect(host, port)
        return client, generation

    def _release(self, slot: int, generation: int, client: ServiceClient) -> None:
        if (
            self._draining
            or self.supervisor.handles[slot].generation != generation
        ):
            asyncio.ensure_future(client.close())
            return
        self._pool.setdefault((slot, generation), []).append(
            (asyncio.get_running_loop().time(), client)
        )

    async def _discard_pool(self, slot: int) -> None:
        """Close every idle connection to a slot (it just died)."""
        for key in [k for k in self._pool if k[0] == slot]:
            for _, client in self._pool.pop(key):
                await client.close()

    async def _close_pool(self) -> None:
        for idle in self._pool.values():
            for _, client in idle:
                await client.close()
        self._pool.clear()

    # -- the routed run path -------------------------------------------
    async def dispatch(self, request: RunRequest) -> dict[str, Any]:
        """Route one run; ``completed``/``latency_ms`` clock the route."""
        loop = asyncio.get_running_loop()
        t0 = loop.time()
        response = await self._route(request)
        if response.get("status") == STATUS_OK:
            self._completed(loop.time() - t0)
        return response

    async def _route(self, request: RunRequest) -> dict[str, Any]:
        """Cache lookup, then shard-and-forward with retry/fallback."""
        spec = request.spec
        cache_key = spec.cache_key(request.root_seed)
        cached = self.cache.load(cache_key, spec.key())
        if cached is not None:
            self.counters.bump("cache_served")
            return {
                **ok_response(request.id, cached, batched=0, queue_ms=0.0),
                "cached": True,
                "provenance": "cache",
            }
        shard_key = repr(batch_compat_key(spec))
        # The one run-request schema: re-serialize the parsed request
        # instead of re-assembling a raw dict field by field.
        forward = request.to_wire()
        timeout_s = FORWARD_TIMEOUT_S
        if request.timeout_s is not None:
            timeout_s = min(timeout_s, request.timeout_s)
        tried_down: set[int] = set()
        for attempt in range(MAX_FORWARD_ATTEMPTS):
            if attempt:
                self.counters.bump("forward_retries")
                await asyncio.sleep(RETRY_BACKOFF_S * 2 ** (attempt - 1))
            slot = self._pick_slot(shard_key, tried_down)
            if slot is None:
                # Whole tier down right now; wait out a respawn.
                self.supervisor.changed.clear()
                with contextlib.suppress(asyncio.TimeoutError, TimeoutError):
                    await asyncio.wait_for(
                        self.supervisor.changed.wait(), SPAWN_TIMEOUT_S
                    )
                tried_down.clear()
                continue
            try:
                client, generation = await self._acquire(slot)
            except (OSError, RuntimeError):
                tried_down.add(slot)
                continue
            try:
                response = await client.request(
                    dict(forward), timeout_s=timeout_s
                )
            except ServiceConnectionError:
                # Worker died mid-flight: poison the pool, remember the
                # slot is suspect, and retry (elsewhere if needed).
                await client.close()
                await self._discard_pool(slot)
                tried_down.add(slot)
                continue
            self._release(slot, generation, client)
            self.counters.bump("forwarded")
            if response.get("status") == STATUS_OK and isinstance(
                response.get("metrics"), dict
            ):
                self.cache.store(
                    cache_key, spec.key(), response["metrics"], request.root_seed
                )
            response["worker"] = slot
            return response
        self.counters.bump("rejected_unavailable")
        return reject_response(
            request.id,
            "workers unavailable; request not executed",
            retry_after_ms=UNAVAILABLE_RETRY_AFTER_MS,
        )

    def _pick_slot(self, shard_key: str, tried_down: set[int]) -> int | None:
        """The key's home slot, else its next live ring neighbour."""
        down = {
            h.slot
            for h in self.supervisor.handles
            if not h.alive or h.failed
        } | tried_down
        try:
            return self.ring.node_for(shard_key, exclude=down)
        except ValueError:
            return None

    # -- introspection -------------------------------------------------
    def health(self) -> dict[str, Any]:
        tier = self.supervisor.snapshot()
        return {
            **self._preface(),
            "in_flight": self.in_flight,
            "backend": "cluster",
            "backend_mode": "cluster",
            "workers": tier["slots"],
            "workers_alive": len(self.supervisor.live_slots()),
            "worker_restarts": tier["worker_restarts"],
            "cache": self.cache.snapshot(),
        }

    async def stats(self) -> dict[str, Any]:
        """Router counters + best-effort per-worker stats aggregation."""
        worker_stats: list[dict[str, Any] | None] = []
        occupancies: list[tuple[float, int]] = []
        for handle in self.supervisor.handles:
            if not handle.alive:
                worker_stats.append(None)
                continue
            try:
                client, generation = await self._acquire(handle.slot)
                try:
                    snap = await client.request(
                        {"op": "stats", "id": f"router-w{handle.slot}"},
                        timeout_s=5.0,
                    )
                finally:
                    self._release(handle.slot, generation, client)
            except (OSError, RuntimeError, ServiceConnectionError):
                worker_stats.append(None)
                continue
            worker_stats.append(snap)
            batches = snap.get("batches") or {}
            if batches.get("count"):
                occupancies.append(
                    (int(batches.get("total", 0)), int(batches["count"]))
                )
        total_batches = sum(count for _, count in occupancies)
        total_trials = sum(total for total, _ in occupancies)
        mean_occupancy = (
            total_trials / total_batches if total_batches else 0.0
        )
        return {
            **self._preface(),
            "in_flight": self.in_flight,
            "counters": self.counters.snapshot(),
            "latency_ms": self.latency.summary(),
            "cache": self.cache.snapshot(),
            "tier": self.supervisor.snapshot(),
            "batches": {
                "count": total_batches,
                "total": total_trials,
                "mean_occupancy": round(mean_occupancy, 3),
            },
            "workers": worker_stats,
        }

    # -- banners -------------------------------------------------------
    def listening_banner(self) -> str:
        cfg = self.config
        return (
            f"repro cluster listening on {cfg.host}:{self.port} "
            f"({cfg.workers} workers, cache {self.cache.root})"
        )

    def drained_banner(self) -> str:
        return (
            f"repro cluster drained: {self.counters['completed']} completed "
            f"({self.counters['cache_served']} from cache, "
            f"{self.counters['forward_retries']} forward retries), "
            f"cache hit rate {self.cache.snapshot()['cache_hit_rate']}"
        )
