"""End-to-end ``mode="estimate"`` through a live service.

Pins the estimate tier's service contract: estimates never touch the
DynamicBatcher (the batch histogram stays empty), repeated estimates
are bit-stable, the estimator screens infeasible deadlines *before*
queuing, and an unknown mode draws the structured error that lists the
supported modes.
"""

import asyncio
import contextlib

from repro.analysis.estimate import estimate_spec
from repro.service import (
    STATUS_OK,
    STATUS_REJECTED,
    LoadgenConfig,
    ServiceClient,
    ServiceConfig,
    SimulationService,
    run_loadgen,
)
from repro.sim.sweep import TrialSpec

WORKLOAD_PARAMS = {"chains": 2, "depth": 4, "messages": 3}


def _spec(B=2, simulator="wormhole"):
    return TrialSpec.make(
        "chain-bundle",
        simulator,
        B=B,
        workload_params=WORKLOAD_PARAMS,
        message_length=8,
    )


def run_async(coro, timeout=60):
    return asyncio.run(asyncio.wait_for(coro, timeout))


@contextlib.asynccontextmanager
async def service(**overrides):
    overrides.setdefault("port", 0)
    svc = SimulationService(ServiceConfig(**overrides))
    task = asyncio.create_task(svc.run())
    await svc.started.wait()
    try:
        yield svc
    finally:
        svc.request_shutdown()
        await task


def test_estimate_bypasses_batcher_and_is_bit_stable():
    async def drive():
        async with service() as svc:
            async with await ServiceClient.connect("127.0.0.1", svc.port) as c:
                spec = _spec()
                first = await c.run_trial(spec, mode="estimate")
                assert first["status"] == STATUS_OK
                assert first["mode"] == "estimate"
                assert first["batched"] == 0
                # Bit-stable: repeats and the local estimator agree exactly.
                again = await c.run_trial(spec, mode="estimate", req_id="r2")
                assert again["metrics"] == first["metrics"]
                assert first["metrics"] == estimate_spec(spec).to_metrics()
                # The envelope fields are the wire payload.
                m = first["metrics"]
                assert m["makespan_lower"] <= m["makespan_upper"]
                stats = await c.stats()
        assert stats["counters"]["estimated"] == 2
        # No estimate ever entered the batcher.
        assert stats["batches"]["count"] == 0
        return stats

    run_async(drive())


def test_exact_and_estimate_interleave():
    async def drive():
        async with service() as svc:
            async with await ServiceClient.connect("127.0.0.1", svc.port) as c:
                spec = _spec()
                exact = await c.run_trial(spec)
                est = await c.run_trial(spec, mode="estimate", req_id="e")
                assert exact["status"] == est["status"] == STATUS_OK
                assert "mode" not in exact  # exact is the unmarked default
                lower = est["metrics"]["makespan_lower"]
                upper = est["metrics"]["makespan_upper"]
                assert lower <= exact["metrics"]["makespan"] <= upper

    run_async(drive())


def test_unknown_mode_lists_supported_modes():
    async def drive():
        async with service() as svc:
            async with await ServiceClient.connect("127.0.0.1", svc.port) as c:
                resp = await c.run_trial(_spec(), mode="turbo")
                assert resp["status"] == "error"
                assert "unknown mode 'turbo'" in resp["error"]
                assert resp["supported_modes"] == ["exact", "estimate"]

    run_async(drive())


def test_infeasible_deadline_rejected_before_queuing():
    async def drive():
        async with service(step_cost_ms=1.0) as svc:
            async with await ServiceClient.connect("127.0.0.1", svc.port) as c:
                spec = _spec()
                floor = estimate_spec(spec).lower
                # A deadline below the analytic floor is rejected with
                # the minimum feasible deadline as the retry hint...
                resp = await c.run_trial(spec, deadline_ms=float(floor) / 2)
                assert resp["status"] == STATUS_REJECTED
                assert resp["error"] == "infeasible_deadline"
                assert resp["retry_after_ms"] >= float(floor)
                # ...while a generous deadline passes the screen.
                ok = await c.run_trial(spec, deadline_ms=60_000.0, req_id="ok")
                assert ok["status"] == STATUS_OK
                stats = await c.stats()
        assert stats["counters"]["rejected_infeasible"] == 1
        assert stats["counters"]["completed"] == 1

    run_async(drive())


def test_screen_off_without_step_cost():
    async def drive():
        async with service() as svc:  # step_cost_ms defaults to None
            async with await ServiceClient.connect("127.0.0.1", svc.port) as c:
                resp = await c.run_trial(_spec(), deadline_ms=60_000.0)
                assert resp["status"] == STATUS_OK

    run_async(drive())


def test_estimate_loadgen_verifies_against_local_estimator():
    async def drive():
        async with service() as svc:
            config = LoadgenConfig(
                workload="chain-bundle",
                workload_params=WORKLOAD_PARAMS,
                simulators=("wormhole", "store_forward"),
                lengths=(8,),
                channels=(1, 2),
                requests=12,
                concurrency=4,
                mode="estimate",
            )
            report = await run_loadgen("127.0.0.1", svc.port, config)
        assert report["ok"] == 12
        assert report["verified"] == 12
        assert report["bit_exact"] is True
        assert report["config"]["mode"] == "estimate"
        assert report["client_mean_batch"] == 0.0
        assert report["server"]["counters"]["estimated"] == 12

    run_async(drive())
