"""Lazy package namespaces: what a fresh process imports, and what it sees.

Each test runs its body in a fresh interpreter, because the point is
what ``sys.modules`` holds before anything else in the suite has
imported the rest of the package.  The checks are on module names and
objects, never on timings.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])
LAZY_PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.cluster",
    "repro.exec",
    "repro.network",
    "repro.routing",
    "repro.service",
    "repro.sim",
    "repro.telemetry",
]
#: Modules that mean "this process loaded the simulator".
SIMULATOR = [
    "numpy",
    "repro.sim.sweep",
    "repro.sim.batch",
    "repro.network.graph",
    "repro.service.batcher",
]
SPEC = {
    "workload": "chain-bundle",
    "simulator": "wormhole",
    "B": 2,
    "workload_params": {"chains": 2, "depth": 4, "messages": 3},
}


def run_fresh(code: str) -> str:
    """Run ``code`` in a new interpreter; its stdout, or fail with stderr."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_serving_imports_leave_the_offline_stack_unloaded():
    out = run_fresh(
        """
        import sys
        import repro.cli, repro.service.server, repro.service.batcher
        import repro.cluster.router, repro.sim.sweep
        unwanted = ["scipy", "repro.analysis.lll", "repro.telemetry.report",
                    "repro.scenarios", "repro.fuzz", "repro.core"]
        print(" ".join(m for m in unwanted if m in sys.modules))
        """
    )
    assert out.split() == []


# -- the router process holds no simulator ------------------------------
# It parses, keys, hashes and forwards trials; the workers run them.


def test_router_parses_keys_and_hashes_without_the_simulator():
    out = run_fresh(
        f"""
        import sys
        import repro.cli, repro.cluster.router
        from repro.cluster import ClusterConfig
        from repro.service.protocol import parse_run_request
        from repro.sim.spec import batch_compat_key

        ClusterConfig(port=0, workers=2)
        request = parse_run_request(
            {{"op": "run", "id": "a", "spec": {SPEC!r}, "root_seed": 3}}
        )
        assert len(request.spec.cache_key(request.root_seed)) == 64
        assert batch_compat_key(request.spec)[:2] == ("wormhole", "chain-bundle")
        print(" ".join(m for m in {SIMULATOR!r} if m in sys.modules))
        """
    )
    assert out.split() == []


def test_router_forwards_a_run_without_loading_the_simulator(tmp_path):
    out = run_fresh(
        f"""
        import asyncio, sys
        from repro.cluster import ClusterConfig, ClusterRouter
        from repro.service import ServiceClient

        async def forward_one():
            router = ClusterRouter(
                ClusterConfig(port=0, workers=1, runtime_dir={str(tmp_path)!r})
            )
            task = asyncio.create_task(router.run())
            await router.started.wait()
            async with await ServiceClient.connect("127.0.0.1", router.port) as c:
                reply = await c.run_trial({SPEC!r}, root_seed=1)
            router.request_shutdown()
            await task
            return reply, router.counters["forwarded"]

        reply, forwarded = asyncio.run(forward_one())
        assert reply["status"] == "ok" and reply["worker"] == 0, reply
        assert forwarded == 1
        print(" ".join(m for m in {SIMULATOR!r} if m in sys.modules))
        """
    )
    assert out.split() == []


def test_a_model_the_spec_does_not_name_fails_the_sweep_import():
    out = run_fresh(
        """
        import repro.sim.spec as spec
        spec.SIMULATORS = spec.SIMULATORS[:-1]
        try:
            import repro.sim.sweep
        except ImportError as exc:
            print(exc)
        """
    )
    assert out.startswith("repro.sim.spec.SIMULATORS must list the LOCKSTEP_MODELS")


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_namespace_serves_every_public_name(package):
    run_fresh(
        f"""
        import importlib
        pkg = importlib.import_module({package!r})
        table = pkg._EXPORTS
        assert set(pkg.__all__) == set(table)
        assert set(pkg.__all__) <= set(dir(pkg))  # before any is resolved
        for name in pkg.__all__:
            owner = importlib.import_module(table[name], {package!r})
            want = owner if owner.__name__.rpartition(".")[2] == name else getattr(owner, name)
            assert getattr(pkg, name) is want, name

        namespace = {{}}
        exec("from {package} import *", namespace)
        missing = set(pkg.__all__) - set(namespace)
        assert not missing, missing

        try:
            pkg.no_such_name
        except AttributeError as exc:
            assert {package!r} in str(exc) and "no_such_name" in str(exc), exc
        else:
            raise AssertionError("unknown name resolved")
        """
    )


def test_quickstart_runs_in_a_fresh_process():
    out = run_fresh(
        """
        import doctest, repro
        print(*doctest.testmod(repro))
        """
    )
    failed, attempted = map(int, out.split())
    assert failed == 0 and attempted > 0


# -- scenario workloads register on a lookup miss -----------------------
# ``repro.scenarios`` registers ``scenario:<name>`` sweep workloads as an
# import side effect, and importing ``repro`` no longer pulls it in; the
# sweep registry imports it the first time a name is not found.


def test_scenario_workload_builds_without_the_scenario_library_loaded():
    out = run_fresh(
        """
        import sys
        from repro.sim.sweep import build_workload
        assert "repro.scenarios" not in sys.modules
        wl = build_workload(
            "scenario:chain-contention", {"chains": 2, "depth": 5, "messages": 3}
        )
        print(len(wl.paths))
        """
    )
    assert int(out) == 6


def test_scenario_trial_spec_executes_in_a_fresh_process():
    out = run_fresh(
        """
        from repro.sim.sweep import TrialSpec, execute_compatible
        spec = TrialSpec.make(
            "scenario:chain-contention", "wormhole", B=2,
            workload_params={"chains": 2, "depth": 5, "messages": 3},
        )
        [metrics] = execute_compatible([(spec, 0)])
        print(metrics["delivered"], metrics["messages"])
        """
    )
    delivered, messages = map(int, out.split())
    assert delivered == messages == 6


def test_unknown_workload_error_lists_scenario_workloads():
    out = run_fresh(
        """
        from repro.network.graph import NetworkError
        from repro.sim.sweep import build_workload
        try:
            build_workload("zzz", {})
        except NetworkError as exc:
            print(exc)
        """
    )
    assert out.startswith("unknown workload 'zzz'; registered: ")
    assert "scenario:chain-contention" in out
    assert "scenario:lower-bound-gadget" in out
