"""Attaching telemetry must never change a simulation's outcome.

Property-based: for random workloads, the SimulationResult of an
instrumented run is bit-identical to the uninstrumented run — the
collectors observe, they do not perturb (in particular they never touch
the simulator's RNG stream).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import simulate
from repro.network.random_networks import chain_bundle
from repro.routing.paths import paths_from_node_walks
from repro.sim.batch import run_store_forward_batch
from repro.sim.spec import Workload
from repro.telemetry import (
    StallAttributionCollector,
    TraceRecorder,
    TraceSnapshotCollector,
    Watchdog,
    standard_collectors,
)


def assert_results_identical(plain, probed):
    assert np.array_equal(plain.completion_times, probed.completion_times)
    assert plain.makespan == probed.makespan
    assert plain.steps_executed == probed.steps_executed
    assert np.array_equal(plain.blocked_steps, probed.blocked_steps)
    assert plain.deadlocked == probed.deadlocked
    assert plain.hit_step_cap == probed.hit_step_cap


workload = st.fixed_dictionaries(
    {
        "chains": st.integers(1, 2),
        "depth": st.integers(1, 5),
        "worms": st.integers(1, 4),
        "B": st.integers(1, 3),
        "L": st.integers(1, 6),
        "seed": st.integers(0, 2**16),
        "priority": st.sampled_from(["random", "index"]),
        "staggered": st.booleans(),
    }
)


class TestWormholeInvariance:
    @settings(max_examples=40, deadline=None)
    @given(w=workload)
    def test_collectors_do_not_perturb(self, w):
        net, walks = chain_bundle(w["chains"], w["depth"], w["worms"])
        paths = paths_from_node_walks(net, walks)
        M = len(paths)
        release = (
            np.arange(M, dtype=np.int64) * 2 if w["staggered"] else None
        )

        def run(telemetry):
            return simulate(
                Workload(net=net, paths=paths, release_times=release),
                B=w["B"], message_length=w["L"], priority=w["priority"], seed=w["seed"], telemetry=telemetry,
            )

        plain = run(None)
        probes = standard_collectors() + [
            TraceSnapshotCollector(),
            TraceRecorder(),
            Watchdog(),
        ]
        probed = run(probes)
        assert_results_identical(plain, probed)
        # Annotation-only keys may be added; core extras must agree.
        assert "watchdog" in probed.extra
        assert "watchdog" not in plain.extra


class TestOtherEngineInvariance:
    def test_cut_through(self):
        net, walks = chain_bundle(2, 4, 3)
        paths = paths_from_node_walks(net, walks)

        def run(telemetry):
            return simulate(
                (net, paths), model="cut_through", B=2, message_length=5, seed=5,
                telemetry=telemetry,
            )

        assert_results_identical(run(None), run(standard_collectors()))

    def test_store_forward(self):
        net, walks = chain_bundle(2, 4, 3)
        paths = paths_from_node_walks(net, walks)

        def run(telemetry):
            (res,) = run_store_forward_batch(
                net, paths, 5, seeds=[5], priority="random", delay_range=3,
                telemetry=telemetry,
            )
            return res

        assert_results_identical(run(None), run(standard_collectors()))

    def test_adaptive(self):
        from repro.network.mesh import KAryNCube

        cube = KAryNCube(k=4, n=2, wrap=False)
        demands = [(0, 15), (3, 12), (5, 10), (12, 3), (15, 0)]

        def run(telemetry):
            return simulate(
                (cube, demands), model="adaptive", message_length=4,
                policy="west-first", seed=9, telemetry=telemetry,
            ).result

        assert_results_identical(run(None), run(standard_collectors()))


class TestDeprecatedShims:
    """The retired record_* kwargs are not ``simulate`` options; the collectors
    that replaced them attach without perturbing the run."""

    def make(self):
        net, walks = chain_bundle(2, 3, 3)
        paths = paths_from_node_walks(net, walks)
        return net, paths

    def test_record_trace_shim(self):
        net, paths = self.make()
        with pytest.raises(TypeError, match="record_trace"):
            simulate((net, paths), message_length=4, record_trace=True)
        bare = simulate((net, paths), message_length=4)
        snap = TraceSnapshotCollector()
        modern = simulate((net, paths), message_length=4, telemetry=[snap])
        assert_results_identical(bare, modern)
        assert snap.matrix.shape == (modern.steps_executed, len(paths))
        assert np.array_equal(
            snap.matrix[-1], np.full(len(paths), 4 + 3 - 1)
        )  # every worm ends at L + D - 1 completed moves

    def test_record_contention_shim(self):
        net, paths = self.make()
        with pytest.raises(TypeError, match="record_contention"):
            simulate((net, paths), message_length=4, record_contention=True)
        bare = simulate((net, paths), message_length=4)
        stall = StallAttributionCollector()
        modern = simulate((net, paths), message_length=4, telemetry=[stall])
        assert_results_identical(bare, modern)
        assert sum(stall.blocked_at_edge.values()) == modern.total_blocked_steps

    def test_shims_compose_with_telemetry(self):
        net, paths = self.make()
        snap, stall = TraceSnapshotCollector(), StallAttributionCollector()
        res = simulate((net, paths), message_length=4, telemetry=[snap, stall])
        assert res.extra == {}  # collectors keep their arrays themselves
        assert snap.matrix.shape[0] == res.steps_executed
        assert sum(stall.blocked_at_edge.values()) == res.total_blocked_steps
