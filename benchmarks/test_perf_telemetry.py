"""Probe-overhead benchmarks for the telemetry subsystem.

The design contract is that an empty probe set is free (the simulators
skip all dispatch behind one ``None`` check) and the standard collector
bundle costs a bounded constant factor.  These benchmarks keep both
claims measurable: compare ``test_perf_wormhole_bare`` against
``test_perf_wormhole_instrumented`` in the same run.
"""

import numpy as np
import pytest

from repro import simulate
from repro.network.random_networks import layered_network, random_walk_paths
from repro.routing.paths import paths_from_node_walks
from repro.telemetry import TraceRecorder, Watchdog, standard_collectors


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(0)
    net = layered_network(16, 16, 3, rng)
    walks = random_walk_paths(net, 16, 16, 400, rng)
    return net, paths_from_node_walks(net, walks)


def test_perf_wormhole_bare(benchmark, workload):
    net, paths = workload

    def run():
        return simulate((net, paths), B=2, message_length=10)

    result = benchmark(run)
    assert result.all_delivered


def test_perf_wormhole_instrumented(benchmark, workload):
    net, paths = workload
    baseline = simulate((net, paths), B=2, message_length=10)

    def run():
        return simulate(
            (net, paths),
            B=2,
            message_length=10,
            telemetry=standard_collectors() + [Watchdog()],
        )

    result = benchmark(run)
    assert result.all_delivered
    assert np.array_equal(result.completion_times, baseline.completion_times)


def test_perf_trace_recording(benchmark, workload):
    net, paths = workload

    def run():
        recorder = TraceRecorder()
        simulate((net, paths), B=2, message_length=10, telemetry=[recorder])
        return recorder.to_trace()

    trace = benchmark(run)
    assert trace.events["grant"][0].size > 0
