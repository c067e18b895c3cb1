"""Performance micro-benchmarks of the package's hot paths.

These are genuine timing benchmarks (multiple rounds, statistics) of the
inner loops the experiments lean on, per the HPC guidance: measure
before optimizing, and keep regressions visible.

* flit-level simulation throughput on a congested workload;
* vectorized butterfly path generation;
* one Moser-Tardos refinement stage;
* a full level-synchronized butterfly subround;
* one 2 000-contender grant round of each class (all full, uncontested,
  contested — DESIGN decision 22);
* one 128-trial lockstep run per batched kernel on perfbench's
  ``sweep_batched`` shapes, reported per step (DESIGN decision 23).
"""

import numpy as np
import pytest

from repro import Butterfly, arbitrate_levels, simulate
from repro.core.coloring import MessageEdgeIncidence, refine_colors
from repro.network.random_networks import layered_network, random_walk_paths
from repro.routing.paths import paths_from_node_walks
from repro.sim.batch import run_model
from repro.sim.engine import grant_free_slots, grant_free_slots_reference
from repro.sim.sweep import build_workload


@pytest.fixture(scope="module")
def big_workload():
    rng = np.random.default_rng(0)
    net = layered_network(24, 20, 3, rng)
    walks = random_walk_paths(net, 24, 20, 600, rng)
    return net, paths_from_node_walks(net, walks)


def test_perf_wormhole_simulation(benchmark, big_workload):
    net, paths = big_workload

    def run():
        return simulate((net, paths), B=2, message_length=12)

    result = benchmark(run)
    assert result.all_delivered


def test_perf_butterfly_path_batch(benchmark):
    bf = Butterfly(1024, passes=2)
    rng = np.random.default_rng(1)
    src = rng.integers(0, 1024, 4096)
    mid = rng.integers(0, 1024, 4096)
    dst = rng.integers(0, 1024, 4096)

    edges = benchmark(bf.two_pass_path_edges_batch, src, mid, dst)
    assert edges.shape == (4096, 20)


def test_perf_refinement_stage(benchmark, big_workload):
    _, paths = big_workload
    inc = MessageEdgeIncidence.from_paths(paths)
    colors = np.zeros(len(paths), dtype=np.int64)

    def stage():
        return refine_colors(
            inc, colors, r=24, mf=3, rng=np.random.default_rng(2)
        )

    out = benchmark(stage)
    assert out is not None


def test_perf_subround_arbitration(benchmark):
    bf = Butterfly(256, passes=2)
    rng = np.random.default_rng(3)
    src = rng.integers(0, 256, 2048)
    mid = rng.integers(0, 256, 2048)
    dst = rng.integers(0, 256, 2048)
    edges = bf.two_pass_path_edges_batch(src, mid, dst)

    alive = benchmark(arbitrate_levels, edges, 2, np.random.default_rng(4))
    assert alive.any()


@pytest.mark.parametrize("kind", ["all_full", "uncontested", "contested"])
def test_perf_grant_round(benchmark, kind):
    """One batched wormhole round: 2 000 contenders over a 128 x 48 slot
    space at B = 2.  Only the contested class sorts."""
    rng = np.random.default_rng(5)
    space, n, B = 128 * 48, 2000, 2
    if kind == "contested":
        slots = rng.integers(0, space, size=n) // 8 * 8  # ~2.6 a slot
    else:
        slots = rng.permutation(space)[:n]  # one contender a slot
    prio = rng.random(n)
    occupancy = np.full(space, B if kind == "all_full" else B - 1)

    granted = benchmark(grant_free_slots, slots, prio, B, occupancy)
    assert np.array_equal(
        granted, grant_free_slots_reference(slots, prio, B, occupancy)
    )
    assert granted.any() == (kind != "all_full")
    assert granted.all() == (kind == "uncontested")


#: perfbench's sweep_batched shapes: (workload, parameters, L) per model.
_BATCH_SHAPES = {
    "wormhole": ("chain-bundle", {"chains": 4, "depth": 12, "messages": 8}, 24),
    "cut_through": ("chain-bundle", {"chains": 4, "depth": 12, "messages": 8}, 24),
    "adaptive": ("mesh-permutation", {"k": 6}, 6),
}


@pytest.mark.parametrize("model", sorted(_BATCH_SHAPES))
def test_perf_batch_step(benchmark, model):
    """One lockstep run of 128 trials at B = 2 (random priorities for the
    path models); ``extra_info`` holds the steps it took, so the report
    reads per step and per message-step."""
    name, params, L = _BATCH_SHAPES[model]
    workload = build_workload(name, params)
    seeds = list(range(128))

    def run():
        return run_model(model, workload, L, seeds=seeds, B=2)

    results = benchmark(run)
    steps = max(r.steps_executed for r in results)
    messages = results[0].completion_times.size
    benchmark.extra_info.update(steps=steps, msg_steps=steps * messages)
    assert all(r.all_delivered for r in results)
    (alone,) = run_model(model, workload, L, seeds=seeds[-1:], B=2)
    assert np.array_equal(alone.completion_times, results[-1].completion_times)
