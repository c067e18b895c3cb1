"""Equivalence of the optimized wormhole simulator with the naive
per-flit reference implementation (tests/reference_simulator.py).

Both use lowest-index arbitration and the same synchronous semantics;
their per-message completion times must be *identical* on every
workload.  This pins the optimized engine's move-counter arithmetic
(acquisition at k-1, release at k-L-1, final edge at completion) against
a first-principles flit-state simulation.
"""

import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from reference_simulator import reference_run  # noqa: E402

from golden_cases import _line, _ring, fifo_release  # noqa: E402
from repro import simulate
from repro.network.random_networks import chain_bundle, layered_network, random_walk_paths
from repro.routing.paths import paths_from_node_walks
from repro.sim.batch import run_wormhole_batch
from repro.sim.spec import Workload


def optimized_run(net, paths, L, B, release=None):
    res = simulate(
        Workload(
            net=net, paths=paths, release_times=None if release is None else np.asarray(release),
        ),
        B=B, message_length=L, priority="index",
    )
    return res.completion_times


class TestHandPickedCases:
    def test_single_worm(self):
        net, walks = chain_bundle(1, 4, 1)
        paths = paths_from_node_walks(net, walks)
        edge_lists = [list(p.edges) for p in paths]
        ref = reference_run(edge_lists, L=5, B=1)
        opt = optimized_run(net, paths, 5, 1)
        assert np.array_equal(ref, opt)

    def test_serialized_chain(self):
        net, walks = chain_bundle(1, 4, 3)
        paths = paths_from_node_walks(net, walks)
        edge_lists = [list(p.edges) for p in paths]
        for B in (1, 2, 3):
            ref = reference_run(edge_lists, L=6, B=B)
            opt = optimized_run(net, paths, 6, B)
            assert np.array_equal(ref, opt), f"B={B}"

    def test_d_greater_than_l(self):
        """The regression regime: long paths, short worms."""
        net, walks = chain_bundle(1, 7, 3)
        paths = paths_from_node_walks(net, walks)
        edge_lists = [list(p.edges) for p in paths]
        ref = reference_run(edge_lists, L=2, B=1)
        opt = optimized_run(net, paths, 2, 1)
        assert np.array_equal(ref, opt)

    def test_single_edge_paths(self):
        net, walks = chain_bundle(1, 1, 4)
        paths = paths_from_node_walks(net, walks)
        edge_lists = [list(p.edges) for p in paths]
        for B in (1, 2):
            ref = reference_run(edge_lists, L=4, B=B)
            opt = optimized_run(net, paths, 4, B)
            assert np.array_equal(ref, opt), f"B={B}"

    def test_release_times(self):
        net, walks = chain_bundle(1, 3, 2)
        paths = paths_from_node_walks(net, walks)
        edge_lists = [list(p.edges) for p in paths]
        release = [3, 0]
        ref = reference_run(edge_lists, L=4, B=1, release_times=release)
        opt = optimized_run(net, paths, 4, 1, release)
        assert np.array_equal(ref, opt)


class TestPropertyEquivalence:
    @given(
        st.integers(1, 3),  # B
        st.integers(1, 6),  # L
        st.integers(2, 5),  # depth
        st.integers(1, 4),  # per chain
        st.integers(1, 2),  # chains
    )
    @settings(max_examples=40, deadline=None)
    def test_chain_workloads(self, B, L, depth, per_chain, chains):
        net, walks = chain_bundle(chains, depth, per_chain)
        paths = paths_from_node_walks(net, walks)
        edge_lists = [list(p.edges) for p in paths]
        ref = reference_run(edge_lists, L=L, B=B)
        opt = optimized_run(net, paths, L, B)
        assert np.array_equal(ref, opt)

    @given(st.integers(0, 2**31 - 1), st.integers(1, 2), st.integers(1, 5))
    @settings(max_examples=25, deadline=None)
    def test_layered_workloads(self, seed, B, L):
        rng = np.random.default_rng(seed)
        net = layered_network(4, 3, 2, rng)
        walks = random_walk_paths(net, 4, 3, 8, rng)
        paths = paths_from_node_walks(net, walks)
        edge_lists = [list(p.edges) for p in paths]
        ref = reference_run(edge_lists, L=L, B=B)
        opt = optimized_run(net, paths, L, B)
        assert np.array_equal(ref, opt)

    @given(st.integers(0, 2**31 - 1), st.integers(1, 2), st.integers(2, 5))
    @settings(max_examples=25, deadline=None)
    def test_staggered_releases(self, seed, B, L):
        """Equivalence holds under arbitrary release schedules too."""
        rng = np.random.default_rng(seed)
        net, walks = chain_bundle(2, 3, 3)
        paths = paths_from_node_walks(net, walks)
        edge_lists = [list(p.edges) for p in paths]
        release = rng.integers(0, 12, size=len(paths)).tolist()
        ref = reference_run(edge_lists, L=L, B=B, release_times=release)
        opt = optimized_run(net, paths, L, B, release)
        assert np.array_equal(ref, opt)


class TestInjectionQueues:
    """The kernel's FIFO gate (``sources=``) against the per-flit
    reference, which states MODEL.md section 1 on flit positions: a
    header leaves its injection buffer only once its queue
    predecessor's header is in the network."""

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_gated_kernel_matches_reference(self, data):
        draw = data.draw
        n = draw(st.integers(2, 5))
        ring = draw(st.booleans())
        net, edges = (_ring(n) if ring else _line(n))[:2]
        M = draw(st.integers(1, 6))
        paths = []
        for _ in range(M):
            start = draw(st.integers(0, n - 1))
            room = n if ring else n - start
            length = draw(st.integers(0, room))  # 0: delivered at release
            paths.append([edges[(start + j) % n] for j in range(length)])
        sources = draw(st.lists(st.integers(0, 2), min_size=M, max_size=M))
        release = fifo_release(
            sources, draw(st.lists(st.integers(0, 8), min_size=M, max_size=M))
        )
        L = draw(st.integers(1, 4))
        T = draw(st.sampled_from([1, 4]))
        B = draw(st.lists(st.integers(1, 3), min_size=T, max_size=T))
        kw = dict(release_times=release, sources=sources)
        batch = run_wormhole_batch(
            net, paths, L, seeds=range(T), num_virtual_channels=B,
            priority="index", **kw,
        )
        for i, (res, b) in enumerate(zip(batch, B)):
            # A worm that deadlocks stays undelivered in both; every
            # live run here ends well inside the reference's horizon.
            ref = reference_run(paths, L, b, release, 150, sources=sources)
            assert np.array_equal(res.completion_times, ref)
            alone = run_wormhole_batch(
                net, paths, L, seeds=[i], num_virtual_channels=b,
                priority="index", **kw,
            )[0]
            assert np.array_equal(res.completion_times, alone.completion_times)
            assert np.array_equal(res.blocked_steps, alone.blocked_steps)
            assert res.steps_executed == alone.steps_executed
            assert res.deadlocked == alone.deadlocked
