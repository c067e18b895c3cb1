"""Unit tests for the standard telemetry collectors.

The anchor is flit conservation: a delivered message of length ``L`` on
a ``D``-edge path transports exactly ``L * D`` flit-edge crossings, so
the utilization collector's grand total is checkable in closed form on
every engine.
"""

import numpy as np
import pytest

from repro import simulate
from repro.network.mesh import KAryNCube
from repro.network.random_networks import chain_bundle
from repro.routing.paths import paths_from_node_walks
from repro.sim.batch import run_adaptive_batch
from repro.telemetry import (
    BufferOccupancyCollector,
    ChannelUtilizationCollector,
    EdgeContentionCollector,
    StallAttributionCollector,
    ThroughputCollector,
    TraceSnapshotCollector,
    standard_collectors,
)


def chain_run(B=1, worms=3, depth=4, L=5, probes=None, priority="index"):
    net, walks = chain_bundle(1, depth, worms)
    paths = paths_from_node_walks(net, walks)
    res = simulate(
        (net, paths), B=B, message_length=L, priority=priority, telemetry=probes,
    )
    return net, paths, res


class TestChannelUtilization:
    def test_exact_flit_conservation(self):
        util = ChannelUtilizationCollector()
        net, paths, res = chain_run(worms=3, depth=4, L=5, probes=[util])
        assert res.all_delivered
        # Every delivered worm moves L flits across each of its D edges.
        assert util.total_flits == 3 * 5 * 4
        # On a single shared chain every chain edge carries all worms.
        for e in paths[0].edges:
            assert util.flits_crossed[e] == 3 * 5

    def test_per_step_series_sums_to_total(self):
        util = ChannelUtilizationCollector()
        chain_run(worms=2, depth=3, L=4, probes=[util])
        assert sum(f for _, f in util.flits_per_step) == util.total_flits

    def test_hottest_sorted_descending(self):
        util = ChannelUtilizationCollector()
        net, walks = chain_bundle(2, 3, 2)
        paths = paths_from_node_walks(net, walks)
        simulate((net, paths), message_length=4, telemetry=[util])
        hottest = util.hottest(10)
        flits = [f for _, f in hottest]
        assert flits == sorted(flits, reverse=True)
        assert all(f > 0 for f in flits)

    def test_sampling(self):
        util = ChannelUtilizationCollector(sample_every=2)
        _, _, res = chain_run(worms=2, depth=3, L=4, probes=[util])
        assert len(util.samples) == res.steps_executed // 2
        t_last, snap = util.samples[-1]
        assert snap.sum() <= util.total_flits


class TestBufferOccupancy:
    @pytest.mark.parametrize("B", [1, 2])
    def test_occupancy_bounded_by_B(self, B):
        occ = BufferOccupancyCollector()
        _, _, res = chain_run(B=B, worms=3, depth=4, L=5, probes=[occ])
        assert res.all_delivered
        assert occ.max_occupancy.max() == B  # the shared chain saturates
        assert (occ.max_occupancy <= B).all()

    def test_all_slots_freed_at_end(self):
        occ = BufferOccupancyCollector()
        chain_run(worms=3, depth=4, L=5, probes=[occ])
        assert (occ.occupancy == 0).all()

    def test_histogram_accounts_every_edge_step(self):
        occ = BufferOccupancyCollector()
        net, _, res = chain_run(worms=2, depth=3, L=4, probes=[occ])
        assert occ.steps_observed == res.steps_executed
        assert occ.hist.sum() == net.num_edges * res.steps_executed
        frac = occ.global_histogram()
        assert frac.sum() == pytest.approx(1.0)


class TestStallAttribution:
    def test_blame_points_at_the_worm_ahead(self):
        stall = StallAttributionCollector()
        _, _, res = chain_run(worms=2, depth=4, L=5, probes=[stall])
        # Index priority: worm 1 waits behind worm 0 at the chain mouth.
        assert stall.blocked_steps[1] > 0
        assert stall.blame[(1, 0)] == stall.blocked_steps[1]
        assert stall.top_blame(1) == [(1, 0, stall.blame[(1, 0)])]

    def test_blame_chain_follows_the_convoy(self):
        stall = StallAttributionCollector()
        chain_run(worms=3, depth=4, L=5, probes=[stall])
        chain = stall.blame_chain()
        assert len(chain) >= 2
        assert chain[-1] == 0  # the head of the convoy was never blocked

    def test_unblocked_run_accumulates_nothing(self):
        stall = StallAttributionCollector()
        _, _, res = chain_run(worms=1, depth=3, L=4, probes=[stall])
        assert res.total_blocked_steps == 0
        assert not stall.blame and not stall.blocked_at_edge
        assert stall.blame_chain() == []


class TestThroughput:
    def test_delivered_total_and_series(self):
        thr = ThroughputCollector()
        _, _, res = chain_run(worms=3, depth=4, L=5, probes=[thr])
        assert thr.delivered_total == 3
        assert thr.delivered_series().sum() == 3
        assert len(thr.steps) == res.steps_executed

    def test_backlog_counts_waiting_worms(self):
        thr = ThroughputCollector()
        chain_run(worms=3, depth=4, L=5, probes=[thr])
        # At B=1 two worms wait at injection while the first crosses.
        assert thr.peak_backlog == 2
        assert thr.mean_rate() > 0


class TestEdgeContention:
    def test_matches_blocked_steps(self):
        cont = EdgeContentionCollector()
        _, _, res = chain_run(worms=3, depth=4, L=5, probes=[cont])
        assert cont.denied.sum() == res.total_blocked_steps
        (hot_edge, hot_count), *_ = cont.hottest(1)
        assert hot_count == cont.denied.max()


class TestTraceSnapshot:
    def test_matrix_shape_and_monotonicity(self):
        snap = TraceSnapshotCollector()
        _, _, res = chain_run(worms=2, depth=3, L=4, probes=[snap])
        trace = snap.matrix
        assert trace.shape == (res.steps_executed, 2)
        assert (np.diff(np.maximum(trace, 0), axis=0) >= 0).all()

    def test_empty_run_is_empty_matrix(self):
        snap = TraceSnapshotCollector()
        assert snap.matrix.shape == (0, 0)


class TestOtherEngines:
    def test_cut_through_flit_conservation(self):
        util = ChannelUtilizationCollector()
        thr = ThroughputCollector()
        net, walks = chain_bundle(1, 4, 3)
        paths = paths_from_node_walks(net, walks)
        res = simulate(
            (net, paths), model="cut_through", B=2, message_length=5,
            priority="index", telemetry=[util, thr],
        )
        assert res.all_delivered
        # Grant-weighted accounting: one edge-ownership claim per edge,
        # each implying L flits stream across it.
        assert util.total_flits == 3 * 5 * 4
        assert thr.delivered_total == 3

    def test_store_forward_flit_conservation(self):
        util = ChannelUtilizationCollector()
        occ = BufferOccupancyCollector()
        net, walks = chain_bundle(1, 4, 3)
        paths = paths_from_node_walks(net, walks)
        res = simulate(
            (net, paths), model="store_forward", message_length=5, priority="age",
            telemetry=[util, occ],
        )
        assert res.all_delivered
        assert util.total_flits == 3 * 5 * 4

    def test_adaptive_flit_conservation(self):
        util = ChannelUtilizationCollector()
        stall = StallAttributionCollector()
        cube = KAryNCube(k=4, n=2, wrap=False)
        demands = [(0, 15), (3, 12), (5, 10), (12, 3)]
        (out,) = run_adaptive_batch(
            cube, demands, 4, seeds=[1], telemetry=[util, stall]
        )  # the driver keeps the taken paths
        assert out.all_delivered
        hops = sum(len(p) for p in out.taken_paths)
        assert util.total_flits == 4 * hops

    def test_standard_collectors_bundle(self):
        probes = standard_collectors()
        types = {type(p) for p in probes}
        assert types == {
            ChannelUtilizationCollector,
            BufferOccupancyCollector,
            StallAttributionCollector,
            ThroughputCollector,
        }
