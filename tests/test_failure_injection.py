"""Failure injection and pathological-input tests.

Production routers meet degenerate workloads; these tests push the
simulators and schedulers into corner configurations — mixed zero-hop
messages, single-flit worms, enormous B, duplicate paths, staggered
releases landing mid-deadlock — and check the invariants hold.
"""

import numpy as np
import pytest

from repro import Network, lll_schedule, simulate
from repro.network.random_networks import chain_bundle
from repro.routing.paths import paths_from_node_walks
from repro.sim.spec import Workload


def chain(depth, per_chain=1, chains=1):
    net, walks = chain_bundle(chains, depth, per_chain)
    return net, paths_from_node_walks(net, walks)


class TestDegenerateWorkloads:
    def test_mixed_zero_hop_and_long_paths(self):
        net, paths = chain(4, per_chain=2)
        mixed = [[], list(paths[0].edges), [], list(paths[1].edges)]
        res = simulate((net, mixed), message_length=5)
        assert res.all_delivered
        assert res.completion_times[0] == 0
        assert res.completion_times[2] == 0

    def test_all_zero_hop(self):
        net, _ = chain(2)
        res = simulate((net, [[], [], []]), message_length=3)
        assert res.all_delivered
        assert res.makespan == 0

    def test_huge_b_is_harmless(self):
        net, paths = chain(3, per_chain=4)
        res = simulate((net, paths), B=10_000, message_length=4)
        assert res.makespan == 4 + 3 - 1

    def test_identical_duplicate_paths(self):
        """Many copies of the same path — the replication pattern of the
        hard instance — serialize cleanly."""
        net, paths = chain(3)
        dup = [list(paths[0].edges)] * 6
        res = simulate((net, dup), message_length=4)
        assert res.all_delivered
        assert len(set(res.completion_times.tolist())) == 6  # all distinct

    def test_single_flit_storm(self):
        net, paths = chain(5, per_chain=8)
        res = simulate((net, paths), message_length=1)
        assert res.all_delivered
        # L = 1 headers pipeline: near (M + D) steps, far below M * D.
        assert res.makespan <= 8 * 2 + 5 + 2

    def test_release_into_deadlocked_network(self):
        """A message released after a deadlock forms still counts as
        undelivered, and the run reports the deadlock."""
        net = Network()
        a, b, c = net.add_nodes("abc")
        e_ab = net.add_edge(a, b)
        e_ba = net.add_edge(b, a)
        e_bc = net.add_edge(b, c)
        res = simulate(
            Workload(
                net=net, paths=[[e_ab, e_ba], [e_ba, e_ab], [e_bc]], release_times=np.array([0, 0, 50]),
            ),
            message_length=6, priority="index",
        )
        # The third message's edge is free, so it IS delivered; the two
        # cyclic worms stay stuck and the run ends via deadlock or cap.
        assert res.completion_times[2] > 0
        assert not res.delivered[0] and not res.delivered[1]

    def test_extreme_length_ratio(self):
        """L = 1000 on a 2-edge path: makespan exactly L + D - 1."""
        net, paths = chain(2)
        res = simulate((net, paths), message_length=1000)
        assert res.makespan == 1001


class TestSchedulerRobustness:
    def test_schedule_on_workload_with_empty_paths(self, run_schedule):
        net, paths = chain(3, per_chain=3)
        mixed = [list(p.edges) for p in paths] + [[]]
        build = lll_schedule(mixed, message_length=4, B=1)
        res = run_schedule(net, mixed, build, 1)
        assert res.all_delivered

    def test_schedule_single_message(self, run_schedule):
        net, paths = chain(3)
        build = lll_schedule(paths, message_length=4, B=2)
        assert build.num_classes == 1
        res = run_schedule(net, paths, build, 2)
        assert res.makespan == 4 + 3 - 1

    def test_schedule_empty_workload(self, run_schedule):
        net, _ = chain(2)
        build = lll_schedule([], message_length=4, B=1)
        res = run_schedule(net, [], build, 1)
        assert res.num_messages == 0


class TestAllSimulatorsAgreeOnInvariants:
    """Every simulator respects the same basic contracts."""

    @pytest.fixture
    def setup(self):
        net, paths = chain(4, per_chain=3, chains=2)
        return net, paths

    @pytest.mark.parametrize(
        "model, B",
        [("wormhole", 2), ("cut_through", 2), ("restricted", 2), ("store_forward", 1)],
        ids=["wormhole", "cut-through", "restricted", "store-forward"],
    )
    def test_contract(self, setup, model, B):
        net, paths = setup
        L = 5
        res = simulate((net, paths), model=model, B=B, message_length=L)
        assert res.all_delivered
        assert res.makespan >= L + 4 - 1  # physical floor
        assert (res.completion_times[res.delivered] >= 1).all()
        assert (res.blocked_steps >= 0).all()
        assert res.makespan == res.completion_times.max()
