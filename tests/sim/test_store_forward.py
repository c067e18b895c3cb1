"""Unit tests for the store-and-forward baseline (Section 1)."""

import numpy as np
import pytest

from repro import simulate
from repro.network.graph import NetworkError
from repro.network.random_networks import chain_bundle
from repro.routing.paths import paths_from_node_walks
from repro.sim.batch import run_store_forward_batch
from repro.sim.spec import Workload


def chain_paths(chains, depth, per_chain):
    net, walks = chain_bundle(chains, depth, per_chain)
    return net, paths_from_node_walks(net, walks)


class TestBasics:
    def test_single_message_takes_LD_flit_steps(self):
        """Section 1: store-and-forward needs D message steps = L*D."""
        net, paths = chain_paths(1, 4, 1)
        res = simulate((net, paths), model="store_forward", message_length=5)
        assert res.makespan == 5 * 4
        assert res.total_blocked_steps == 0

    def test_wormhole_beats_store_forward_unobstructed(self):
        """The paper's headline latency contrast: L+D-1 vs L*D."""

        net, paths = chain_paths(1, 6, 1)
        L = 8
        sf = simulate((net, paths), model="store_forward", message_length=L).makespan
        wh = simulate((net, paths), message_length=L).makespan
        assert wh == L + 6 - 1
        assert sf == L * 6
        assert wh < sf

    def test_bandwidth_scales_hop_time(self):
        net, paths = chain_paths(1, 3, 1)
        res = simulate((net, paths), model="store_forward", B=4, message_length=8)
        assert res.makespan == (8 // 4) * 3

    def test_ceil_hop_time(self):
        net, paths = chain_paths(1, 3, 1)
        res = simulate((net, paths), model="store_forward", B=3, message_length=7)
        assert res.makespan == 3 * 3  # ceil(7/3) = 3 flit steps per hop

    def test_zero_length_path(self):
        net, _ = chain_paths(1, 2, 1)
        res = simulate((net, [[]]), model="store_forward", message_length=4)
        assert res.completion_times[0] == 0

    def test_empty(self):
        net, _ = chain_paths(1, 2, 1)
        res = simulate((net, []), model="store_forward", message_length=4)
        assert res.num_messages == 0


class TestContention:
    def test_shared_chain_serializes_per_edge(self):
        """k messages over one chain: edge 0 forwards one per step."""
        net, paths = chain_paths(1, 4, 3)
        res = simulate(
            (net, paths), model="store_forward", message_length=2, priority="age",
        )
        assert res.all_delivered
        # Pipelined: last message starts hop 1 at step 3, finishes at 6.
        assert res.makespan == 2 * (4 + 3 - 1)

    def test_close_to_c_plus_d(self):
        """Greedy store-and-forward achieves about (C + D) message steps
        on chains — the [27] optimal shape."""
        net, paths = chain_paths(2, 8, 6)
        res = simulate(
            (net, paths), model="store_forward", message_length=1,
            priority="farthest",
        )
        C, D = 6, 8
        assert res.makespan <= 2 * (C + D)

    def test_max_queue_reported(self):
        net, paths = chain_paths(1, 3, 5)
        res = simulate((net, paths), model="store_forward", message_length=1)
        assert res.extra["max_queue"] == 5


class TestOptions:
    def test_priority_validation(self):
        net, paths = chain_paths(1, 2, 1)
        with pytest.raises(NetworkError):
            simulate(
                (net, paths), model="store_forward", message_length=2,
                priority="bogus",
            )
        with pytest.raises(NetworkError):
            simulate((net, paths), model="store_forward", B=0, message_length=2)

    def test_bad_L(self):
        net, paths = chain_paths(1, 2, 1)
        with pytest.raises(NetworkError):
            simulate((net, paths), model="store_forward", message_length=0)

    def test_random_delay_spreads_starts(self):
        net, paths = chain_paths(1, 4, 4)
        # Injection delays are a store-and-forward driver option.
        (res,) = run_store_forward_batch(net, paths, 1, seeds=[3], delay_range=8)
        assert res.all_delivered

    def test_release_times_rounded_to_message_steps(self):
        net, paths = chain_paths(1, 2, 1)
        res = simulate(
            Workload(net=net, paths=paths, release_times=np.array([5])),
            model="store_forward", message_length=4,
        )
        # Release 5 flit steps -> message step 2 -> starts at step 2.
        assert res.completion_times[0] == (2 + 2) * 4

    def test_reproducible(self):
        net, paths = chain_paths(1, 4, 5)
        a = simulate(
            (net, paths), model="store_forward", message_length=2,
            priority="random", seed=7,
        )
        b = simulate(
            (net, paths), model="store_forward", message_length=2,
            priority="random", seed=7,
        )
        assert np.array_equal(a.completion_times, b.completion_times)


def _three_way_contention():
    """Three messages that first meet at edge ``a0`` in the same message
    step, each with a different age and distance left (MODEL.md §6).

    ``x`` runs ``p0 p1 a0`` from release 0, ``y`` runs ``q0 a0 y1`` from
    release 1 and ``z`` runs ``a0 z1 z2`` from release 2 (message
    steps); a message released at ``r`` makes its first hop at ``r + 1``,
    so all three want ``a0`` at step 3, with 1, 2 and 3 hops left.
    """
    from repro.network.graph import Network

    net = Network(name="three-way")
    net.add_nodes(range(8))
    edge = {
        name: net.add_edge(u, v)
        for name, (u, v) in {
            "p0": (0, 1), "p1": (1, 2), "q0": (3, 2), "a0": (2, 4),
            "y1": (4, 5), "z1": (4, 6), "z2": (6, 7),
        }.items()
    }
    paths = [
        [edge[e] for e in route]
        for route in (("p0", "p1", "a0"), ("q0", "a0", "y1"), ("a0", "z1", "z2"))
    ]
    return net, paths


class TestOptionsPinnedByHand:
    """Each arbitration option on :func:`_three_way_contention` at
    ``L = 4``, ``B = 2``: one message step is ``ceil(4 / 2) = 2`` flit
    steps, and releases of 0, 2 and 4 flit steps are message steps 0, 1
    and 2.  ``a0`` forwards one message a step from step 3; a message
    served at ``3 + k`` with ``r`` hops left finishes at ``3 + k + r - 1``.
    """

    def run(self, priority, seed=0):
        net, paths = _three_way_contention()
        return simulate(
            Workload(net=net, paths=paths, release_times=[0, 2, 4]),
            model="store_forward", B=2, message_length=4, priority=priority, seed=seed,
        )

    def test_farthest_serves_the_most_hops_left_first(self):
        # z, y, x: all three finish at message step 5.
        res = self.run("farthest")
        assert res.completion_times.tolist() == [10, 10, 10]
        assert res.makespan == 10

    def test_age_serves_the_earliest_release_first(self):
        # x, y, z: x at 3, y at 5, z at 7.
        res = self.run("age")
        assert res.completion_times.tolist() == [6, 10, 14]
        assert res.makespan == 14

    def test_random_draws_an_order_each_step(self):
        # Seed 1 draws y, z, x: y at 4, x at 5, z at 6 — neither the
        # farthest nor the age order, so a makespan of neither.
        res = self.run("random", seed=1)
        assert res.completion_times.tolist() == [10, 8, 12]
        assert res.makespan == 12
        # Every order a0 can serve ends at message step 5, 6 or 7.
        seen = {self.run("random", seed=s).makespan for s in range(8)}
        assert seen <= {10, 12, 14} and len(seen) >= 2
