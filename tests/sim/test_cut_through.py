"""Unit tests for the virtual cut-through baseline (Section 1.4)."""

import numpy as np
import pytest

from repro import simulate
from repro.network.graph import Network, NetworkError
from repro.network.random_networks import chain_bundle
from repro.routing.paths import paths_from_node_walks


def chain_paths(chains, depth, per_chain):
    net, walks = chain_bundle(chains, depth, per_chain)
    return net, paths_from_node_walks(net, walks)


class TestBasics:
    def test_unobstructed_latency_matches_wormhole(self):
        """With no contention, cut-through = wormhole = L + D - 1."""
        net, paths = chain_paths(1, 5, 1)
        for buf in (1, 2, 4):
            res = simulate((net, paths), model="cut_through", B=buf, message_length=6)
            assert res.makespan == 6 + 5 - 1
            assert res.total_blocked_steps == 0

    def test_single_hop(self):
        net, paths = chain_paths(1, 1, 1)
        res = simulate((net, paths), model="cut_through", message_length=4)
        assert res.makespan == 4

    def test_zero_length_path(self):
        net, _ = chain_paths(1, 2, 1)
        res = simulate((net, [[]]), model="cut_through", message_length=3)
        assert res.completion_times[0] == 0

    def test_empty(self):
        net, _ = chain_paths(1, 2, 1)
        res = simulate((net, []), model="cut_through", message_length=3)
        assert res.num_messages == 0

    def test_validation(self):
        net, paths = chain_paths(1, 2, 1)
        with pytest.raises(NetworkError):
            simulate((net, paths), model="cut_through", B=0, message_length=2)
        with pytest.raises(NetworkError):
            simulate(
                (net, paths), model="cut_through", message_length=2,
                priority="bogus",
            )
        with pytest.raises(NetworkError):
            simulate((net, paths), model="cut_through", message_length=0)
        with pytest.raises(NetworkError):
            simulate((net, [[0, 0]]), model="cut_through", message_length=2)


class TestCompression:
    def test_blocked_worm_compresses_into_buffers(self):
        """Section 1.4: a cut-through worm behaves like a shorter worm.

        Two worms share a chain; the second can start streaming into the
        chain's buffers before the first clears, so bigger buffers lower
        the makespan relative to the 1-flit (wormhole-like) case.
        """
        net, paths = chain_paths(1, 6, 2)
        L = 8
        t1 = simulate(
            (net, paths), model="cut_through", message_length=L, priority="index",
        ).makespan
        t4 = simulate(
            (net, paths), model="cut_through", B=4, message_length=L,
            priority="index",
        ).makespan
        assert t4 <= t1

    def test_buffer_one_matches_wormhole_serialization(self):
        """At buffer_flits = 1 and exclusive edges, ownership transfers
        edge by edge — the second worm still waits about L per conflict."""
        net, paths = chain_paths(1, 3, 2)
        L = 5
        res = simulate(
            (net, paths), model="cut_through", message_length=L, priority="index",
        )
        assert res.all_delivered
        assert res.completion_times[0] == L + 3 - 1
        assert res.completion_times[1] > res.completion_times[0]

    def test_speedup_roughly_linear_in_buffer(self):
        """The paper: VCT with B-flit buffers ~ wormhole with length L/B.

        On a heavily shared chain the makespan should shrink as buffers
        grow, but by at most a linear factor.
        """
        net, paths = chain_paths(1, 4, 4)
        L = 12
        times = {}
        for buf in (1, 2, 4):
            times[buf] = simulate(
                (net, paths), model="cut_through", B=buf, message_length=L,
                priority="index",
            ).makespan
        assert times[4] <= times[2] <= times[1]
        # Never better than the contention-free floor.
        assert times[4] >= L + 4 - 1


class TestDeadlockAndCaps:
    def test_cycle_deadlocks(self):
        net = Network()
        a, b = net.add_nodes("ab")
        e_ab = net.add_edge(a, b)
        e_ba = net.add_edge(b, a)
        res = simulate(
            (net, [[e_ab, e_ba], [e_ba, e_ab]]), model="cut_through",
            message_length=6, priority="index",
        )
        assert res.deadlocked

    def test_step_cap(self):
        net, paths = chain_paths(1, 3, 3)
        res = simulate(
            (net, paths), model="cut_through", message_length=8, max_steps=4,
        )
        assert res.hit_step_cap

    def test_reproducible(self):
        net, paths = chain_paths(1, 4, 3)
        a = simulate((net, paths), model="cut_through", message_length=5, seed=9)
        b = simulate((net, paths), model="cut_through", message_length=5, seed=9)
        assert np.array_equal(a.completion_times, b.completion_times)
