"""Unit tests for the restricted (buffering-only) model of Section 1.4."""

import numpy as np
import pytest

from repro import simulate
from repro.network.graph import Network, NetworkError
from repro.network.random_networks import chain_bundle
from repro.routing.paths import paths_from_node_walks
from repro.sim.spec import Workload


def chain_paths(chains, depth, per_chain):
    net, walks = chain_bundle(chains, depth, per_chain)
    return net, paths_from_node_walks(net, walks)


class TestBasics:
    def test_single_worm_unobstructed(self):
        """With one flit per edge per step and no contention, a lone worm
        still pipelines: L + D - 1 steps."""
        net, paths = chain_paths(1, 5, 1)
        res = simulate((net, paths), model="restricted", message_length=6)
        assert res.makespan == 6 + 5 - 1
        assert res.total_blocked_steps == 0

    def test_single_hop(self):
        net, paths = chain_paths(1, 1, 1)
        res = simulate((net, paths), model="restricted", B=2, message_length=4)
        assert res.makespan == 4

    def test_zero_length_path(self):
        net, _ = chain_paths(1, 2, 1)
        res = simulate((net, [[]]), model="restricted", message_length=3)
        assert res.completion_times[0] == 0

    def test_empty(self):
        net, _ = chain_paths(1, 2, 1)
        res = simulate((net, []), model="restricted", message_length=3)
        assert res.num_messages == 0

    def test_validation(self):
        net, paths = chain_paths(1, 2, 1)
        with pytest.raises(NetworkError):
            simulate((net, paths), model="restricted", B=0, message_length=2)
        with pytest.raises(NetworkError):
            simulate((net, paths), model="restricted", message_length=0)
        with pytest.raises(NetworkError):
            simulate((net, [[0, 0]]), model="restricted", message_length=2)


class TestBandwidthSharing:
    def test_two_worms_share_one_link(self):
        """B = 2 admits both worms, but the shared link still forwards
        one flit per step: total time about 2 L for one edge."""
        net, paths = chain_paths(1, 1, 2)
        L = 6
        res = simulate((net, paths), model="restricted", B=2, message_length=L)
        assert res.all_delivered
        assert res.makespan == 2 * L  # 12 flits through a 1-flit/step link

    def test_matches_full_model_at_light_load(self):
        """A single worm sees no difference between the models."""
        net, paths = chain_paths(2, 4, 1)
        L = 5
        full = simulate((net, paths), B=2, message_length=L).makespan
        restricted = simulate(
            (net, paths), model="restricted", B=2, message_length=L
        ).makespan
        assert full == restricted == L + 4 - 1

    def test_full_model_at_most_b_faster(self):
        """Remarks: the restricted model emulates the full model with
        slowdown <= B (and is never faster)."""
        net, paths = chain_paths(1, 4, 4)
        L = 6
        for B in (2, 3):
            full = simulate((net, paths), B=B, message_length=L).makespan
            restricted = simulate(
                (net, paths), model="restricted", B=B, message_length=L,
            ).makespan
            assert restricted >= full
            assert restricted <= 2 * B * full  # generous constant

    def test_buffering_alone_still_helps(self):
        """More buffers reduce makespan even at fixed bandwidth."""
        net, paths = chain_paths(1, 6, 6)
        L = 4
        t1 = simulate((net, paths), model="restricted", message_length=L).makespan
        t3 = simulate((net, paths), model="restricted", B=3, message_length=L).makespan
        assert t3 <= t1


class TestSemantics:
    def test_slot_limit_respected(self):
        """Only B worms ever enter a shared edge concurrently: with B = 1
        worms serialize fully on a single edge."""
        net, paths = chain_paths(1, 1, 3)
        L = 4
        res = simulate((net, paths), model="restricted", message_length=L)
        # Messages finish at L, 2L, 3L (no interleaving possible).
        assert sorted(res.completion_times) == [L, 2 * L, 3 * L]

    def test_deadlock_detected(self):
        net = Network()
        a, b = net.add_nodes("ab")
        e_ab = net.add_edge(a, b)
        e_ba = net.add_edge(b, a)
        res = simulate(
            (net, [[e_ab, e_ba], [e_ba, e_ab]]), model="restricted",
            message_length=5,
        )
        assert res.deadlocked

    def test_step_cap(self):
        net, paths = chain_paths(1, 3, 3)
        res = simulate(
            (net, paths), model="restricted", message_length=8, max_steps=4,
        )
        assert res.hit_step_cap

    def test_release_times(self):
        net, paths = chain_paths(1, 3, 1)
        res = simulate(
            Workload(net=net, paths=paths, release_times=np.array([5])),
            model="restricted", message_length=2,
        )
        assert res.completion_times[0] == 5 + 2 + 3 - 1

    def test_reproducible(self):
        net, paths = chain_paths(1, 4, 4)
        a = simulate((net, paths), model="restricted", B=2, message_length=4, seed=3)
        b = simulate((net, paths), model="restricted", B=2, message_length=4, seed=3)
        assert np.array_equal(a.completion_times, b.completion_times)
