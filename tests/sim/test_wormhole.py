"""Unit tests for the flit-level wormhole simulator (Section 1.1 model)."""

import numpy as np
import pytest

from repro import simulate
from repro.network.graph import Network, NetworkError
from repro.network.random_networks import chain_bundle
from repro.routing.paths import paths_from_node_walks
from repro.sim.engine import pad_paths
from repro.sim.spec import Workload
from repro.telemetry import EdgeContentionCollector


def line(n):
    net = Network()
    nodes = net.add_nodes(range(n))
    for u, v in zip(nodes[:-1], nodes[1:]):
        net.add_edge(u, v)
    return net


class TestPadPaths:
    def test_ragged(self):
        padded, lengths = pad_paths([[0, 1, 2], [5]])
        assert padded.shape == (2, 3)
        assert list(lengths) == [3, 1]
        assert padded[1, 1] == -1

    def test_empty(self):
        padded, lengths = pad_paths([])
        assert padded.shape == (0, 0)


class TestSingleWorm:
    def test_unobstructed_latency(self):
        """A never-delayed worm takes exactly D + L - 1 flit steps (Sec. 1)."""
        net = line(6)
        for L in (1, 3, 8):
            res = simulate((net, [[0, 1, 2, 3, 4]]), message_length=L)
            assert res.makespan == 5 + L - 1
            assert res.total_blocked_steps == 0

    def test_release_time_shifts_completion(self):
        net = line(4)
        res = simulate(
            Workload(net=net, paths=[[0, 1, 2]], release_times=np.array([10])),
            message_length=2,
        )
        assert res.completion_times[0] == 10 + 3 + 2 - 1

    def test_zero_length_path_delivered_at_release(self):
        net = line(2)
        res = simulate(
            Workload(net=net, paths=[[]], release_times=np.array([7])),
            message_length=5,
        )
        assert res.completion_times[0] == 7

    def test_single_flit_message(self):
        """L = 1: pure header, one hop per step."""
        net = line(5)
        res = simulate((net, [[0, 1, 2, 3]]), message_length=1)
        assert res.makespan == 4


class TestValidation:
    def test_rejects_non_edge_simple(self):
        net = line(3)
        with pytest.raises(NetworkError, match="edge-simple"):
            simulate((net, [[0, 0]]), message_length=2)

    def test_rejects_bad_L(self):
        net = line(3)
        with pytest.raises(NetworkError, match="length"):
            simulate((net, [[0]]), message_length=0)

    def test_rejects_bad_B(self):
        with pytest.raises(NetworkError, match="virtual channel"):
            simulate((line(2), [[0]]), B=0, message_length=1)

    def test_rejects_bad_priority(self):
        with pytest.raises(NetworkError, match="priority"):
            simulate((line(2), [[0]]), message_length=1, priority="fifo")

    def test_rejects_negative_release(self):
        with pytest.raises(NetworkError):
            simulate(
                Workload(net=line(3), paths=[[0]], release_times=np.array([-1])),
                message_length=1,
            )

    def test_empty_run(self):
        res = simulate((line(2), []), message_length=3)
        assert res.num_messages == 0 and res.makespan == -1


class TestContention:
    def test_b1_serializes_shared_chain(self):
        """C worms sharing every edge of a chain serialize at B = 1.

        Each worm holds the first edge's buffer for L + 1 steps (its last
        flit vacates the head buffer one step after crossing); makespan is
        close to C * L with pipelining.
        """
        net, walks = chain_bundle(1, 4, 3)
        paths = paths_from_node_walks(net, walks)
        L = 6
        res = simulate((net, paths), message_length=L, seed=1)
        assert res.all_delivered
        # Worm k starts only after the previous worm's tail vacates edge
        # 0's buffer, i.e. L + 1 steps apart.
        assert res.makespan == 2 * (L + 1) + (L + 4 - 1)
        assert res.total_blocked_steps > 0

    def test_b_equals_c_no_blocking(self):
        """With B >= C every worm gets a virtual channel immediately."""
        net, walks = chain_bundle(1, 4, 3)
        paths = paths_from_node_walks(net, walks)
        res = simulate((net, paths), B=3, message_length=6)
        assert res.total_blocked_steps == 0
        assert res.makespan == 6 + 4 - 1

    def test_b2_halves_serialization(self):
        """B = 2 lets two worms share each edge concurrently."""
        net, walks = chain_bundle(1, 4, 4)
        paths = paths_from_node_walks(net, walks)
        L = 6
        t1 = simulate((net, paths), message_length=L).makespan
        t2 = simulate((net, paths), B=2, message_length=L).makespan
        assert t2 == (L + 1) + (L + 4 - 1)  # two batches of two
        assert t1 == 3 * (L + 1) + (L + 4 - 1)  # four serialized starts
        assert t2 < t1

    def test_blocked_steps_counted(self):
        net, walks = chain_bundle(1, 3, 2)
        paths = paths_from_node_walks(net, walks)
        res = simulate((net, paths), message_length=4)
        # The losing worm waits exactly L + 1 steps at injection (the
        # winner's last flit vacates edge 0's buffer a step after
        # crossing it).
        assert res.blocked_steps.max() == 4 + 1
        assert res.blocked_steps.min() == 0


class TestArbitration:
    def test_index_priority_deterministic(self):
        net, walks = chain_bundle(1, 3, 3)
        paths = paths_from_node_walks(net, walks)
        res = simulate((net, paths), message_length=3, priority="index")
        # Message 0 wins first, then 1, then 2.
        assert list(np.argsort(res.completion_times)) == [0, 1, 2]

    def test_age_priority_respects_release(self):
        net, walks = chain_bundle(1, 3, 2)
        paths = paths_from_node_walks(net, walks)
        # Message 1 released earlier -> wins the contention at edge 0.
        res = simulate(
            Workload(net=net, paths=paths, release_times=np.array([2, 0])),
            message_length=3, priority="age",
        )
        assert res.completion_times[1] < res.completion_times[0]

    def test_rank_priority_is_consistent_across_steps(self):
        """Greenberg-Oh [19] style fixed ranks: the same worm wins every
        contention it enters, so completions follow the rank order."""
        net, walks = chain_bundle(1, 3, 4)
        paths = paths_from_node_walks(net, walks)
        res = simulate((net, paths), message_length=3, priority="rank", seed=5)
        assert res.all_delivered
        # All four serialize; completion times are all distinct.
        assert len(set(res.completion_times.tolist())) == 4

    def test_random_priority_reproducible_by_seed(self):
        net, walks = chain_bundle(1, 3, 4)
        paths = paths_from_node_walks(net, walks)
        r1 = simulate((net, paths), message_length=3, seed=42)
        r2 = simulate((net, paths), message_length=3, seed=42)
        assert np.array_equal(r1.completion_times, r2.completion_times)


class TestWormSemantics:
    def test_worm_holds_edge_buffer_for_L_plus_1_steps(self):
        """A second worm can enter edge 0 only once the first worm's last
        flit has vacated edge 0's head buffer — L + 1 steps after the
        first worm started."""
        net = line(3)
        L = 5
        res = simulate((net, [[0, 1], [0, 1]]), message_length=L, priority="index")
        assert res.completion_times[0] == L + 1
        assert res.completion_times[1] == (L + 1) + (L + 1)

    def test_blocked_header_stalls_whole_worm(self):
        """A worm blocked mid-path keeps holding its upstream edges."""
        net = Network()
        a, b, c, d, e = net.add_nodes("abcde")
        e_ab = net.add_edge(a, b)
        e_bc = net.add_edge(b, c)
        e_cd = net.add_edge(c, d)
        # A long blocker occupying edge c->d via its own route.
        e_xc = net.add_edge(e, c)
        blocker = [e_xc, e_cd]
        crosser = [e_ab, e_bc, e_cd]
        L = 6
        res = simulate((net, [blocker, crosser]), message_length=L, priority="index")
        assert res.all_delivered
        # The crosser reaches c->d at step 3 but the blocker holds it
        # until step 2 + L... verify crosser was actually blocked.
        assert res.blocked_steps[1] > 0

    def test_blocked_worm_keeps_buffer_of_stalled_tail_flit(self):
        """Regression: a worm with D > L that blocks mid-path still holds
        the buffer its last flit is parked in.

        Worm A (L=2) crosses edges 0,1,2 then blocks on edge 3 (held by a
        long blocker).  A's tail flit is parked in edge 1's head buffer
        the whole time, so worm B (a single hop over edge 1) must wait for
        A to unblock and drain — it cannot be granted edge 1's only slot
        while A's flit sits there.
        """
        net = Network()
        nodes = net.add_nodes(range(8))
        chain = [net.add_edge(nodes[i], nodes[i + 1]) for i in range(5)]  # 0..4
        e_blk = net.add_edge(nodes[6], nodes[3])  # blocker's way into node 3
        e_b = net.add_edge(nodes[7], nodes[2])  # unused entry, keeps ids tidy
        del e_b
        worm_a = chain  # D = 5, L = 2
        blocker = [e_blk, chain[3]]  # holds edge 3 for its whole length
        worm_b = [chain[1]]  # single hop over edge 1
        res = simulate(
            Workload(
                net=net,
                paths=[blocker, worm_a, worm_b],
                release_times=np.array([0, 0, 4]),
            ),
            message_length=np.array([10, 2, 1]), priority="index",
        )
        assert res.all_delivered
        # Blocker (L=10, D=2) completes at 11 and only then does A resume;
        # A's flit leaves edge 1's buffer at step 12, so B crosses at 13.
        assert res.completion_times[0] == 11
        assert res.completion_times[1] == 14
        assert res.completion_times[2] == 13

    def test_per_message_lengths(self):
        net, walks = chain_bundle(2, 3, 1)
        paths = paths_from_node_walks(net, walks)
        res = simulate((net, paths), message_length=np.array([2, 7]))
        assert res.completion_times[0] == 2 + 3 - 1
        assert res.completion_times[1] == 7 + 3 - 1


class TestDeadlock:
    def test_two_worm_deadlock_detected(self):
        """The classic cycle: two worms each wanting the other's edge.

        Dally-Seitz motivating example (Section 1): worm A holds edge
        u->v and wants v->u's... build a 2-cycle a->b->a with two worms
        starting on opposite edges, each long enough to keep holding its
        first edge when its header blocks.
        """
        net = Network()
        a, b = net.add_nodes("ab")
        e_ab = net.add_edge(a, b)
        e_ba = net.add_edge(b, a)
        res = simulate(
            (net, [[e_ab, e_ba], [e_ba, e_ab]]), message_length=5, priority="index",
        )
        assert res.deadlocked
        assert not res.all_delivered

    def test_virtual_channels_break_deadlock(self):
        """The same configuration with B = 2 routes fine."""
        net = Network()
        a, b = net.add_nodes("ab")
        e_ab = net.add_edge(a, b)
        e_ba = net.add_edge(b, a)
        res = simulate(
            (net, [[e_ab, e_ba], [e_ba, e_ab]]), B=2, message_length=5,
            priority="index",
        )
        assert res.all_delivered
        assert not res.deadlocked

    def test_step_cap(self):
        net, walks = chain_bundle(1, 3, 3)
        paths = paths_from_node_walks(net, walks)
        res = simulate((net, paths), message_length=10, max_steps=5)
        assert res.hit_step_cap
        assert not res.all_delivered


class TestContentionMap:
    def test_contention_localizes_to_shared_edges(self):
        """Denied requests pile up on the chain entrance, nowhere else."""
        net, walks = chain_bundle(2, 3, 3)
        paths = paths_from_node_walks(net, walks)
        collector = EdgeContentionCollector()
        res = simulate((net, paths), message_length=4, telemetry=[collector])
        contention = collector.denied
        assert contention.shape == (net.num_edges,)
        # All denials happen at the two chains' first edges (injection).
        first_edges = {paths[0].edges[0], paths[3].edges[0]}
        hot = set(np.flatnonzero(contention).tolist())
        assert hot <= first_edges
        assert contention.sum() == res.total_blocked_steps

    def test_absent_by_default(self):
        net, walks = chain_bundle(1, 2, 1)
        paths = paths_from_node_walks(net, walks)
        res = simulate((net, paths), message_length=2)
        assert "edge_contention" not in res.extra


class TestLatencies:
    def test_latency_accessor(self):
        net = line(4)
        release = np.array([0, 5])
        res = simulate(
            Workload(net=net, paths=[[0, 1], [2]], release_times=release),
            message_length=3,
        )
        lat = res.latencies(release)
        assert list(lat) == [3 + 2 - 1, 3 + 1 - 1]
