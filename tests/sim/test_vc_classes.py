"""Tests for virtual-channel *class* assignments (Dally-Seitz proper).

The paper's Section 1.1 model treats an edge's B buffer slots as
interchangeable; Dally and Seitz's deadlock solution additionally
*restricts* which virtual channel a worm may use per hop so the virtual
channel dependency graph is acyclic.  These tests exercise the
``vc_ids`` mode of the wormhole simulator and reproduce the classic
result: interchangeable slots can still deadlock on a ring, class
restrictions (dateline) cannot.
"""

import pytest

from repro import simulate
from repro.network.graph import Network, NetworkError
from repro.sim.spec import Workload


def ring(k):
    net = Network()
    nodes = net.add_nodes(range(k))
    edges = [net.add_edge(nodes[i], nodes[(i + 1) % k]) for i in range(k)]
    return net, edges


def around_the_ring_paths(edges, k):
    """One worm starting at each node, traveling all the way around."""
    return [[edges[(s + j) % k] for j in range(k)] for s in range(k)]


def dateline_vcs(paths, k):
    """VC 0 until the worm crosses edge k-1 (the dateline), then VC 1."""
    out = []
    for path in paths:
        vcs = []
        crossed = False
        for e in path:
            vcs.append(1 if crossed else 0)
            if e == k - 1:  # edge ids equal their ring position here
                crossed = True
        out.append(vcs)
    return out


class TestValidation:
    def test_vc_ids_length_mismatch(self):
        net, edges = ring(4)
        with pytest.raises(NetworkError, match="match"):
            simulate(
                Workload(net=net, paths=[[edges[0], edges[1]]], vc_ids=[[0]]),
                B=2, message_length=3,
            )

    def test_vc_ids_out_of_range(self):
        net, edges = ring(4)
        with pytest.raises(NetworkError, match="vc ids"):
            simulate(
                Workload(net=net, paths=[[edges[0]]], vc_ids=[[2]]),
                B=2, message_length=3,
            )


class TestBasicSemantics:
    def test_single_worm_unaffected(self):
        net, edges = ring(5)
        res = simulate(
            Workload(
                net=net, paths=[[edges[0], edges[1], edges[2]]], vc_ids=[[0, 0, 1]],
            ),
            B=2, message_length=4,
        )
        assert res.makespan == 4 + 3 - 1

    def test_same_class_serializes_different_classes_share(self):
        """Two worms over one edge: same class -> serialize; different
        classes -> both proceed (the classes are the B slots)."""
        net, edges = ring(3)
        same = simulate(
            Workload(net=net, paths=[[edges[0]], [edges[0]]], vc_ids=[[0], [0]]),
            B=2, message_length=5, priority="index",
        )
        assert same.completion_times[1] > same.completion_times[0]
        diff = simulate(
            Workload(net=net, paths=[[edges[0]], [edges[0]]], vc_ids=[[0], [1]]),
            B=2, message_length=5, priority="index",
        )
        assert diff.completion_times[0] == diff.completion_times[1] == 5

    def test_class_capacity_is_one(self):
        """Three worms on one edge with classes {0,0,1}: the two class-0
        worms serialize even though B = 2 has a free... no — exactly one
        slot per class."""
        net, edges = ring(3)
        res = simulate(
            Workload(
                net=net,
                paths=[[edges[0]], [edges[0]], [edges[0]]],
                vc_ids=[[0], [0], [1]],
            ),
            B=2, message_length=4, priority="index",
        )
        assert res.all_delivered
        times = sorted(res.completion_times.tolist())
        # Two classes proceed together; the second class-0 worm waits the
        # full L (a final edge's slot frees at completion).
        assert times == [4, 4, 8]


class TestDallySeitzRing:
    def test_interchangeable_slots_deadlock_on_ring(self):
        """k worms around a k-ring fill every slot of every edge when
        B divides the per-edge load; all heads block: deadlock even at
        B = 2."""
        k = 4
        net, edges = ring(k)
        paths = around_the_ring_paths(edges, k) * 2  # 2 worms per start
        res = simulate((net, paths), B=2, message_length=6, priority="index")
        assert res.deadlocked

    def test_dateline_classes_break_the_cycle(self):
        """The same workload with dateline VC classes delivers fully —
        the Dally-Seitz construction, reproduced at flit level."""
        k = 4
        net, edges = ring(k)
        paths = around_the_ring_paths(edges, k) * 2
        vcs = dateline_vcs(paths, k)
        res = simulate(
            Workload(net=net, paths=paths, vc_ids=vcs),
            B=2, message_length=6, priority="index",
        )
        assert not res.deadlocked
        assert res.all_delivered

    def test_dateline_works_across_seeds(self):
        k = 4
        net, edges = ring(k)
        paths = around_the_ring_paths(edges, k) * 2
        vcs = dateline_vcs(paths, k)
        for seed in range(8):
            res = simulate(
                Workload(net=net, paths=paths, vc_ids=vcs),
                B=2, message_length=5, seed=seed,
            )
            assert res.all_delivered
