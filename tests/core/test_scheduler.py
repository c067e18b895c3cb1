"""Unit tests for the Theorem 2.1.6 scheduler and the footnote-5 baseline."""

import numpy as np
import pytest

from repro.core import bounds
from repro.core.scheduler import (
    greedy_conflict_coloring,
    lll_schedule,
    naive_coloring_schedule,
)
from repro.network.random_networks import chain_bundle, layered_network, random_walk_paths
from repro.routing.paths import congestion, dilation, paths_from_node_walks


class TestGreedyConflictColoring:
    def test_conflicting_worms_get_distinct_colors(self):
        net, walks = chain_bundle(1, 3, 4)
        paths = paths_from_node_walks(net, walks)
        colors = greedy_conflict_coloring(paths)
        assert len(set(colors)) == 4  # all share every edge

    def test_disjoint_worms_share_colors(self):
        net, walks = chain_bundle(4, 3, 1)
        paths = paths_from_node_walks(net, walks)
        colors = greedy_conflict_coloring(paths)
        assert set(colors) == {0}

    def test_color_count_within_footnote5_bound(self, layered_workload):
        net, paths = layered_workload
        colors = greedy_conflict_coloring(paths)
        C, D = congestion(paths), dilation(paths)
        assert colors.max() + 1 <= D * (C - 1) + 1


class TestNaiveSchedule:
    def test_executes_validly_at_b1(self, layered_workload, run_schedule):
        net, paths = layered_workload
        build = naive_coloring_schedule(paths, message_length=8)
        res = run_schedule(net, paths, build, 1)
        assert res.all_delivered
        assert res.total_blocked_steps == 0

    def test_length_within_footnote5_bound(self, layered_workload):
        net, paths = layered_workload
        build = naive_coloring_schedule(paths, message_length=8)
        C, D = build.congestion, build.dilation
        assert build.length_bound <= (8 + D) * (D * (C - 1) + 1)


class TestLllSchedule:
    @pytest.mark.parametrize("B", [1, 2, 3])
    def test_schedule_validates_on_simulator(self, B, layered_workload, run_schedule):
        net, paths = layered_workload
        build = lll_schedule(paths, message_length=8, B=B, mode="direct")
        res = run_schedule(net, paths, build, B)
        assert res.all_delivered
        assert res.total_blocked_steps == 0
        assert res.makespan <= build.length_bound

    def test_trivial_when_c_below_b(self):
        net, walks = chain_bundle(3, 4, 2)
        paths = paths_from_node_walks(net, walks)
        build = lll_schedule(paths, message_length=5, B=2)
        assert build.num_classes == 1
        assert build.length_bound == 5 + 4 - 1

    def test_more_channels_shorter_schedules(self, rng):
        """The paper's point: B shrinks the schedule superlinearly."""
        net = layered_network(10, 8, 3, rng)
        walks = random_walk_paths(net, 10, 8, 120, rng)
        paths = paths_from_node_walks(net, walks)
        lengths = {}
        for B in (1, 2, 4):
            build = lll_schedule(
                paths, message_length=16, B=B,
                rng=np.random.default_rng(0), mode="direct",
            )
            lengths[B] = build.length_bound
        assert lengths[1] > lengths[2] > lengths[4]

    def test_class_count_within_theorem_bound(self, rng):
        """kappa <= O(C (D log D)^(1/B) / B) with a generous constant."""
        net = layered_network(10, 8, 3, rng)
        walks = random_walk_paths(net, 10, 8, 100, rng)
        paths = paths_from_node_walks(net, walks)
        C, D = congestion(paths), dilation(paths)
        for B in (1, 2):
            build = lll_schedule(
                paths, message_length=8, B=B,
                rng=np.random.default_rng(1), mode="direct",
            )
            assert build.num_classes <= 8 * bounds.color_classes_bound(C, D, B)

    def test_theory_mode_also_validates(self, run_schedule):
        net, walks = chain_bundle(1, 4, 3)
        paths = paths_from_node_walks(net, walks)
        build = lll_schedule(
            paths, message_length=5, B=1,
            rng=np.random.default_rng(2), mode="theory",
        )
        res = run_schedule(net, paths, build, 1)
        assert res.all_delivered and res.total_blocked_steps == 0

    def test_provenance_fields(self, layered_workload):
        net, paths = layered_workload
        build = lll_schedule(paths, message_length=8, B=1, mode="direct")
        assert build.congestion == congestion(paths)
        assert build.dilation == dilation(paths)
        assert build.trace is not None
        assert np.array_equal(build.colors, build.trace.colors)
        assert build.num_classes == len(np.unique(build.colors))  # dense ids

    def test_raw_edge_lists_accepted(self):
        build = lll_schedule([[0, 1], [0, 1], [2, 3]], message_length=4, B=1)
        assert build.congestion == 2
        assert build.num_classes == 2


class TestGreedyColoringVectorization:
    """The vectorized coloring must equal the set-based formulation."""

    @staticmethod
    def _reference(paths):
        from collections import defaultdict

        from repro.core.coloring import MessageEdgeIncidence

        inc = MessageEdgeIncidence.from_paths(paths)
        M = inc.num_messages
        by_edge = defaultdict(list)
        for m, e in zip(inc.message_ids, inc.edge_ids):
            by_edge[int(e)].append(int(m))
        neighbors = [set() for _ in range(M)]
        for msgs in by_edge.values():
            for i, a in enumerate(msgs):
                for b in msgs[i + 1 :]:
                    neighbors[a].add(b)
                    neighbors[b].add(a)
        colors = np.full(M, -1, dtype=np.int64)
        for m in sorted(range(M), key=lambda m: -len(neighbors[m])):
            used = {int(colors[v]) for v in neighbors[m] if colors[v] >= 0}
            c = 0
            while c in used:
                c += 1
            colors[m] = c
        return colors

    def test_matches_reference_on_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            M = int(rng.integers(0, 20))
            paths = [
                list(rng.choice(10, size=int(rng.integers(0, 6)), replace=False))
                for _ in range(M)
            ]
            got = greedy_conflict_coloring(paths)
            want = self._reference(paths)
            assert np.array_equal(got, want), paths

    def test_matches_reference_on_layered_workload(self, layered_workload):
        _, paths = layered_workload
        assert np.array_equal(
            greedy_conflict_coloring(paths), self._reference(paths)
        )

    def test_degenerate_shapes(self):
        assert greedy_conflict_coloring([]).tolist() == []
        assert greedy_conflict_coloring([[]]).tolist() == [0]
        assert greedy_conflict_coloring([[0], [0], [0]]).tolist() == [0, 1, 2]
