"""Unit tests for the Section 3.2 lower-bound machinery."""

import numpy as np
import pytest

from repro import simulate
from repro.core.butterfly_lower_bound import (
    collides,
    one_pass_workload,
    phase_partition,
    subset_collision_rate,
    truncated_paths,
)
from repro.network.graph import NetworkError
from repro.routing.problems import random_destinations


class TestTruncatedPaths:
    def test_depth_is_min_L_logn(self):
        inst = random_destinations(16, 2, np.random.default_rng(0))
        bf, edges = truncated_paths(16, inst, L=2)
        assert bf.depth == 2
        assert edges.shape == (32, 2)
        bf2, edges2 = truncated_paths(16, inst, L=100)
        assert bf2.depth == 4

    def test_rejects_zero_depth(self):
        inst = random_destinations(16, 1, np.random.default_rng(0))
        with pytest.raises(NetworkError):
            truncated_paths(16, inst, L=0)


class TestCollides:
    def test_no_collision_disjoint(self):
        m = np.array([[0, 1], [2, 3]])
        assert not collides(m, B=1)

    def test_collision_when_b_plus_1_share(self):
        m = np.array([[0, 1], [0, 2], [0, 3]])
        assert collides(m, B=1)
        assert collides(m, B=2)
        assert not collides(m, B=3)

    def test_duplicate_edges_within_row_count_once(self):
        # Message 0 uses edge 0 twice; that is still only one message on
        # the edge, so no B=2 collision (which needs 3 distinct messages).
        m = np.array([[0, 0], [0, 1]])
        assert collides(m, B=1)  # two distinct messages share edge 0
        assert not collides(m, B=2)

    def test_empty(self):
        assert not collides(np.empty((0, 3), dtype=np.int64), B=1)


class TestSubsetCollisionRate:
    def test_rate_bounds(self, rng):
        inst = random_destinations(16, 4, rng)
        _, edges = truncated_paths(16, inst, L=4)
        rate = subset_collision_rate(edges, s=20, B=1, trials=30, rng=rng)
        assert 0.0 <= rate <= 1.0

    def test_large_subsets_collide_more(self, rng):
        inst = random_destinations(32, 4, rng)
        _, edges = truncated_paths(32, inst, L=5)
        small = subset_collision_rate(edges, s=3, B=1, trials=60, rng=np.random.default_rng(0))
        large = subset_collision_rate(edges, s=60, B=1, trials=60, rng=np.random.default_rng(0))
        assert large >= small

    def test_whole_set_must_collide_beyond_capacity(self, rng):
        """nq messages over n log n edges with nq >> B e: full set collides."""
        inst = random_destinations(16, 8, rng)
        _, edges = truncated_paths(16, inst, L=4)
        assert collides(edges, B=1)

    def test_rejects_oversized_subset(self, rng):
        inst = random_destinations(8, 1, rng)
        _, edges = truncated_paths(8, inst, L=3)
        with pytest.raises(NetworkError):
            subset_collision_rate(edges, s=100, B=1, trials=5, rng=rng)


class TestStripDecomposition:
    def test_strips_cover_depth(self):
        from repro.core.butterfly_lower_bound import strip_decomposition
        from repro.network.butterfly import Butterfly

        bf = Butterfly(256, depth=8)
        strips = strip_decomposition(bf)
        assert strips[0][0] == 0
        assert strips[-1][1] == 8
        for (a, b), (c, d) in zip(strips[:-1], strips[1:]):
            assert b == c
            assert b > a

    def test_strip_widths_are_log_m(self):
        from repro.core.butterfly_lower_bound import strip_decomposition
        from repro.network.butterfly import Butterfly

        bf = Butterfly(256)  # log n = 8, m = log n -> log m = 3
        strips = strip_decomposition(bf)
        widths = [b - a for a, b in strips]
        assert widths[0] == 3
        assert sum(widths) == 8

    def test_collision_counts_grow_with_load(self, rng):
        from repro.core.butterfly_lower_bound import strip_collision_counts

        light = random_destinations(64, 1, np.random.default_rng(0))
        heavy = random_destinations(64, 8, np.random.default_rng(0))
        bf_l, e_l = truncated_paths(64, light, L=6)
        bf_h, e_h = truncated_paths(64, heavy, L=6)
        light_counts = strip_collision_counts(bf_l, e_l, B=1)
        heavy_counts = strip_collision_counts(bf_h, e_h, B=1)
        assert sum(heavy_counts) > sum(light_counts)

    def test_no_collisions_when_disjoint(self):
        from repro.core.butterfly_lower_bound import strip_collision_counts
        from repro.network.butterfly import Butterfly

        bf = Butterfly(16)
        idx = np.arange(16, dtype=np.int64)
        edges = bf.path_edges_batch(idx, idx)  # straight-through, disjoint
        assert strip_collision_counts(bf, edges, B=1) == [0, 0]


class TestPhasePartition:
    def test_buckets(self):
        t = np.array([3, 3 + 7, 3 + 14, -1])
        phases = phase_partition(t, l=3, L=7)
        assert list(phases) == [0, 1, 2, -1]

    def test_early_arrivals_clamped(self):
        phases = phase_partition(np.array([1]), l=5, L=4)
        assert phases[0] == 0


class TestOnePassRoute:
    def test_runs_and_delivers(self):
        inst = random_destinations(16, 2, np.random.default_rng(1))
        wl = one_pass_workload(16, inst, 6)
        assert simulate(wl, B=1, seed=0).all_delivered
        assert wl.info["l"] == wl.net.depth == 4
        assert wl.default_length == 6 and len(wl.paths) == inst.num_messages

    def test_measured_time_exceeds_serial_floor(self):
        """Random destinations at q = 4 congest heavily; the one-pass
        time must exceed the unobstructed L + l - 1."""
        inst = random_destinations(16, 4, np.random.default_rng(2))
        wl = one_pass_workload(16, inst, 6)
        assert simulate(wl, B=1, seed=0).makespan > 6 + wl.info["l"] - 1

    def test_more_channels_faster(self):
        wl = one_pass_workload(32, random_destinations(32, 4, np.random.default_rng(3)), 8)
        t1 = simulate(wl, B=1, seed=0).makespan
        t3 = simulate(wl, B=3, seed=0).makespan
        assert t3 < t1
