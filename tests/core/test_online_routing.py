"""Unit tests for the online random-delay protocol ([13] contrast)."""

import numpy as np
import pytest

from repro.core.online_routing import online_window, route_online_random_delays
from repro.network.graph import NetworkError
from repro.network.random_networks import chain_bundle, layered_network, random_walk_paths
from repro.routing.paths import congestion, dilation, paths_from_node_walks


class TestWindow:
    def test_shape(self):
        assert online_window(C=16, D=16, B=1) == 256
        assert online_window(C=16, D=16, B=2) == 32
        assert online_window(C=16, D=16, B=4) == 8

    def test_monotone_decreasing_in_b(self):
        vals = [online_window(20, 32, B) for B in (1, 2, 3, 4)]
        assert vals == sorted(vals, reverse=True)

    def test_validation(self):
        with pytest.raises(ValueError):
            online_window(0, 1, 1)
        with pytest.raises(ValueError):
            online_window(1, 1, 1, alpha=0)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf"), -1.0])
    def test_a_bad_alpha_is_a_network_error(self, alpha):
        with pytest.raises(NetworkError):
            online_window(3, 4, 1, alpha=alpha)


class TestProtocol:
    @pytest.fixture
    def workload(self, rng):
        net = layered_network(8, 8, 2, rng)
        walks = random_walk_paths(net, 8, 8, 90, rng)
        return net, paths_from_node_walks(net, walks)

    def test_delivers_everything(self, workload):
        net, paths = workload
        res = route_online_random_delays(net, paths, message_length=6, B=2)
        assert res.all_delivered

    def test_within_window_plus_routing_bound(self, workload):
        net, paths = workload
        L = 6
        C, D = congestion(paths), dilation(paths)
        for B in (1, 2):
            res = route_online_random_delays(net, paths, L, B=B, seed=0)
            W = online_window(C, D, B)
            # Start delay <= W*L; then routing finishes in O(LCD) worst case.
            assert res.makespan <= W * L + L * C * D

    def test_explicit_window(self, workload):
        net, paths = workload
        res = route_online_random_delays(
            net, paths, message_length=4, window=1, seed=0
        )
        # Window 1 means no delays at all: equals greedy injection.
        from repro import simulate

        greedy = simulate((net, paths), message_length=4)
        assert res.makespan == greedy.makespan

    def test_smoothing_reduces_blocking(self):
        net, walks = chain_bundle(2, 6, 10)
        paths = paths_from_node_walks(net, walks)
        plain = route_online_random_delays(
            net, paths, 6, window=1, seed=0
        )
        smoothed = route_online_random_delays(
            net, paths, 6, alpha=1.0, rng=np.random.default_rng(3), seed=0
        )
        assert smoothed.total_blocked_steps < plain.total_blocked_steps

    def test_raw_edge_lists(self):
        net, walks = chain_bundle(1, 3, 4)
        raw = [[e for e in p] for p in
               (pp.edges for pp in paths_from_node_walks(net, walks))]
        res = route_online_random_delays(net, raw, message_length=3, B=2)
        assert res.all_delivered

    def test_reproducible(self, workload):
        net, paths = workload
        a = route_online_random_delays(
            net, paths, 5, rng=np.random.default_rng(1), seed=2
        )
        b = route_online_random_delays(
            net, paths, 5, rng=np.random.default_rng(1), seed=2
        )
        assert np.array_equal(a.completion_times, b.completion_times)
