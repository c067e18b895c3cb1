"""Unit tests for the online random-delay protocol ([13] contrast)."""

from dataclasses import replace

import numpy as np
import pytest

from repro import simulate
from repro.core.leveled import random_delay_release
from repro.core.online_routing import online_window
from repro.network.graph import NetworkError
from repro.network.random_networks import chain_bundle
from repro.routing.paths import congestion, dilation, paths_from_node_walks
from repro.scenarios import get_scenario
from repro.sim.spec import Workload


class TestWindow:
    def test_shape(self):
        assert online_window(C=16, D=16, B=1) == 256
        assert online_window(C=16, D=16, B=2) == 32
        assert online_window(C=16, D=16, B=4) == 8

    def test_monotone_decreasing_in_b(self):
        vals = [online_window(20, 32, B) for B in (1, 2, 3, 4)]
        assert vals == sorted(vals, reverse=True)

    def test_validation(self):
        with pytest.raises(NetworkError):
            online_window(0, 1, 1)


def delayed(wl, window, rng):
    """``wl`` released on random initial delays: ``L``-slots drawn
    uniformly from ``[0, window)``."""
    release = random_delay_release(len(wl.paths), wl.default_length, window, rng)
    return replace(wl, release_times=release)


class TestProtocol:
    """The online protocol is the ``online-delays`` scenario: a
    ``layered-walks`` workload released on the [13]-shaped window."""

    @pytest.fixture
    def workload(self):
        return get_scenario("online-delays").build_case

    def test_delivers_everything(self, workload):
        wl = workload(B=2)
        res = simulate(wl, B=2)
        assert res.all_delivered

    def test_within_window_plus_routing_bound(self, workload):
        for B in (1, 2):
            wl = workload(B=B)
            res = simulate(wl, B=B, seed=0)
            L, C, D = wl.default_length, wl.info["congestion"], wl.info["dilation"]
            W = online_window(C, D, B)
            assert wl.release_times.max() < W * L
            # Start delay <= W*L; then routing finishes in O(LCD) worst case.
            assert res.makespan <= W * L + L * C * D

    def test_explicit_window(self, workload):
        wl = workload()
        res = simulate(delayed(wl, 1, np.random.default_rng(0)))
        # Window 1 means no delays at all: equals greedy injection.
        greedy = simulate(replace(wl, release_times=None))
        assert res.makespan == greedy.makespan

    def test_smoothing_reduces_blocking(self):
        net, walks = chain_bundle(2, 6, 10)
        paths = paths_from_node_walks(net, walks)
        wl = Workload(net, paths, default_length=6)
        window = online_window(congestion(paths), dilation(paths), 1)
        plain = simulate(wl, seed=0)
        smoothed = simulate(delayed(wl, window, np.random.default_rng(3)), seed=0)
        assert smoothed.total_blocked_steps < plain.total_blocked_steps

    def test_raw_edge_lists(self):
        net, walks = chain_bundle(1, 3, 4)
        raw = [list(p.edges) for p in paths_from_node_walks(net, walks)]
        wl = delayed(Workload(net, raw, default_length=3), 2, np.random.default_rng(0))
        assert simulate(wl, B=2).all_delivered

    def test_reproducible(self, workload):
        a = simulate(workload(delay_seed=1), seed=2)
        b = simulate(workload(delay_seed=1), seed=2)
        assert np.array_equal(a.completion_times, b.completion_times)
        assert not np.array_equal(
            workload(delay_seed=1).release_times, workload(delay_seed=2).release_times
        )
