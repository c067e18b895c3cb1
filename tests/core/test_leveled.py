"""Unit tests for leveled-network routing ([41])."""

import numpy as np
import pytest

from repro import simulate
from repro.core.leveled import leveled_bound, random_delay_release
from repro.network.graph import NetworkError
from repro.network.random_networks import layered_network, random_walk_paths
from repro.routing.paths import congestion, dilation, paths_from_node_walks
from repro.sim.spec import Workload


@pytest.fixture
def workload(rng):
    net = layered_network(8, 6, 2, rng)
    walks = random_walk_paths(net, 8, 6, 80, rng)
    return net, paths_from_node_walks(net, walks)


class TestBound:
    def test_value(self):
        assert leveled_bound(4, 3, 5) == 60.0

    def test_validation(self):
        with pytest.raises(ValueError):
            leveled_bound(0, 1, 1)

    @pytest.mark.parametrize("args", [(0, 1, 1), (2.5, 1, 1), (4, 3, 0.5)])
    def test_inputs_are_counts(self, args):
        with pytest.raises(NetworkError):
            leveled_bound(*args)


class TestRandomDelay:
    def test_multiples_of_l(self, rng):
        rel = random_delay_release(50, message_length=7, C=5, rng=rng)
        assert (rel % 7 == 0).all()
        assert rel.max() <= 7 * 4

    def test_validation(self, rng):
        with pytest.raises(NetworkError):
            random_delay_release(5, 0, 3, rng)


class TestGreedyRouting:
    def test_delivers_within_lcd(self, workload):
        net, paths = workload
        L = 8
        C, D = congestion(paths), dilation(paths)
        assert net.is_leveled()
        res = simulate((net, paths), message_length=L)
        assert res.all_delivered
        assert not res.deadlocked
        assert res.makespan <= leveled_bound(L, C, D)

    def test_random_delays_do_not_break_delivery(self, workload, rng):
        net, paths = workload
        L = 8
        C = congestion(paths)
        rel = random_delay_release(len(paths), L, C, rng)
        res = simulate(Workload(net, paths, release_times=rel), message_length=L)
        assert res.all_delivered

    def test_random_delays_reduce_blocking(self, workload):
        """Smoothing spreads contention: total blocked steps drop."""
        net, paths = workload
        L = 8
        C = congestion(paths)
        plain = simulate((net, paths), message_length=L)
        rel = random_delay_release(
            len(paths), L, C, np.random.default_rng(4)
        )
        smoothed = simulate(
            Workload(net, paths, release_times=rel), message_length=L
        )
        assert smoothed.total_blocked_steps < plain.total_blocked_steps
