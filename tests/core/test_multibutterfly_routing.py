"""Unit tests for multibutterfly wormhole routing ([3]): the adaptive
model under ``policy="fully-adaptive"`` on a multibutterfly."""

import numpy as np
import pytest

from repro import simulate
from repro.network.graph import NetworkError
from repro.network.multibutterfly import Multibutterfly
from repro.routing.problems import random_permutation, transpose_permutation


@pytest.fixture
def mbf16():
    return Multibutterfly(16, d=2, rng=np.random.default_rng(0))


def route(mbf, inst, L, B=1, seed=0, policy="fully-adaptive"):
    """One trial routing ``inst``'s input->output demands through ``mbf``."""
    demands = np.stack([inst.sources, inst.dests], axis=1)
    return simulate(
        (mbf, demands), model="adaptive", policy=policy, B=B,
        message_length=L, seed=seed,
    )


class TestRouting:
    def test_permutation_delivered(self, mbf16):
        inst = random_permutation(16, np.random.default_rng(1))
        res = route(mbf16, inst, 5)
        assert res.all_delivered

    def test_single_message_unobstructed(self, mbf16):
        from repro.routing.problems import RoutingInstance

        inst = RoutingInstance(
            16, np.array([3], dtype=np.int64), np.array([11], dtype=np.int64)
        )
        res = route(mbf16, inst, 6)
        assert res.makespan == 6 + 4 - 1  # L + log n - 1

    def test_time_near_l_plus_logn(self):
        """[3]'s O(L + log n) shape across n at d = 2, B = 1."""
        L = 8
        ratios = []
        for n in (16, 64, 256):
            mbf = Multibutterfly(n, d=2, rng=np.random.default_rng(n))
            inst = random_permutation(n, np.random.default_rng(n + 1))
            res = route(mbf, inst, L)
            assert res.all_delivered
            ratios.append(res.makespan / (L + mbf.log_n))
        assert max(ratios) < 6.0
        assert max(ratios) / min(ratios) < 3.0

    def test_diversity_beats_d1(self):
        """d = 2 path diversity lowers blocking vs a randomly-wired
        d = 1 'butterfly' on the same traffic."""
        n, L = 64, 8
        inst = transpose_permutation(n)
        spans = {}
        for d in (1, 2, 3):
            mbf = Multibutterfly(n, d=d, rng=np.random.default_rng(4))
            res = route(mbf, inst, L)
            assert res.all_delivered
            spans[d] = res.makespan
        assert spans[2] <= spans[1]
        assert spans[3] <= spans[1]

    def test_more_channels_help(self, mbf16):
        inst = random_permutation(16, np.random.default_rng(3))
        t1 = route(mbf16, inst, 8).makespan
        t2 = route(mbf16, inst, 8, B=2).makespan
        assert t2 <= t1

    def test_validation(self, mbf16):
        inst16 = random_permutation(16, np.random.default_rng(0))
        with pytest.raises(NetworkError):
            route(mbf16, inst16, 0)
        with pytest.raises(NetworkError):
            route(mbf16, inst16, 4, B=0)
        with pytest.raises(NetworkError, match="fully-adaptive"):
            route(mbf16, inst16, 4, policy="west-first")
        wide = random_permutation(32, np.random.default_rng(0))
        with pytest.raises(NetworkError):
            route(mbf16, wide, 4)

    def test_reproducible(self, mbf16):
        inst = random_permutation(16, np.random.default_rng(5))
        a = route(mbf16, inst, 4, seed=9)
        b = route(mbf16, inst, 4, seed=9)
        assert np.array_equal(a.completion_times, b.completion_times)
