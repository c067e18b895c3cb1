"""Unit tests for the continuous (steady-state) wormhole harness."""

import pytest

from repro.network.butterfly import Butterfly
from repro.network.graph import Network, NetworkError
from repro.sim.continuous import ContinuousWormholeSimulator


def line(n):
    net = Network()
    nodes = net.add_nodes(range(n))
    for u, v in zip(nodes[:-1], nodes[1:]):
        net.add_edge(u, v)
    return net


def line_path_gen(depth):
    def path_of(source, rng):
        return list(range(depth))

    return path_of


class TestBasics:
    def test_zero_rate_idles(self):
        net = line(4)
        sim = ContinuousWormholeSimulator(net, num_sources=1)
        res = sim.run(0.0, message_length=3, path_of=line_path_gen(3), horizon=100)
        assert res.generated == 0
        assert res.throughput == 0.0
        assert res.final_backlog == 0

    def test_single_source_low_rate_delivers_everything(self):
        net = line(5)
        sim = ContinuousWormholeSimulator(net, num_sources=1, seed=1)
        res = sim.run(
            0.05, message_length=4, path_of=line_path_gen(4), horizon=2000
        )
        assert res.generated > 0
        # Low rate: everything in flight drains, backlog stays tiny.
        assert res.delivered >= res.generated - 3
        assert res.final_backlog <= 3
        # Latency is at least the unobstructed L + D - 1.
        assert res.mean_latency >= 4 + 4 - 1

    def test_saturation_throughput_capped_by_bandwidth(self):
        """A single chain at rate 1.0: one worm per L+1 steps at most."""
        net = line(3)
        sim = ContinuousWormholeSimulator(net, num_sources=1, seed=2)
        L = 5
        res = sim.run(1.0, message_length=L, path_of=line_path_gen(2), horizon=600)
        assert res.throughput <= 1.0 / L
        assert res.final_backlog > 10  # clearly unstable
        assert res.backlog_slope() > 0.1

    def test_more_channels_raise_saturation_throughput(self):
        net = line(3)
        L = 5
        out = {}
        for B in (1, 2, 4):
            sim = ContinuousWormholeSimulator(net, 1, B, seed=3)
            out[B] = sim.run(
                1.0, message_length=L, path_of=line_path_gen(2), horizon=600
            ).throughput
        assert out[1] < out[2] < out[4]

    def test_validation(self):
        net = line(3)
        sim = ContinuousWormholeSimulator(net, 1)
        with pytest.raises(NetworkError):
            sim.run(1.5, 3, line_path_gen(2), 10)
        with pytest.raises(NetworkError):
            sim.run(0.5, 0, line_path_gen(2), 10)
        with pytest.raises(NetworkError):
            sim.run(0.5, 3, line_path_gen(2), 0)
        with pytest.raises(NetworkError):
            ContinuousWormholeSimulator(net, 0)
        with pytest.raises(NetworkError):
            ContinuousWormholeSimulator(net, 1, 0)

    def test_next_message_contends_the_step_after_the_first_move(
        self, monkeypatch
    ):
        """FIFO injection pops a source's queue at its head message's
        *first* move, not once all L flits have left the injection
        buffer (MODEL.md section 1)."""
        import repro.sim.continuous as continuous

        rounds = []
        grant = continuous.grant_free_slots

        def spy(slots, prio, capacity, occupancy):
            rounds.append(slots.tolist())
            return grant(slots, prio, capacity, occupancy)

        monkeypatch.setattr(continuous, "grant_free_slots", spy)
        # One source; messages arrive at steps 1 and 2 and route 0 -> 1.
        sim = ContinuousWormholeSimulator(line(3), num_sources=1, seed=0)
        res = sim.run(
            [1.0, 1.0] + [0.0] * 18, message_length=4,
            path_of=line_path_gen(2), horizon=20,
        )
        assert res.generated == res.delivered == 2
        # Step 2: message 0 takes edge 0, its first move (1 of L = 4
        # flits out).  Step 3: message 0 wants edge 1 and message 1 —
        # arrived at the end of step 2 — already contends for edge 0.
        assert rounds[:2] == [[0], [1, 0]]


class TestButterflyTraffic:
    def path_gen(self, bf):
        def path_of(source, rng):
            dst = int(rng.integers(bf.n))
            return list(bf.path_edges(source, dst))

        return path_of

    def test_stable_at_low_rate(self):
        bf = Butterfly(16)
        sim = ContinuousWormholeSimulator(bf, bf.n, 2, seed=4)
        res = sim.run(0.01, 4, self.path_gen(bf), horizon=1500)
        assert res.delivered > 0
        assert abs(res.backlog_slope()) < 0.02

    def test_unstable_at_high_rate(self):
        bf = Butterfly(16)
        sim = ContinuousWormholeSimulator(bf, bf.n, 1, seed=5)
        res = sim.run(0.5, 8, self.path_gen(bf), horizon=1500)
        assert res.backlog_slope() > 0.1
        assert res.final_backlog > 50

    def test_backlog_series_sampling(self):
        bf = Butterfly(8)
        sim = ContinuousWormholeSimulator(bf, bf.n, 1, seed=6)
        res = sim.run(0.2, 4, self.path_gen(bf), horizon=400, sample_every=100)
        assert res.backlog_series.size == 4

    def test_reproducible(self):
        bf = Butterfly(8)
        runs = []
        for _ in range(2):
            sim = ContinuousWormholeSimulator(bf, bf.n, 2, seed=7)
            runs.append(sim.run(0.1, 4, self.path_gen(bf), horizon=500))
        assert runs[0].generated == runs[1].generated
        assert runs[0].delivered == runs[1].delivered
