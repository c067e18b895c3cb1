"""Unit tests for open-loop (steady-state) wormhole runs: a trace drawn
by ``draw_arrivals``, one lockstep ``run_model`` call over every ``B``
(the ``open_loop`` fixture), reported by ``ContinuousResult.of``."""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from reference_simulator import (  # noqa: E402
    reference_open_loop,
    reference_queued_run,
)

from repro.network.butterfly import Butterfly
from repro.network.graph import Network, NetworkError
from repro.scenarios import get_scenario
from repro.sim.batch import run_wormhole_batch
from repro.telemetry.probe import Probe


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
    def test_zero_rate_idles(self, open_loop):
        (res,), _ = open_loop(line(4), 1, [1], 0.0, 3, line_path_gen(3), 100, 0)
        assert res.generated == 0
        assert res.throughput == 0.0
        assert res.final_backlog == 0

    def test_single_source_low_rate_delivers_everything(self, open_loop):
        (res,), _ = open_loop(line(5), 1, [1], 0.05, 4, line_path_gen(4), 2000, 1)
        assert res.generated > 0
        # Low rate: everything in flight drains, backlog stays tiny.
        assert res.delivered >= res.generated - 3
        assert res.final_backlog <= 3
        # Latency is at least the unobstructed L + D - 1.
        assert res.mean_latency >= 4 + 4 - 1

    def test_saturation_throughput_capped_by_bandwidth(self, open_loop):
        """A single chain at rate 1.0: one worm per L+1 steps at most."""
        L = 5
        (res,), _ = open_loop(line(3), 1, [1], 1.0, L, line_path_gen(2), 600, 2)
        assert res.throughput <= 1.0 / L
        assert res.final_backlog > 10  # clearly unstable
        assert res.backlog_slope() > 0.1

    def test_more_channels_raise_saturation_throughput(self, open_loop):
        reports, _ = open_loop(line(3), 1, [1, 2, 4], 1.0, 5, line_path_gen(2), 600, 3)
        out = [res.throughput for res in reports]
        assert out[0] < out[1] < out[2]

    def test_validation(self, open_loop):
        """Each input is checked where it is used: rates and the source
        count by the draw, ``L``, ``B`` and the routes by the run, the
        sampling period by the report."""
        net = line(3)
        with pytest.raises(NetworkError, match="rate"):
            open_loop(net, 1, [1], 1.5, 3, line_path_gen(2), 10, 0)
        with pytest.raises(NetworkError, match="num_sources"):
            open_loop(net, 0, [1], 0.5, 3, line_path_gen(2), 10, 0)
        with pytest.raises(NetworkError, match="L must be >= 1"):
            open_loop(net, 1, [1], 1.0, 0, line_path_gen(2), 10, 0)
        with pytest.raises(NetworkError, match="virtual channel"):
            open_loop(net, 1, [0], 1.0, 3, line_path_gen(2), 10, 0)
        with pytest.raises(NetworkError, match="names edge"):
            open_loop(net, 1, [1], 1.0, 3, line_path_gen(5), 10, 0)
        with pytest.raises(NetworkError, match="sample_every"):
            open_loop(net, 1, [1], 0.5, 3, line_path_gen(2), 10, 0, sample_every=0)

    def test_next_message_contends_the_step_after_the_first_move(self):
        """FIFO injection pops a source's queue at its head message's
        *first* move, not once all L flits have left the injection
        buffer (MODEL.md section 1)."""
        # One source; messages arrive at steps 1 and 2 and route 0 -> 1.
        probe = Contenders()
        res = run_wormhole_batch(
            line(3), [[0, 1], [0, 1]], 4, seeds=[0],
            release_times=[1, 2], sources=[0, 0], telemetry=probe,
        )[0]
        assert (res.completion_times >= 0).all()
        # Step 2: message 0 takes edge 0, its first move (1 of L = 4
        # flits out).  Step 3: message 0 wants edge 1 and message 1 —
        # arrived at the end of step 2 — already contends for edge 0.
        assert probe.granted[2] == [(0, 0)]
        assert sorted(probe.contended[3]) == [(0, 1), (1, 0)]
        assert min(probe.contended) == 2

    def test_a_held_message_neither_contends_nor_drains(self):
        """Released together in one queue, the second message waits
        until the first has moved; in separate queues both contend."""
        net, paths = line(3), [[0, 1], [0, 1]]
        queued, apart = Contenders(), Contenders()
        run_wormhole_batch(
            net, paths, 2, seeds=[0], num_virtual_channels=2,
            sources=[7, 7], telemetry=queued,
        )
        run_wormhole_batch(
            net, paths, 2, seeds=[0], num_virtual_channels=2,
            telemetry=apart,
        )
        assert queued.contended[1] == [(0, 0)]
        assert queued.moved[1] == [0]
        assert sorted(queued.contended[2]) == [(0, 1), (1, 0)]
        assert sorted(apart.contended[1]) == [(0, 0), (1, 0)]


class Contenders(Probe):
    """Per step: the (message, edge) pairs granted and contending, and
    the messages that moved."""

    def __init__(self):
        super().__init__()
        self.granted, self.contended, self.moved = {}, {}, {}

    def on_grant(self, t, messages, edges):
        pairs = list(zip(messages.tolist(), edges.tolist()))
        self.granted.setdefault(t, []).extend(pairs)
        self.contended.setdefault(t, []).extend(pairs)

    def on_block(self, t, messages, edges):
        pairs = list(zip(messages.tolist(), edges.tolist()))
        self.contended.setdefault(t, []).extend(pairs)

    def on_step(self, t, movers, k):
        self.moved[t] = movers.tolist()


E11_CHANNELS = [1, 2, 4]


@pytest.fixture(scope="module")
def e11_grid(open_loop):
    """The E11 grid at a short horizon: one lockstep call per rate over
    every ``B`` of :data:`E11_CHANNELS`, with the route generator."""
    bf = Butterfly(32)

    def path_of(source, rng):
        return list(bf.path_edges(source, int(rng.integers(bf.n))))

    calls = {
        rate: open_loop(bf, bf.n, E11_CHANNELS, rate, 6, path_of, 300, 17, 100)
        for rate in (0.01, 0.02, 0.04, 0.08, 0.16, 0.32)
    }
    return bf, path_of, calls


class TestFrontEndEqualsTheMovedLoop:
    """An open-loop run (a pre-drawn trace on the wormhole kernel, every
    ``B`` in one lockstep call) equals the per-message loop run on the
    same three streams, bit for bit."""

    @pytest.mark.parametrize("B", E11_CHANNELS)
    def test_e11_grid_at_a_short_horizon(self, e11_grid, B):
        bf, path_of, calls = e11_grid
        i = E11_CHANNELS.index(B)
        for rate, (reports, completions) in calls.items():
            res = reports[i]
            ref = reference_open_loop(
                bf.num_edges, bf.n, B, rate, 6, path_of, 300, 17, sample_every=100
            )
            assert np.array_equal(completions[i], ref.completion)
            assert res.generated == ref.generated
            assert res.delivered == ref.delivered
            assert res.mean_latency == ref.mean_latency
            assert res.final_backlog == ref.final_backlog
            assert np.array_equal(res.backlog_series, ref.backlog_series)

    @pytest.mark.parametrize("name", ["bursty-arrivals", "heavy-tail-arrivals"])
    def test_arrival_scenarios_at_their_defaults(self, name):
        """An arrival scenario is a wormhole trial over its drawn trace
        (releases, one injection queue per source): run to completion,
        it equals the moved loop fed the same trace."""
        scen = get_scenario(name)
        wl = scen.build_case()
        trace = {}
        for release, source, path in zip(wl.release_times, wl.sources, wl.paths):
            trace.setdefault(int(release), []).append((int(source), path))
        for B in (1, 2):
            res = scen.run(B=B, seed=0).outcome
            assert res.all_delivered
            ref = reference_queued_run(
                wl.net.num_edges, wl.info["width"], B, wl.default_length,
                lambda t: trace.get(t, []), res.makespan,
                np.random.default_rng(0),
            )
            assert np.array_equal(ref.arrival, wl.release_times)
            assert np.array_equal(res.completion_times, ref.completion)


class TestButterflyTraffic:
    def path_gen(self, bf):
        def path_of(source, rng):
            dst = int(rng.integers(bf.n))
            return list(bf.path_edges(source, dst))

        return path_of

    def test_stable_at_low_rate(self, open_loop):
        bf = Butterfly(16)
        (res,), _ = open_loop(bf, bf.n, [2], 0.01, 4, self.path_gen(bf), 1500, 4)
        assert res.delivered > 0
        assert abs(res.backlog_slope()) < 0.02

    def test_unstable_at_high_rate(self, open_loop):
        bf = Butterfly(16)
        (res,), _ = open_loop(bf, bf.n, [1], 0.5, 8, self.path_gen(bf), 1500, 5)
        assert res.backlog_slope() > 0.1
        assert res.final_backlog > 50

    def test_backlog_series_sampling(self, open_loop):
        bf = Butterfly(8)
        (res,), _ = open_loop(
            bf, bf.n, [1], 0.2, 4, self.path_gen(bf), 400, 6, sample_every=100
        )
        assert res.backlog_series.size == 4

    def test_reproducible(self, open_loop):
        bf = Butterfly(8)
        runs = [
            open_loop(bf, bf.n, [2], 0.1, 4, self.path_gen(bf), 500, 7)[0][0]
            for _ in range(2)
        ]
        assert runs[0].generated == runs[1].generated
        assert runs[0].delivered == runs[1].delivered
