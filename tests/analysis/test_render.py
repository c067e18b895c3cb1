"""Unit tests for ASCII rendering and simulator tracing."""

import numpy as np
import pytest

from repro import simulate
from repro.analysis.render import render_butterfly, render_route, render_spacetime
from repro.network.butterfly import Butterfly
from repro.network.random_networks import chain_bundle
from repro.routing.paths import paths_from_node_walks
from repro.telemetry import TraceSnapshotCollector


class TestRenderButterfly:
    def test_mentions_all_nodes(self):
        bf = Butterfly(4)
        art = render_butterfly(bf)
        for w in range(4):
            for lvl in range(3):
                assert f"({w},{lvl})" in art

    def test_mentions_cross_bits(self):
        art = render_butterfly(Butterfly(8))
        assert "w ^ 1" in art and "w ^ 2" in art and "w ^ 4" in art


class TestRenderRoute:
    def test_hop_table(self):
        bf = Butterfly(8)
        edges = bf.path_edges(5, 2)
        art = render_route(bf, edges)
        lines = art.splitlines()
        assert len(lines) == 1 + 3
        assert "cross" in art  # 5 -> 2 must cross somewhere
        assert "straight" in art or art.count("cross") == 3


class TestTraceAndSpacetime:
    @pytest.fixture
    def traced_run(self):
        net, walks = chain_bundle(1, 3, 2)
        paths = paths_from_node_walks(net, walks)
        snapshot = TraceSnapshotCollector()
        res = simulate(
            (net, paths), message_length=4, priority="index", telemetry=[snapshot],
        )
        return paths, res, snapshot.matrix

    def test_trace_shape(self, traced_run):
        paths, res, trace = traced_run
        assert trace.shape == (res.steps_executed, 2)
        # Move counts never decrease.
        assert (np.diff(trace, axis=0) >= 0).all()

    def test_trace_absent_by_default(self):
        net, walks = chain_bundle(1, 2, 1)
        paths = paths_from_node_walks(net, walks)
        res = simulate((net, paths), message_length=2)
        assert "trace" not in res.extra

    def test_spacetime_rendering(self, traced_run):
        paths, res, trace = traced_run
        art = render_spacetime(trace, [3, 3], message_length=4)
        lines = art.splitlines()
        assert len(lines) == res.steps_executed + 1
        # The winning worm ends delivered; the loser too by the end.
        assert lines[-1].count("*") == 2
        # The blocked worm shows '-' while waiting in its injection buffer.
        assert "-" in art

    def test_spacetime_truncation(self, traced_run):
        paths, res, trace = traced_run
        art = render_spacetime(trace, [3, 3], message_length=4, max_rows=2)
        assert "more steps" in art

    def test_spacetime_validation(self):
        with pytest.raises(ValueError):
            render_spacetime(np.zeros(3), [1], 1)
        with pytest.raises(ValueError):
            render_spacetime(np.zeros((2, 3)), [1], 1)
