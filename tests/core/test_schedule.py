"""Unit tests for the schedule object and its run on the simulator."""

import numpy as np
import pytest

from repro import simulate
from repro.core.schedule import ColorClassSchedule
from repro.core.scheduler import ScheduleBuild
from repro.fuzz.expectations import evaluate
from repro.network.graph import NetworkError
from repro.network.random_networks import chain_bundle
from repro.routing.paths import paths_from_node_walks
from repro.sim.spec import Workload


def chain_setup(per_chain, depth=4):
    net, walks = chain_bundle(1, depth, per_chain)
    return net, paths_from_node_walks(net, walks)


def hand_built(colors, L, D, C):
    """A :class:`ScheduleBuild` around a hand-coloured schedule."""
    s = ColorClassSchedule.from_colors(np.array(colors), L, D)
    return ScheduleBuild(s, congestion=C, dilation=D, num_classes=s.num_classes)


class TestColorClassSchedule:
    def test_canonical_phase(self):
        s = ColorClassSchedule.from_colors(np.array([0, 1, 2]), 5, 4)
        assert s.phase_length == 5 + 4 - 1
        assert s.num_classes == 3
        assert s.length_bound == 24
        assert list(s.release_times()) == [0, 8, 16]

    def test_zero_dilation(self):
        s = ColorClassSchedule.from_colors(np.array([0]), 5, 0)
        assert s.phase_length == 5

    def test_validation(self):
        with pytest.raises(NetworkError):
            ColorClassSchedule(np.array([-1]), 3, 2, 4)
        with pytest.raises(NetworkError):
            ColorClassSchedule(np.array([0]), 3, 2, 0)

    def test_empty(self):
        s = ColorClassSchedule.from_colors(np.zeros(0, np.int64), 3, 2)
        assert s.num_classes == 0
        assert s.length_bound == 0


class TestScheduleRun:
    def test_valid_schedule_runs_unblocked(self, run_schedule):
        net, paths = chain_setup(per_chain=3)
        build = hand_built([0, 1, 2], 6, 4, C=3)
        res = run_schedule(net, paths, build, 1)
        assert res.all_delivered
        assert res.total_blocked_steps == 0
        assert res.makespan <= build.length_bound

    def test_b2_packs_two_per_class(self, run_schedule):
        net, paths = chain_setup(per_chain=4)
        build = hand_built([0, 0, 1, 1], 6, 4, C=4)
        res = run_schedule(net, paths, build, 2)
        assert res.makespan == 2 * (6 + 4 - 1)

    def test_invalid_schedule_rejected(self):
        """Two same-class worms on one edge at B = 1 must block: the run
        still delivers, and the ``schedule`` row reports the blocking."""
        net, paths = chain_setup(per_chain=2)
        wl = hand_built([0, 0], 6, 4, C=2).apply(Workload(net, paths), 1)
        res = simulate(wl, B=1)
        assert res.all_delivered and res.total_blocked_steps > 0
        verdicts = {row.name: v for row, v in evaluate(res, wl, model="wormhole", B=1)}
        assert "blocked" in verdicts["schedule"].detail
        assert verdicts["delivery"] is None

    def test_apply_states_the_schedule(self):
        net, paths = chain_setup(per_chain=3)
        build = hand_built([0, 1, 2], 6, 4, C=3)
        wl = build.apply(Workload(net, paths, info={"M": 3}), 1)
        assert wl.default_length == 6
        assert list(wl.release_times) == [0, 9, 18]
        assert wl.facts == {"built_B": 1, "built_L": 6, "length_bound": 27}
        assert wl.info == {"M": 3, **build.metrics()}
        with pytest.raises(NetworkError, match="release_times"):
            build.apply(wl, 1)
