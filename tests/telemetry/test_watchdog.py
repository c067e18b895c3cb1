"""Watchdog alerts: stalls and deadlock."""

import numpy as np
import pytest

from repro import simulate
from repro.network.random_networks import chain_bundle
from repro.routing.paths import paths_from_node_walks
from repro.telemetry import Watchdog
from repro.telemetry.watchdog import STALL_STEPS


def chain(worms=2, depth=3):
    net, walks = chain_bundle(1, depth, worms)
    return net, paths_from_node_walks(net, walks)


class TestAnnotations:
    def test_clean_run_reports_no_alerts(self):
        net, paths = chain()
        wd = Watchdog()
        res = simulate((net, paths), message_length=4, telemetry=[wd])
        assert not wd.tripped
        report = res.extra["watchdog"]
        assert report["tripped"] is False
        assert report["delivered"] == 2
        assert report["steps_observed"] == res.steps_executed
        assert report["last_progress_step"] is not None

    def test_stall_alert_once_per_episode(self):
        # Unit-level: the simulators fast-forward fully quiet stretches,
        # so feed the step stream directly to pin the episode logic.
        wd = Watchdog()
        nobody = np.zeros(0, dtype=np.int64)
        k = np.zeros(2, dtype=np.int64)
        quiet = STALL_STEPS + 5  # consecutive no-mover steps
        for t in range(1, quiet + 1):
            wd.on_step(t, nobody, k)
        stalls = [a for a in wd.alerts if a["type"] == "stall"]
        assert len(stalls) == 1  # one alert for the whole quiet stretch
        assert stalls[0]["stalled_steps"] == STALL_STEPS
        assert stalls[0]["step"] == STALL_STEPS
        # Progress resets the episode; a second stall alerts again.
        wd.on_step(quiet + 1, np.array([0]), k)
        for t in range(quiet + 2, quiet + 2 + STALL_STEPS):
            wd.on_step(t, nobody, k)
        assert len([a for a in wd.alerts if a["type"] == "stall"]) == 2

    def test_no_stall_alert_before_STALL_STEPS_quiet_steps(self):
        wd = Watchdog()
        nobody = np.zeros(0, dtype=np.int64)
        k = np.zeros(2, dtype=np.int64)
        for t in range(1, STALL_STEPS):  # one quiet step short
            wd.on_step(t, nobody, k)
        assert not wd.tripped
        wd.on_step(STALL_STEPS, nobody, k)
        assert [a["type"] for a in wd.alerts] == ["stall"]

    def test_progress_in_the_window_restarts_the_count(self):
        wd = Watchdog()
        nobody = np.zeros(0, dtype=np.int64)
        k = np.zeros(2, dtype=np.int64)
        half = STALL_STEPS // 2 + 1
        for t in range(1, half + 1):
            wd.on_step(t, nobody, k)
        wd.on_step(half + 1, np.array([1]), k)
        for t in range(half + 2, half + 2 + half):
            wd.on_step(t, nobody, k)
        # Two quiet stretches, each shorter than STALL_STEPS: no alert.
        assert not wd.tripped
        assert wd._last_progress == half + 1

    def test_deadlock_alert(self):
        net = _cycle_network()
        paths = [[0, 1], [1, 0]]
        wd = Watchdog()
        res = simulate(
            (net, paths), message_length=4, priority="index", telemetry=[wd],
        )
        assert res.deadlocked
        dead = [a for a in wd.alerts if a["type"] == "deadlock"]
        assert len(dead) == 1
        assert sorted(dead[0]["pending"]) == [0, 1]
        assert res.extra["watchdog"]["tripped"] is True


@pytest.mark.parametrize(
    "model, priority",
    [("wormhole", "index"), ("cut_through", "index"), ("store_forward", "age")],
)
def test_a_watchdog_never_changes_the_run(model, priority):
    """The watchdog only annotates: even when it trips, the run with it
    is the run without it, step for step."""
    net = _cycle_network()
    paths = [[0, 1], [1, 0]]

    def run(telemetry):
        return simulate(
            (net, paths), model=model, message_length=4, priority=priority,
            telemetry=telemetry,
        )

    wd = Watchdog()
    plain, watched = run(None), run([wd])
    assert np.array_equal(plain.completion_times, watched.completion_times)
    assert plain.steps_executed == watched.steps_executed
    assert plain.deadlocked == watched.deadlocked
    assert plain.hit_step_cap == watched.hit_step_cap
    assert wd.tripped == plain.deadlocked
    assert "watchdog" in watched.extra and "watchdog" not in plain.extra


def _cycle_network():
    from repro.network.graph import Network

    net = Network(name="2cycle")
    a, b = net.add_nodes(["a", "b"])
    net.add_edge(a, b)
    net.add_edge(b, a)
    return net
