"""Watchdog alerts: stalls, slow delivery, deadlock, and aborts."""

import numpy as np
import pytest

from repro import simulate
from repro.network.random_networks import chain_bundle
from repro.routing.paths import paths_from_node_walks
from repro.telemetry import Watchdog


def chain(worms=2, depth=3):
    net, walks = chain_bundle(1, depth, worms)
    return net, paths_from_node_walks(net, walks)


class TestValidation:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            Watchdog(stall_steps=0)
        with pytest.raises(ValueError):
            Watchdog(rate_window=0)


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
        wd = Watchdog(stall_steps=3)
        nobody = np.zeros(0, dtype=np.int64)
        k = np.zeros(2, dtype=np.int64)
        for t in range(1, 9):  # 8 consecutive no-mover steps
            wd.on_step(t, nobody, k)
        stalls = [a for a in wd.alerts if a["type"] == "stall"]
        assert len(stalls) == 1  # one alert for the whole quiet stretch
        assert stalls[0]["stalled_steps"] == 3 and stalls[0]["step"] == 3
        # Progress resets the episode; a second stall alerts again.
        wd.on_step(9, np.array([0]), k)
        for t in range(10, 14):
            wd.on_step(t, nobody, k)
        assert len([a for a in wd.alerts if a["type"] == "stall"]) == 2

    def test_low_rate_alert(self):
        net, paths = chain(worms=3, depth=4)
        wd = Watchdog(min_rate=1.0, rate_window=5)
        res = simulate((net, paths), message_length=6, telemetry=[wd])
        assert res.all_delivered
        assert any(a["type"] == "low-rate" for a in wd.alerts)
        # The first window is exempt: no alert at step <= rate_window.
        first = min(a["step"] for a in wd.alerts)
        assert first > 5

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


class TestAbort:
    def test_abort_stops_the_run_and_annotates(self):
        # An impossible delivery-rate floor trips on the first checked
        # window of the B=1 convoy; abort=True then cuts the run short.
        net, paths = chain(worms=4, depth=6)
        wd = Watchdog(min_rate=1.0, rate_window=5, abort=True)
        res = simulate(
            (net, paths), message_length=8, priority="index", telemetry=[wd],
        )
        assert not res.all_delivered
        assert "telemetry_abort" in res.extra
        assert "watchdog" in res.extra["telemetry_abort"]
        # The full convoy needs ~4 * (L + D - 1) steps; we stopped at the
        # first post-exemption window boundary instead.
        assert res.steps_executed == 10

    def test_no_abort_by_default(self):
        net, paths = chain(worms=4, depth=6)
        wd = Watchdog(min_rate=1.0, rate_window=5)
        res = simulate(
            (net, paths), message_length=8, priority="index", telemetry=[wd],
        )
        assert res.all_delivered
        assert wd.tripped
        assert "telemetry_abort" not in res.extra


def _cycle_network():
    from repro.network.graph import Network

    net = Network(name="2cycle")
    a, b = net.add_nodes(["a", "b"])
    net.add_edge(a, b)
    net.add_edge(b, a)
    return net
