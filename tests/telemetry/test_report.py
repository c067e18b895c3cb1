"""Rendering the collected run into the text report."""

import numpy as np

from repro import simulate
from repro.network.graph import Network
from repro.network.random_networks import chain_bundle
from repro.routing.paths import paths_from_node_walks
from repro.telemetry import (
    EdgeContentionCollector,
    StallAttributionCollector,
    Watchdog,
    render_report,
    standard_collectors,
)


def profiled_chain(worms=3, depth=4, L=5, extra=()):
    net, walks = chain_bundle(1, depth, worms)
    paths = paths_from_node_walks(net, walks)
    probes = standard_collectors() + list(extra)
    res = simulate((net, paths), message_length=L, priority="index", telemetry=probes)
    return probes, res, paths


class TestRenderReport:
    def test_full_report_sections(self):
        probes, res, paths = profiled_chain(extra=[Watchdog()])
        text = render_report(probes, res, title="Chain convoy")
        assert text.startswith("# Chain convoy")
        for heading in (
            "## Run summary",
            "## Hottest edges (flits crossed)",
            "## Buffer occupancy",
            "## Stall attribution",
            "## Throughput",
        ):
            assert heading in text
        assert "watchdog: no alerts" in text
        assert "worst blame chain:" in text

    def test_names_the_hottest_edge(self):
        probes, res, paths = profiled_chain()
        text = render_report(probes, res, top=1)
        util = probes[0]
        (edge, flits), = util.hottest(1)
        line = next(
            ln for ln in text.splitlines() if ln.lstrip().startswith("1 ")
        )
        assert str(edge) in line and str(flits) in line

    def test_sections_skipped_without_collectors(self):
        stall = StallAttributionCollector()
        probes, res, _ = profiled_chain()
        text = render_report([stall], None)
        assert "## Hottest edges" not in text
        assert "## Throughput" not in text
        assert "## Run summary" not in text

    def test_contention_only_fallback(self):
        net, walks = chain_bundle(1, 3, 3)
        paths = paths_from_node_walks(net, walks)
        cont = EdgeContentionCollector()
        simulate((net, paths), message_length=4, telemetry=[cont])
        text = render_report([cont])
        assert "most contended edges" in text

    def test_single_probe_accepted(self):
        cont = EdgeContentionCollector()
        cont.denied = np.zeros(3, dtype=np.int64)
        text = render_report(cont)
        assert "no blocking observed" in text

    def test_deadlock_flagged_in_summary(self):
        net = Network(name="2cycle")
        a, b = net.add_nodes(["a", "b"])
        net.add_edge(a, b)
        net.add_edge(b, a)
        probes = standard_collectors() + [Watchdog()]
        res = simulate(
            (net, [[0, 1], [1, 0]]), message_length=4, priority="index",
            telemetry=probes,
        )
        text = render_report(probes, res)
        assert "DEADLOCKED" in text
        assert "watchdog alert" in text
