"""Rendering the collected run into the text report."""

from repro import simulate
from repro.network.graph import Network
from repro.network.random_networks import chain_bundle
from repro.routing.paths import paths_from_node_walks
from repro.telemetry import (
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

    def test_single_probe_accepted(self):
        text = render_report(StallAttributionCollector())
        assert "## Stall attribution" in text
        assert "blocked header-steps: 0" in text

    def test_stall_section_names_the_contended_edge(self):
        stall = StallAttributionCollector()
        profiled_chain(extra=[stall])
        text = render_report([stall], top=1)
        assert "most contended edges:" in text
        ((edge, denied),) = stall.blocked_at_edge.most_common(1)
        rows = [[c.strip() for c in ln.split("|")] for ln in text.splitlines()]
        assert [str(edge), str(denied)] in rows
        assert denied == sum(stall.blocked_steps.values())  # one hot edge

    def test_clean_run_raises_no_flags(self):
        probes, res, _ = profiled_chain(worms=1, extra=[Watchdog()])
        text = render_report(probes, res)
        assert "flags:" not in text
        assert "watchdog: no alerts" in text

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
