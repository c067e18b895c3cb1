"""Text / markdown rendering of a collected run.

:func:`render_report` takes whatever collectors were attached and emits
the sections it can: run summary, hottest edges, buffer occupancy,
stall attribution (blame pairs and the worst head-of-line chain), and
throughput.  Sections for missing collectors are skipped, so the
renderer composes with any probe subset.
"""

from __future__ import annotations

from collections.abc import Iterable

from ..analysis.tables import Table
from .collectors import (
    BufferOccupancyCollector,
    ChannelUtilizationCollector,
    StallAttributionCollector,
    ThroughputCollector,
)
from .probe import Probe, ProbeSet

__all__ = ["render_report"]


def _find(probes: list[Probe], probe_type: type):
    for p in probes:
        if isinstance(p, probe_type):
            return p
    return None


def render_report(
    probes: ProbeSet | Probe | Iterable[Probe],
    result=None,
    top: int = 5,
    title: str = "Telemetry report",
) -> str:
    """Render the attached collectors into a markdown-flavoured report."""
    if isinstance(probes, Probe):
        plist = [probes]
    else:
        plist = list(probes)
    sections: list[str] = [f"# {title}"]

    if result is not None:
        sections.append(_summary_section(result))

    util = _find(plist, ChannelUtilizationCollector)
    if util is not None:
        sections.append(_utilization_section(util, top))

    occ = _find(plist, BufferOccupancyCollector)
    if occ is not None:
        sections.append(_occupancy_section(occ, top))

    stall = _find(plist, StallAttributionCollector)
    if stall is not None:
        sections.append(_stall_section(stall, top))

    thr = _find(plist, ThroughputCollector)
    if thr is not None:
        sections.append(_throughput_section(thr))

    return "\n\n".join(sections)


def _summary_section(result) -> str:
    lines = ["## Run summary"]
    lines.append(
        f"delivered {result.num_delivered}/{result.num_messages} messages "
        f"in {result.steps_executed} flit steps (makespan {result.makespan})"
    )
    lines.append(f"total blocked message-steps: {result.total_blocked_steps}")
    flags = []
    if result.deadlocked:
        flags.append("DEADLOCKED")
    if result.hit_step_cap:
        flags.append("HIT STEP CAP")
    if flags:
        lines.append("flags: " + ", ".join(flags))
    wd = result.extra.get("watchdog")
    if wd is not None:
        if wd["tripped"]:
            for alert in wd["alerts"]:
                lines.append(f"watchdog alert @ step {alert['step']}: {alert['detail']}")
        else:
            lines.append("watchdog: no alerts")
    return "\n".join(lines)


def _utilization_section(util: ChannelUtilizationCollector, top: int) -> str:
    lines = ["## Hottest edges (flits crossed)"]
    hottest = util.hottest(top)
    if not hottest:
        lines.append("no flits crossed any edge")
        return "\n".join(lines)
    total = util.total_flits
    table = Table("", ["rank", "edge", "flits", "share"])
    for rank, (edge, flits) in enumerate(hottest, start=1):
        table.add_row([rank, edge, flits, f"{100.0 * flits / total:.1f}%"])
    lines.append(table.render().lstrip("\n"))
    lines.append(f"total flits crossed: {total}")
    if util.flits_per_step:
        peak_t, peak = max(util.flits_per_step, key=lambda p: p[1])
        lines.append(f"peak step throughput: {peak} flits at step {peak_t}")
    return "\n".join(lines)


def _occupancy_section(occ: BufferOccupancyCollector, top: int) -> str:
    lines = ["## Buffer occupancy"]
    if occ.steps_observed == 0:
        lines.append("no steps observed")
        return "\n".join(lines)
    hist = occ.global_histogram()
    levels = " | ".join(
        f"{level}: {100.0 * frac:.1f}%" for level, frac in enumerate(hist)
    )
    lines.append(f"edge-steps by occupied slots — {levels}")
    mean = occ.mean_occupancy()
    order = mean.argsort(kind="stable")[::-1][:top]
    table = Table("", ["edge", "mean occupancy", "max"])
    for e in order:
        if mean[e] <= 0:
            continue
        table.add_row([int(e), float(mean[e]), int(occ.max_occupancy[e])])
    if table.rows:
        lines.append("fullest buffers:")
        lines.append(table.render().lstrip("\n"))
    return "\n".join(lines)


def _stall_section(stall: StallAttributionCollector, top: int) -> str:
    lines = ["## Stall attribution"]
    total_blocked = sum(stall.blocked_steps.values())
    lines.append(f"blocked header-steps: {total_blocked}")
    if stall.blocked_at_edge:
        table = Table("", ["edge", "denied requests"])
        for e, c in stall.blocked_at_edge.most_common(top):
            table.add_row([e, c])
        lines.append("most contended edges:")
        lines.append(table.render().lstrip("\n"))
    if stall.blame:
        table = Table("", ["blocked", "behind", "steps"])
        for m, h, c in stall.top_blame(top):
            table.add_row([f"m{m}", f"m{h}", c])
        lines.append("worst blame pairs (head-of-line blocking):")
        lines.append(table.render().lstrip("\n"))
        chain = stall.blame_chain()
        if len(chain) > 1:
            lines.append(
                "worst blame chain: " + " -> ".join(f"m{m}" for m in chain)
            )
    return "\n".join(lines)


def _throughput_section(thr: ThroughputCollector) -> str:
    lines = ["## Throughput"]
    steps = len(thr.steps)
    lines.append(
        f"delivered {thr.delivered_total} messages over {steps} observed "
        f"steps ({thr.mean_rate():.4f}/step)"
    )
    lines.append(f"peak injection backlog: {thr.peak_backlog} messages")
    return "\n".join(lines)
