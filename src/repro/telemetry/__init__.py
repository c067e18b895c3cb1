"""``repro.telemetry`` — instrumentation, tracing, and watchdogs.

A pluggable observability layer for every simulator in the package:

* :mod:`~repro.telemetry.probe` — the :class:`Probe` event protocol and
  the :class:`ProbeSet` dispatcher (a guaranteed no-op when empty);
* :mod:`~repro.telemetry.collectors` — channel utilization, buffer
  occupancy, stall attribution (head-of-line blame), throughput /
  backlog, plus trace snapshots;
* :mod:`~repro.telemetry.metrics` — generic cross-request service
  metrics (counters, depth gauges, occupancy histograms, latency
  quantiles) backing the :mod:`repro.service` ``stats`` endpoint;
* :mod:`~repro.telemetry.trace` — versioned JSONL event traces
  with a bit-exact :func:`replay_check`;
* :mod:`~repro.telemetry.watchdog` — stall / deadlock alerts that
  annotate a run;
* :mod:`~repro.telemetry.report` — text/markdown rendering of a
  collected run.

Usage::

    from repro import simulate
    from repro.telemetry import Watchdog, render_report, standard_collectors

    probes = standard_collectors() + [Watchdog()]
    result = simulate((net, paths), B=B, message_length=L, telemetry=probes)
    print(render_report(probes, result))
"""

from .._lazy import attach

_EXPORTS = {
    "BufferOccupancyCollector": ".collectors",
    "ChannelUtilizationCollector": ".collectors",
    "DepthGauge": ".metrics",
    "EventCounter": ".metrics",
    "LatencyRecorder": ".metrics",
    "Probe": ".probe",
    "ProbeSet": ".probe",
    "RunMeta": ".probe",
    "SizeHistogram": ".metrics",
    "StallAttributionCollector": ".collectors",
    "StateGauge": ".metrics",
    "ThroughputCollector": ".collectors",
    "TRACE_FORMAT": ".trace",
    "TRACE_VERSION": ".trace",
    "Trace": ".trace",
    "TraceError": ".trace",
    "TraceRecorder": ".trace",
    "TraceSnapshotCollector": ".collectors",
    "Watchdog": ".watchdog",
    "load_trace": ".trace",
    "quantile": ".metrics",
    "render_report": ".report",
    "replay_check": ".trace",
    "standard_collectors": ".collectors",
    "write_trace": ".trace",
}
__getattr__, __dir__ = attach(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
