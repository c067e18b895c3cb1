"""The probe protocol: pluggable instrumentation for the simulators.

A :class:`Probe` receives vectorized event callbacks from a simulator's
step loop.  Events carry NumPy arrays (message ids, physical edge ids)
rather than per-message Python calls, so an attached probe costs one
function call per event *batch* per step — and an **empty** probe set
costs nothing at all: :meth:`ProbeSet.coerce` returns ``None`` when no
probes are attached, and every simulator guards its dispatch sites with
a single ``if probes is not None`` so the vectorized hot loop performs
no probe dispatch, builds no event objects, and allocates nothing extra.

Event vocabulary (all optional; a probe overrides what it needs):

``on_run_start(meta)``
    Once before the first step, with a :class:`RunMeta` describing the
    run (message count, paths, lengths, release times, ...).
``on_step(t, movers, k)``
    Once per simulated step after all state updates: ``movers`` is the
    array of message ids that advanced this step and ``k`` the full
    per-message progress array (completed moves / hops, simulator
    defined).
``on_grant(t, messages, edges)``
    Header flits granted a virtual channel / buffer slot / edge
    ownership this step (parallel arrays).
``on_block(t, messages, edges)``
    Header flits denied the edge they wanted; an edge id of ``-1``
    means the wanted edge could not be attributed.
``on_release(t, messages, edges)``
    Buffer slots vacated (tail left the edge, or delivery freed the
    final edge).
``on_complete(t, messages)``
    Messages fully delivered this step.
``on_deadlock(t, pending)``
    The simulator proved no further progress is possible; ``pending``
    holds the undelivered message ids.
``on_run_end(result)``
    Once after the run with the :class:`~repro.sim.stats
    .SimulationResult`; probes may annotate ``result.extra``.

A probe may also call :meth:`Probe.request_abort` (typically from
``on_step``); the simulator then stops at the end of the current step
and annotates ``result.extra["telemetry_abort"]`` — this is how the
:class:`~repro.telemetry.watchdog.Watchdog` turns a livelock into a
diagnosed early return instead of a silent crawl to ``max_steps``.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Probe", "ProbeSet", "RunMeta"]


@dataclass
class RunMeta:
    """Static description of one simulation run, passed to probes.

    Attributes
    ----------
    simulator:
        Which engine is running: ``"wormhole"``, ``"cut_through"``,
        ``"store_forward"``, ``"adaptive"``, ...  Collectors use this to
        pick the right accounting (e.g. exact flit spans are only
        derivable from the wormhole lock-step reduction).
    num_messages / num_edges / num_virtual_channels:
        Problem dimensions (``B`` is buffer slots per edge).
    paths:
        Padded ``(M, max_D)`` edge-id matrix (``-1`` padding), or
        ``None`` when routes are chosen online (adaptive routing).
    lengths:
        Per-message path length ``D_m``.
    message_length:
        Per-message ``L`` in flits.
    release:
        Per-message release step in the simulator's native step unit.
    extra:
        Engine-specific hints, e.g. ``flits_per_grant`` (flits that an
        ``on_grant`` event implies will cross the edge) or
        ``flit_steps_per_step`` (store-and-forward message steps).
    """

    simulator: str
    num_messages: int
    num_edges: int
    num_virtual_channels: int
    paths: np.ndarray | None
    lengths: np.ndarray
    message_length: np.ndarray
    release: np.ndarray
    extra: dict = field(default_factory=dict)


class Probe:
    """Base class / protocol with no-op implementations of every event.

    Subclasses override only the callbacks they need; :class:`ProbeSet`
    dispatches each event exclusively to the probes that override it, so
    unused callbacks cost nothing even when other probes are attached.
    """

    def __init__(self) -> None:
        self.abort_reason: str | None = None

    def request_abort(self, reason: str) -> None:
        """Ask the simulator to stop at the end of the current step."""
        self.abort_reason = reason

    # -- lifecycle -----------------------------------------------------
    def on_run_start(self, meta: RunMeta) -> None:  # pragma: no cover
        pass

    def on_run_end(self, result) -> None:  # pragma: no cover
        pass

    # -- per-step events ----------------------------------------------
    def on_step(self, t: int, movers: np.ndarray, k: np.ndarray) -> None:
        pass

    def on_grant(self, t: int, messages: np.ndarray, edges: np.ndarray) -> None:
        pass

    def on_block(self, t: int, messages: np.ndarray, edges: np.ndarray) -> None:
        pass

    def on_release(self, t: int, messages: np.ndarray, edges: np.ndarray) -> None:
        pass

    def on_complete(self, t: int, messages: np.ndarray) -> None:
        pass

    def on_deadlock(self, t: int, pending: np.ndarray) -> None:
        pass


_EVENTS = (
    "on_run_start",
    "on_run_end",
    "on_step",
    "on_grant",
    "on_block",
    "on_release",
    "on_complete",
    "on_deadlock",
)


class ProbeSet:
    """A set of probes plus per-event dispatch lists.

    The dispatch list for each event contains only the probes whose
    class actually overrides that callback, so dispatching an event a
    probe ignores is skipped entirely.

    Simulators never hold an empty ``ProbeSet``: they call
    :meth:`coerce`, which returns ``None`` when nothing is attached, and
    take the fully uninstrumented code path.
    """

    def __init__(self, probes: Iterable[Probe] = ()) -> None:
        self._probes: list[Probe] = list(probes)
        for p in self._probes:
            if not all(callable(getattr(p, ev, None)) for ev in _EVENTS):
                raise TypeError(
                    f"{type(p).__name__} does not implement the Probe protocol"
                )
        self._bind()

    def _bind(self) -> None:
        self._dispatch: dict[str, list[Probe]] = {}
        for ev in _EVENTS:
            base = getattr(Probe, ev)
            self._dispatch[ev] = [
                p for p in self._probes if getattr(type(p), ev, base) is not base
            ]

    # ------------------------------------------------------------------
    @classmethod
    def coerce(
        cls,
        telemetry: "ProbeSet | Probe | Iterable[Probe] | None",
    ) -> "ProbeSet | None":
        """Normalize a ``telemetry=`` argument; ``None`` when empty.

        Accepts ``None``, a single :class:`Probe`, an iterable of
        probes, or a :class:`ProbeSet`.  The caller's objects are never
        mutated — a fresh set is built.
        """
        if telemetry is None:
            probes: list[Probe] = []
        elif isinstance(telemetry, ProbeSet):
            probes = list(telemetry)
        elif isinstance(telemetry, Probe):
            probes = [telemetry]
        else:
            probes = list(telemetry)
        return cls(probes) if probes else None

    # ------------------------------------------------------------------
    def add(self, probe: Probe) -> None:
        self._probes.append(probe)
        self._bind()

    def __iter__(self):
        return iter(self._probes)

    def __len__(self) -> int:
        return len(self._probes)

    def __bool__(self) -> bool:
        return bool(self._probes)

    def find(self, probe_type: type) -> "Probe | None":
        """First attached probe of the given type, or ``None``."""
        for p in self._probes:
            if isinstance(p, probe_type):
                return p
        return None

    # -- abort plumbing ------------------------------------------------
    @property
    def abort_reason(self) -> str | None:
        for p in self._probes:
            reason = getattr(p, "abort_reason", None)
            if reason is not None:
                return reason
        return None

    @property
    def aborted(self) -> bool:
        return self.abort_reason is not None

    # -- dispatchers ---------------------------------------------------
    def on_run_start(self, meta: RunMeta) -> None:
        for p in self._dispatch["on_run_start"]:
            p.on_run_start(meta)

    def on_run_end(self, result) -> None:
        for p in self._dispatch["on_run_end"]:
            p.on_run_end(result)

    def on_step(self, t: int, movers: np.ndarray, k: np.ndarray) -> None:
        for p in self._dispatch["on_step"]:
            p.on_step(t, movers, k)

    def on_grant(self, t: int, messages: np.ndarray, edges: np.ndarray) -> None:
        for p in self._dispatch["on_grant"]:
            p.on_grant(t, messages, edges)

    def on_block(self, t: int, messages: np.ndarray, edges: np.ndarray) -> None:
        for p in self._dispatch["on_block"]:
            p.on_block(t, messages, edges)

    def on_release(self, t: int, messages: np.ndarray, edges: np.ndarray) -> None:
        for p in self._dispatch["on_release"]:
            p.on_release(t, messages, edges)

    def on_complete(self, t: int, messages: np.ndarray) -> None:
        for p in self._dispatch["on_complete"]:
            p.on_complete(t, messages)

    def on_deadlock(self, t: int, pending: np.ndarray) -> None:
        for p in self._dispatch["on_deadlock"]:
            p.on_deadlock(t, pending)
