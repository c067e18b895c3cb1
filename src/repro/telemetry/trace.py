"""Versioned event traces: record, save (JSONL), load, replay.

A trace is the grant/block/release/complete event stream of one run
plus the run's static metadata.  On disk it is JSONL: line 1 is the
meta header (with ``format`` and ``version``), then one line per event
batch (``{"t": ..., "ev": "grant", "m": [...], "e": [...]}``), then a
final ``{"ev": "end", ...}`` line.  Human-greppable.

:func:`replay_check` is the integrity guarantee: for a wormhole-engine
trace it re-derives every completion time *from the grant events alone*
(granted worms move, draining worms move, everything else stalls — the
lock-step reduction) and asserts bit-exact agreement with the recorded
completions and, optionally, a :class:`~repro.sim.stats
.SimulationResult`.  A trace that passes replay is a faithful record of
the run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .probe import Probe, RunMeta

__all__ = [
    "TRACE_FORMAT",
    "TRACE_VERSION",
    "Trace",
    "TraceError",
    "TraceRecorder",
    "load_trace",
    "replay_check",
    "write_trace",
]

TRACE_FORMAT = "repro-telemetry-trace"
TRACE_VERSION = 1

# Event types that carry (t, messages, edges) / (t, messages) payloads.
_EDGE_EVENTS = ("grant", "block", "release")
_MSG_EVENTS = ("complete", "deadlock")


class TraceError(ValueError):
    """Malformed trace file or a replay mismatch."""


@dataclass
class Trace:
    """An in-memory event trace.

    ``events[ev]`` maps each event type to parallel flat arrays:
    ``(t, messages, edges)`` for grant/block/release and
    ``(t, messages)`` for complete/deadlock.
    """

    meta: dict
    events: dict[str, tuple[np.ndarray, ...]] = field(default_factory=dict)
    end: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for ev in _EDGE_EVENTS:
            self.events.setdefault(
                ev,
                (
                    np.zeros(0, dtype=np.int64),
                    np.zeros(0, dtype=np.int64),
                    np.zeros(0, dtype=np.int64),
                ),
            )
        for ev in _MSG_EVENTS:
            self.events.setdefault(
                ev, (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
            )

    @property
    def steps(self) -> int:
        return int(self.end.get("steps", 0))

    def completion_times(self) -> np.ndarray:
        """Per-message completion step from the recorded complete events."""
        M = int(self.meta["num_messages"])
        completion = np.full(M, -1, dtype=np.int64)
        t, m = self.events["complete"]
        completion[m] = t
        trivial = np.asarray(self.meta["lengths"], dtype=np.int64) == 0
        completion[trivial] = np.asarray(self.meta["release"], dtype=np.int64)[
            trivial
        ]
        return completion


class TraceRecorder(Probe):
    """A probe that records the event stream for saving / replay."""

    def __init__(self) -> None:
        self._meta: dict = {}
        self._batches: dict[str, list[tuple]] = {
            ev: [] for ev in _EDGE_EVENTS + _MSG_EVENTS
        }
        self._end: dict = {}

    def on_run_start(self, meta: RunMeta) -> None:
        self._meta = {
            "format": TRACE_FORMAT,
            "version": TRACE_VERSION,
            "simulator": meta.simulator,
            "num_messages": meta.num_messages,
            "num_edges": meta.num_edges,
            "num_virtual_channels": meta.num_virtual_channels,
            "lengths": meta.lengths.tolist(),
            "message_length": meta.message_length.tolist(),
            "release": meta.release.tolist(),
        }
        self._batches = {ev: [] for ev in _EDGE_EVENTS + _MSG_EVENTS}
        self._end = {}

    def on_grant(self, t: int, messages: np.ndarray, edges: np.ndarray) -> None:
        if messages.size:
            self._batches["grant"].append((t, messages.copy(), edges.copy()))

    def on_block(self, t: int, messages: np.ndarray, edges: np.ndarray) -> None:
        if messages.size:
            self._batches["block"].append((t, messages.copy(), edges.copy()))

    def on_release(self, t: int, messages: np.ndarray, edges: np.ndarray) -> None:
        if messages.size:
            self._batches["release"].append((t, messages.copy(), edges.copy()))

    def on_complete(self, t: int, messages: np.ndarray) -> None:
        if messages.size:
            self._batches["complete"].append((t, messages.copy()))

    def on_deadlock(self, t: int, pending: np.ndarray) -> None:
        self._batches["deadlock"].append((t, pending.copy()))

    def on_run_end(self, result) -> None:
        self._end = {
            "steps": int(result.steps_executed),
            "makespan": int(result.makespan),
            "deadlocked": bool(result.deadlocked),
            "hit_step_cap": bool(result.hit_step_cap),
        }

    # ------------------------------------------------------------------
    def to_trace(self) -> Trace:
        events: dict[str, tuple[np.ndarray, ...]] = {}
        for ev in _EDGE_EVENTS:
            batches = self._batches[ev]
            if batches:
                t = np.concatenate(
                    [np.full(m.size, bt, dtype=np.int64) for bt, m, _ in batches]
                )
                m = np.concatenate([m for _, m, _ in batches]).astype(np.int64)
                e = np.concatenate([e for _, _, e in batches]).astype(np.int64)
            else:
                t = m = e = np.zeros(0, dtype=np.int64)
            events[ev] = (t, m, e)
        for ev in _MSG_EVENTS:
            batches = self._batches[ev]
            if batches:
                t = np.concatenate(
                    [np.full(m.size, bt, dtype=np.int64) for bt, m in batches]
                )
                m = np.concatenate([m for _, m in batches]).astype(np.int64)
            else:
                t = m = np.zeros(0, dtype=np.int64)
            events[ev] = (t, m)
        return Trace(meta=dict(self._meta), events=events, end=dict(self._end))

    def save(self, path: str | Path) -> Path:
        """Write the trace as JSONL."""
        return write_trace(self.to_trace(), path)


# ----------------------------------------------------------------------
def write_trace(trace: Trace, path: str | Path) -> Path:
    path = Path(path)
    # Group flat arrays back into per-(t, ev) batch lines, in step order (event types at equal t are written grant, block,
    # release, complete, deadlock — replay does not depend on intra-step
    # order).
    lines = [json.dumps(trace.meta)]
    records: list[tuple[int, int, str, dict]] = []
    for rank, ev in enumerate(_EDGE_EVENTS):
        t, m, e = trace.events[ev]
        for step in np.unique(t) if t.size else ():
            sel = t == step
            records.append(
                (
                    int(step),
                    rank,
                    ev,
                    {"m": m[sel].tolist(), "e": e[sel].tolist()},
                )
            )
    for rank, ev in enumerate(_MSG_EVENTS, start=len(_EDGE_EVENTS)):
        t, m = trace.events[ev]
        for step in np.unique(t) if t.size else ():
            sel = t == step
            records.append((int(step), rank, ev, {"m": m[sel].tolist()}))
    for step, _, ev, payload in sorted(records, key=lambda r: (r[0], r[1])):
        lines.append(json.dumps({"t": step, "ev": ev, **payload}))
    lines.append(json.dumps({"ev": "end", **trace.end}))
    path.write_text("\n".join(lines) + "\n")
    return path


def load_trace(path: str | Path) -> Trace:
    """Read a JSONL trace; a file that is not one — binary, truncated,
    foreign or from a newer version — is a :class:`TraceError`."""
    path = Path(path)
    try:
        records = [
            json.loads(line) for line in path.read_text().splitlines()
            if line.strip()
        ]
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TraceError(f"{path}: not a JSONL trace ({exc})") from None
    if not records:
        raise TraceError(f"{path}: empty trace file")
    header = records[0]
    _check_header(header, path)
    batches: dict[str, list[tuple]] = {ev: [] for ev in _EDGE_EVENTS + _MSG_EVENTS}
    end: dict = {}
    for rec in records[1:]:
        ev = rec.get("ev")
        if ev == "end":
            end = {k: v for k, v in rec.items() if k != "ev"}
        elif ev in _EDGE_EVENTS:
            batches[ev].append((rec["t"], rec["m"], rec["e"]))
        elif ev in _MSG_EVENTS:
            batches[ev].append((rec["t"], rec["m"]))
        else:
            raise TraceError(f"{path}: unknown event type {ev!r}")
    events = {}
    for ev in _EDGE_EVENTS:
        t_list: list[int] = []
        m_list: list[int] = []
        e_list: list[int] = []
        for t, m, e in batches[ev]:
            t_list.extend([t] * len(m))
            m_list.extend(m)
            e_list.extend(e)
        events[ev] = (
            np.asarray(t_list, dtype=np.int64),
            np.asarray(m_list, dtype=np.int64),
            np.asarray(e_list, dtype=np.int64),
        )
    for ev in _MSG_EVENTS:
        t_list, m_list = [], []
        for t, m in batches[ev]:
            t_list.extend([t] * len(m))
            m_list.extend(m)
        events[ev] = (
            np.asarray(t_list, dtype=np.int64),
            np.asarray(m_list, dtype=np.int64),
        )
    return Trace(meta=header, events=events, end=end)


def _check_header(header, path: Path) -> None:
    if not isinstance(header, dict) or header.get("format") != TRACE_FORMAT:
        raise TraceError(f"{path}: not a {TRACE_FORMAT} file")
    if int(header.get("version", -1)) > TRACE_VERSION:
        raise TraceError(
            f"{path}: trace version {header.get('version')} is newer than "
            f"supported version {TRACE_VERSION}"
        )


# ----------------------------------------------------------------------
def replay_completions(trace: Trace) -> np.ndarray:
    """Re-derive per-message completion times from grant events alone.

    Only defined for the wormhole engine, whose lock-step reduction
    makes the full trajectory a function of the grant sequence: a worm
    moves in step ``t`` iff it was granted its next edge at ``t`` or it
    has entered all its edges and is draining.
    """
    if trace.meta.get("simulator") != "wormhole":
        raise TraceError(
            "replay is only defined for wormhole-engine traces "
            f"(got {trace.meta.get('simulator')!r})"
        )
    M = int(trace.meta["num_messages"])
    D = np.asarray(trace.meta["lengths"], dtype=np.int64)
    L = np.asarray(trace.meta["message_length"], dtype=np.int64)
    release = np.asarray(trace.meta["release"], dtype=np.int64)
    total_moves = L + D - 1

    grant_t, grant_m, _ = trace.events["grant"]
    order = np.argsort(grant_t, kind="stable")
    grant_t, grant_m = grant_t[order], grant_m[order]
    bounds = np.searchsorted(grant_t, np.arange(1, trace.steps + 2))

    k = np.zeros(M, dtype=np.int64)
    completion = np.full(M, -1, dtype=np.int64)
    done = D == 0
    completion[done] = release[done]

    granted = np.zeros(M, dtype=bool)
    for t in range(1, trace.steps + 1):
        lo, hi = bounds[t - 1], bounds[t]
        granted[:] = False
        if hi > lo:
            granted[grant_m[lo:hi]] = True
        movers = ~done & (release < t) & (granted | (k >= D))
        if not movers.any():
            continue
        k[movers] += 1
        newly = movers & (k == total_moves)
        completion[newly] = t
        done |= newly
    return completion


def replay_check(trace: Trace, result=None) -> np.ndarray:
    """Replay a trace and assert bit-exact agreement.

    Checks the re-derived completion times against the trace's recorded
    ``complete`` events and, when ``result`` (a
    :class:`~repro.sim.stats.SimulationResult`) is given, against its
    ``completion_times`` too.  Raises :class:`TraceError` on any
    mismatch; returns the re-derived completion array.
    """
    derived = replay_completions(trace)
    recorded = trace.completion_times()
    if not np.array_equal(derived, recorded):
        bad = np.flatnonzero(derived != recorded)
        raise TraceError(
            f"replay mismatch vs recorded completions for messages "
            f"{bad[:10].tolist()}: derived {derived[bad[:10]].tolist()} "
            f"!= recorded {recorded[bad[:10]].tolist()}"
        )
    if result is not None and not np.array_equal(
        derived, np.asarray(result.completion_times)
    ):
        bad = np.flatnonzero(derived != np.asarray(result.completion_times))
        raise TraceError(
            f"replay mismatch vs SimulationResult for messages "
            f"{bad[:10].tolist()}"
        )
    return derived
