"""Span recording for the traced pass, from outside the program.

A span is ``(name, start, end, id, parent, op, round)``.  Spans come from two
places: perfbench's own call sites (``Tracer.call``) and public attributes of
``repro`` rebound to timing wrappers while a traced round runs
(``Tracer.install`` / ``uninstall``) — the engine reaches the grant scan
through ``fastpath.segmented_grant``, the drivers reach the kernels through
``kernel.body`` and the batch runners through the ``repro.sim.batch`` module,
so rebinding those names sees every call without editing ``src/``.

Busy and self time are accumulated as spans close (self = busy minus the
time covered by direct child spans), per round; only the spans of the first
:data:`KEEP_ROUNDS` traced rounds are kept for the trace file, which bounds
memory and file size on workloads that make 10^5 kernel calls per round.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path
from time import perf_counter

MODELS = ("wormhole", "cut_through", "store_forward", "restricted", "adaptive")
_KERNEL_CLASS = {
    "wormhole": "WormholeKernel",
    "cut_through": "CutThroughKernel",
    "store_forward": "StoreForwardKernel",
    "restricted": "RestrictedKernel",
    "adaptive": "AdaptiveKernel",
}
KEEP_ROUNDS = 2


class Tracer:
    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.active = False
        self.round = 0
        self.op = 0  # set by the driver: one id per trial call / request
        self.origin = perf_counter()
        self.spans: list[tuple] = []
        self.total_spans = 0
        self.rounds: list[dict] = []  # one closed-round summary per traced round
        self.captured_units: list[tuple] = []  # (fn, payload) seen by exec.map
        self._stack: list[list] = []
        self._next_id = 0
        self._keep = False
        self._patches: list[tuple] = []
        self._reset_round()

    def _reset_round(self) -> None:
        self._agg = defaultdict(lambda: [0, 0.0, 0.0])  # calls, busy, child
        self._extra = defaultdict(float)
        self._samples = defaultdict(list)

    # -- recording -----------------------------------------------------
    def wrap(self, name: str, fn, note=None):
        """``fn`` with a span around every call made while a round is traced."""
        tr = self

        def traced(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            stack = tr._stack
            sid = tr._next_id
            tr._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                agg = tr._agg[name]
                agg[0] += 1
                agg[1] += dur
                agg[2] += frame[1]
                if stack:
                    stack[-1][1] += dur
                if tr._keep:
                    tr.spans.append((name, t0, t1, sid, parent, tr.op, tr.round))
                if note is not None:
                    note(tr, args, kwargs)

        return traced

    def wrap_sample(self, name: str, fn):
        """Durations only, no span: for calls too short to carry one."""
        tr = self

        def timed(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            tr._samples[name].append(perf_counter() - t0)
            return out

        return timed

    def call(self, name: str, fn, *args, **kwargs):
        """A span around one call made by perfbench itself."""
        return self.wrap(name, fn)(*args, **kwargs)

    def add_span(self, name: str, start: float, end: float, op: int) -> None:
        """A span measured elsewhere (the generator's request clock)."""
        agg = self._agg[name]
        agg[0] += 1
        agg[1] += end - start
        if self._keep:
            sid = self._next_id
            self._next_id = sid + 1
            self.spans.append((name, start, end, sid, -1, op, self.round))

    def count(self, name: str, n: float) -> None:
        self._extra[name] += n

    # -- rounds --------------------------------------------------------
    def begin_round(self, rnd: int) -> None:
        self.round = rnd
        self._keep = len(self.rounds) < KEEP_ROUNDS
        self.install()
        self.active = True

    def end_round(self) -> None:
        self.active = False
        self.uninstall()
        spans = sum(a[0] for a in self._agg.values())
        self.total_spans += spans
        self.rounds.append(
            {
                "round": self.round,
                "agg": {k: tuple(v) for k, v in self._agg.items()},
                "extra": dict(self._extra),
                "samples": dict(self._samples),
            }
        )
        self._reset_round()

    # -- per-round summaries -------------------------------------------
    def _per_round(self, name: str) -> list[tuple]:
        """``(calls, busy, child)`` of ``name`` in every traced round."""
        return [r["agg"].get(name, (0, 0.0, 0.0)) for r in self.rounds]

    def calls(self, name: str) -> int:
        """Exact count: calls in the *first* traced round (fixed work)."""
        return self._per_round(name)[0][0] if self.rounds else 0

    def calls_by_round(self, name: str) -> dict[int, int]:
        return {r["round"]: agg[0] for r, agg in zip(self.rounds, self._per_round(name))}

    def extra(self, name: str) -> float:
        return self.rounds[0]["extra"].get(name, 0.0) if self.rounds else 0.0

    def busy_s(self, name: str) -> float:
        """Median over traced rounds of the seconds spent inside ``name``."""
        return _median(busy for _, busy, _ in self._per_round(name))

    def self_s(self, name: str) -> float:
        return _median(busy - child for _, busy, child in self._per_round(name))

    def sample_p50_us(self, name: str) -> float:
        values = [v for r in self.rounds for v in r["samples"].get(name, ())]
        return statistics.median(values) * 1e6 if values else 0.0

    # -- rebinding -----------------------------------------------------
    def install(self) -> None:
        from repro.exec.inline import InlineBackend
        from repro.sim import batch, fastpath, kernels, sweep

        self._patch(fastpath, "segmented_grant", "sim.fastpath.grant", _note_grant)
        for model, cls in _KERNEL_CLASS.items():
            self._patch(getattr(kernels, cls), "body", f"sim.kernels.{model}")
            self._patch(batch, f"run_{model}_batch", f"sim.batch.{model}", _note_batch(model))
        self._patch(InlineBackend, "map", "exec.map", _note_exec)
        original = sweep.trial_seed
        self._patches.append((sweep, "trial_seed", original))
        sweep.trial_seed = self.wrap_sample("sim.sweep.trial_seed", original)

    def _patch(self, owner, attr: str, name: str, note=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, note))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------
    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for name, start, end, sid, parent, op, rnd in self.spans:
                out.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": round(start - self.origin, 9),
                            "end": round(end - self.origin, 9),
                            "id": sid,
                            "parent": parent,
                            "op": op,
                            "workload": self.workload,
                            "round": rnd,
                        }
                    )
                    + "\n"
                )


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _note_grant(tr: Tracer, args, kwargs) -> None:
    tr.count("grant_slots", args[0].size)  # sorted_slots: one entry per contender


def _note_batch(model: str):
    def note(tr: Tracer, args, kwargs) -> None:
        tr.count(f"batch_trials.{model}", len(kwargs["seeds"]))

    return note


def _note_exec(tr: Tracer, args, kwargs) -> None:
    backend, fn, units = args
    tr.count("exec_units", len(units))
    counters = backend.stats.counters
    tr.count("exec_retries", counters["retried"])
    tr.count("exec_worker_restarts", counters["worker_restarts"])
    if len(tr.captured_units) < 64:
        tr.captured_units.extend((fn, unit) for unit in units[:4])
