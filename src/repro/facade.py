"""One front door for the router simulators: :func:`repro.simulate`.

Each flit-level router model names its "buffering per physical
channel" knob in its own words (virtual channels, buffer flits, link
bandwidth, buffer slots).  :func:`simulate` dispatches by model name:
one ``problem``, one ``model``, one ``B``, and per-model defaults that
match what the sweep runner uses.  Every call is one
:func:`~repro.sim.batch.run_model` call of the model's
``run_<model>_batch`` driver with one seed — the same call the sweep,
the service and the ``repro.core`` routines make.  Passing
``batch=[seed, ...]`` runs one lockstep trial per seed and returns a
list of results, each bit-identical to the ``seed=...`` call.

``problem`` may be:

* a ``(net, paths)`` tuple — the network (or cube + demands for the
  adaptive model) plus the routes, as edge-id lists,
  :class:`~repro.routing.paths.Path` values or one
  :class:`~repro.sim.engine.PaddedPaths` pack;
* a :class:`~repro.sim.sweep.Workload` instance;
* a registered workload name (see ``repro.sim.sweep.WORKLOADS``), with
  ``workload_params``.  Registered scenarios (``repro.scenarios``)
  appear here as ``scenario:<name>``.

Whatever the form, the trial is the one :class:`Workload` it becomes:
its release times, injection sources and virtual-channel classes reach
the model exactly as they do through the sweep and the service.

Every model returns a :class:`SimResult` wrapping the underlying
:class:`~repro.sim.stats.SimulationResult` (the adaptive router's
chosen routes are dropped — call
:func:`~repro.sim.batch.run_adaptive_batch` if you need
``taken_paths``).  An open-loop arrival trace is a wormhole workload
whose releases are its arrivals (the ``scenario:*-arrivals`` names);
:meth:`~repro.sim.continuous.ContinuousResult.of` reads its rate report
(throughput, latency, backlog) off the finished trial.  With
``mode="estimate"`` no simulation runs at all: the result carries
a :class:`~repro.analysis.estimate.DelayEnvelope` (analytic lower /
upper makespan bounds) computed in microseconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .network.graph import NetworkError
from .sim.batch import LOCKSTEP_MODELS, resolve_arbitration, run_model
from .sim.engine import PaddedPaths
from .sim.spec import _builder, exact_int, with_trial_B
from .sim.sweep import Workload, build_workload

__all__ = ["MODELS", "SIMULATE_MODES", "SimResult", "simulate"]

#: Execution modes of :func:`simulate` (and of v1 wire run requests).
SIMULATE_MODES = ("exact", "estimate")


@dataclass
class SimResult:
    """Structured result of one :func:`simulate` call.

    Attributes
    ----------
    mode:
        The execution mode that produced it: ``"exact"`` (a simulation
        ran) or ``"estimate"`` (analytic envelope, no simulation).
    provenance:
        Where the numbers came from: ``"exact"`` | ``"estimate"`` |
        ``"cache"`` (an exact result served from a result cache, e.g.
        by :func:`repro.sim.sweep.run_sweep` or the cluster tier).
    result:
        The wrapped :class:`~repro.sim.stats.SimulationResult` (exact
        runs only).  Every attribute of it — ``makespan``,
        ``completion_times``, ``deadlocked``, ... — is also reachable
        directly on this object, so exact results are drop-in
        compatible with the bare results :func:`simulate` used to
        return.
    envelope:
        The :class:`~repro.analysis.estimate.DelayEnvelope` (estimate
        runs only); its ``lower`` / ``upper`` / ``tightness`` fields
        are likewise reachable directly.
    """

    mode: str
    provenance: str
    result: Any = None
    envelope: Any = None

    @property
    def steps(self) -> int:
        """Flit steps executed (0 for estimates — nothing is simulated)."""
        return 0 if self.result is None else int(self.result.steps_executed)

    @property
    def delays(self) -> np.ndarray:
        """Per-message delivery times: measured completion times for
        exact runs, analytic per-message floors for estimates."""
        if self.result is not None:
            return self.result.completion_times
        return np.asarray(self.envelope.per_message_lower, dtype=np.int64)

    def __getattr__(self, name: str) -> Any:
        # Dataclass fields resolve normally; only unknown names land
        # here and are forwarded to the wrapped result / envelope.  The
        # field names themselves must never recurse (unpickling probes
        # attributes before __dict__ is populated).
        if name.startswith("_") or name in (
            "mode",
            "provenance",
            "result",
            "envelope",
        ):
            raise AttributeError(name)
        target = self.result if self.result is not None else self.envelope
        if target is not None:
            try:
                return getattr(target, name)
            except AttributeError:
                pass
        raise AttributeError(
            f"{type(self).__name__} ({self.mode} mode) has no attribute "
            f"{name!r}"
        )


#: The models :func:`simulate` dispatches across, in paper order.
MODELS = tuple(LOCKSTEP_MODELS)


def _as_workload(problem: Any, model: str, workload_params, B: int) -> Workload:
    """Coerce any accepted ``problem`` form into a :class:`Workload`; a
    name is built for the trial's ``B`` where its builder takes one
    (:func:`~repro.sim.spec.with_trial_B`)."""
    if isinstance(problem, Workload):
        return problem
    if isinstance(problem, str):
        params = dict(workload_params or {})
        return build_workload(problem, with_trial_B(_builder(problem), params, B))
    if isinstance(problem, tuple) and len(problem) == 2:
        first, second = problem
        if LOCKSTEP_MODELS[model].kind == "mesh":
            return Workload(
                net=getattr(first, "network", first),
                cube=first,
                demands=list(second),
            )
        if isinstance(second, PaddedPaths):
            # A pre-packed path set: each row's first ``lengths`` cells.
            rows = zip(second.padded.tolist(), second.lengths.tolist())
            return Workload(net=first, paths=[row[:n] for row, n in rows])
        return Workload(net=first, paths=list(second))
    raise TypeError(
        f"problem must be a workload name, a Workload, or a (net, paths) "
        f"tuple; got {type(problem).__name__}"
    )


def _default_length(problem: Any, wl: Workload, message_length):
    """``L`` for the run: explicit, else the workload's recommendation."""
    if message_length is not None:
        return message_length
    if isinstance(problem, (str, Workload)):
        return wl.default_length
    raise NetworkError("message_length is required with a (net, paths) problem")


def simulate(
    problem: Any,
    *,
    model: str = "wormhole",
    B: int = 1,
    mode: str = "exact",
    message_length: int | None = None,
    seed: int | None = 0,
    priority: str | None = None,
    policy: str | None = None,
    batch: Any = None,
    telemetry: Any = None,
    max_steps: int | None = None,
    workload_params: dict[str, Any] | None = None,
):
    """Simulate ``problem`` under ``model`` with ``B`` channel buffers.

    Parameters
    ----------
    problem:
        A ``(net, paths)`` tuple, a :class:`~repro.sim.sweep.Workload`,
        or a registered workload name (see the module docstring for the
        per-model tuple shapes).
    model:
        One of :data:`MODELS`.  ``B`` maps onto each model's buffering
        knob: virtual channels (wormhole / adaptive),
        buffer flits (cut-through), link bandwidth (store-and-forward),
        or buffer slots (restricted).
    mode:
        ``"exact"`` (default) runs the simulator; ``"estimate"``
        computes the analytic delay envelope instead
        (:mod:`repro.analysis.estimate`) — no simulation, microsecond
        latency, and the returned :class:`SimResult` carries the
        envelope's ``lower`` / ``upper`` makespan bounds in place of a
        trajectory.  Estimates exist for every model (adaptive is
        upper-bound only); the ``batch=`` / ``telemetry`` options are
        exact-mode features.
    message_length:
        Flits per message; defaults to the workload's recommended
        length for name/:class:`Workload` problems, required otherwise.
    seed / priority / policy:
        The trial's seed (anything ``np.random.default_rng`` accepts; a
        ``Generator`` passes through, so two calls given one continue
        its stream) and arbitration, passed to the model's
        ``run_<model>_batch`` driver unchanged.  ``priority`` defaults
        per model to the sweep runner's choice; ``policy`` is the
        adaptive turn model.
        A workload's own ``arbitration`` is used where the model offers
        it; an option given again for it, or one the model does not
        take, is an error, not ignored.
    batch:
        A sequence of per-trial seeds.  When given, the problem runs as
        one lockstep batch through the model's kernel
        (:mod:`repro.sim.batch`; every flit-level router) and a *list*
        of results comes back, one per seed, each bit-identical to the
        ``seed=...`` call.  ``seed`` is ignored; ``telemetry``
        is rejected (probes attach to a single trial).
    telemetry:
        :mod:`repro.telemetry` probes, for the models that accept them
        (wormhole, cut-through, store-and-forward, adaptive).
    max_steps:
        Forwarded to the model's driver.
    workload_params:
        Builder parameters when ``problem`` is a workload name.  A
        builder that takes a ``B`` is built for this ``B`` unless they
        name one.

    Returns
    -------
    :class:`SimResult` wrapping the
    :class:`~repro.sim.stats.SimulationResult` (a list of them for
    ``batch=`` runs).
    """
    if model not in MODELS:
        raise NetworkError(
            f"unknown model {model!r}; supported: {', '.join(MODELS)}"
        )
    if mode not in SIMULATE_MODES:
        raise NetworkError(
            f"unknown mode {mode!r}; supported: {', '.join(SIMULATE_MODES)}"
        )
    B = exact_int(B, "B")
    wl = _as_workload(problem, model, workload_params, B)
    if mode == "estimate":
        from .analysis.estimate import estimate_workload

        for name, value in (("batch", batch), ("telemetry", telemetry)):
            if value is not None:
                raise NetworkError(
                    f"{name}= is an exact-mode feature; estimates are "
                    "single closed-form evaluations"
                )
        resolve_arbitration(model, wl, {"priority": priority, "policy": policy})
        env = estimate_workload(
            wl,
            model,
            B=B,
            message_length=_default_length(problem, wl, message_length),
        )
        return SimResult(mode="estimate", provenance="estimate", envelope=env)
    if batch is not None and telemetry is not None:
        raise NetworkError(
            "telemetry probes attach to a single trial; run batches "
            "without telemetry"
        )
    # Every model — one seed or a ``batch=`` of them — is one
    # repro.sim.batch.run_model call.
    results = [
        SimResult(mode="exact", provenance="exact", result=raw)
        for raw in run_model(
            model,
            wl,
            _default_length(problem, wl, message_length),
            seeds=[seed] if batch is None else list(batch),
            B=B,
            options={"priority": priority, "policy": policy},
            max_steps=max_steps,
            telemetry=telemetry,
        )
    ]
    return results[0] if batch is None else results
