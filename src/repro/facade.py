"""One front door for the router simulators: :func:`repro.simulate`.

The package grew five flit-level router models, each with its own
constructor knob for "buffering per physical channel" (virtual
channels, buffer flits, link bandwidth, buffer slots) and its own
``run`` shape.  :func:`simulate` is the unified entry point: one
``problem``, one ``model`` name, one ``B``, and per-model defaults that
match what the sweep runner uses — so a facade call is bit-identical
to constructing the simulator directly with the same seed.

Migration table — legacy entry point to facade call:

=====================================================  =====================================
Legacy                                                 Facade
=====================================================  =====================================
``WormholeSimulator(net, B, p, s).run(paths, L)``      ``simulate((net, paths), model="wormhole", B=B, priority=p, seed=s, message_length=L)``
``CutThroughSimulator(net, B, p, s).run(paths, L)``    ``simulate((net, paths), model="cut_through", B=B, priority=p, seed=s, message_length=L)``
``StoreForwardSimulator(net, B, p, s).run(paths, L)``  ``simulate((net, paths), model="store_forward", B=B, priority=p, seed=s, message_length=L)``
``RestrictedWormholeSimulator(net, B, s).run(p, L)``   ``simulate((net, paths), model="restricted", B=B, seed=s, message_length=L)``
``AdaptiveMeshRouter(cube, B, pol, s).run(d, L)``      ``simulate((cube, demands), model="adaptive", B=B, policy=pol, seed=s, message_length=L)``
``ContinuousWormholeSimulator(net, n, B, s).run(...)`` ``simulate((net, n, path_of), model="continuous", B=B, seed=s, message_length=L, rate=r, horizon=h)``
``run_<model>_batch(net, paths, L, seeds=...)``        ``simulate((net, paths), model=..., B=B, batch=seeds, message_length=L)``
bare ``SimulationResult`` return                       :class:`SimResult` (attribute-compatible wrapper)
``metrics["steps"]``                                   ``result.steps``
``metrics["delivered"]`` count                         ``result.num_delivered``
``metrics["completion_digest"]`` / raw times           ``result.delays``
(no legacy equivalent)                                 ``result.mode`` / ``result.provenance`` / ``simulate(..., mode="estimate")`` -> ``result.envelope``
=====================================================  =====================================

Passing ``batch=[seed, ...]`` runs one lockstep trial per seed through
the model's driver (:mod:`repro.sim.batch`; every flit-level router)
and returns a list of results, each bit-identical to the ``seed=...``
call — which is the same driver with one seed.

``problem`` may be:

* a ``(net, paths)`` tuple — the network (or cube + demands for the
  adaptive model, or ``(net, num_sources, path_of)`` for the continuous
  model) plus the routes;
* a :class:`~repro.sim.sweep.Workload` instance;
* a registered workload name (see ``repro.sim.sweep.WORKLOADS``), with
  ``workload_params``.  Registered scenarios (``repro.scenarios``)
  appear here as ``scenario:<name>``.

Every model returns a :class:`SimResult` wrapping the underlying
:class:`~repro.sim.stats.SimulationResult` (the adaptive router's
chosen routes are dropped — use
:class:`~repro.sim.adaptive.AdaptiveMeshRouter` directly if you need
``taken_paths``) except ``"continuous"``, which returns its
:class:`~repro.sim.continuous.ContinuousResult` rate report unwrapped.
With ``mode="estimate"`` no simulation runs at all: the result carries
a :class:`~repro.analysis.estimate.DelayEnvelope` (analytic lower /
upper makespan bounds) computed in microseconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .network.graph import NetworkError
from .sim.batch import LOCKSTEP_MODELS, run_model
from .sim.spec import exact_int
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
MODELS = (*LOCKSTEP_MODELS, "continuous")


def _as_workload(problem: Any, model: str, workload_params) -> Workload:
    """Coerce any accepted ``problem`` form into a :class:`Workload`."""
    if isinstance(problem, Workload):
        return problem
    if isinstance(problem, str):
        return build_workload(problem, dict(workload_params or {}))
    if isinstance(problem, tuple) and len(problem) == 2:
        first, second = problem
        if LOCKSTEP_MODELS[model].kind == "mesh":
            return Workload(
                net=getattr(first, "network", first),
                cube=first,
                demands=list(second),
            )
        return Workload(net=first, paths=list(second))
    raise TypeError(
        f"problem must be a workload name, a Workload, or a (net, paths) "
        f"tuple; got {type(problem).__name__}"
    )


def _simulate_continuous(
    problem: Any, *, B, message_length, seed, rate, horizon, sample_every
):
    """The steady-state model's own entry (it is not a lockstep model)."""
    from .sim.continuous import ContinuousWormholeSimulator

    if not (isinstance(problem, tuple) and len(problem) == 3):
        raise TypeError(
            "the continuous model takes problem=(net, num_sources, path_of)"
        )
    net, num_sources, path_of = problem
    if rate is None or horizon is None:
        raise TypeError("the continuous model needs rate=... and horizon=...")
    if message_length is None:
        raise NetworkError("the continuous model needs message_length")
    sim = ContinuousWormholeSimulator(
        net, num_sources, num_virtual_channels=B, seed=seed
    )
    return sim.run(
        rate,
        message_length,
        path_of,
        horizon=int(horizon),
        sample_every=int(sample_every),
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
    vc_ids: Any = None,
    telemetry: Any = None,
    max_steps: int | None = None,
    release_times: Any = None,
    workload_params: dict[str, Any] | None = None,
    rate: Any = None,
    horizon: int | None = None,
    sample_every: int = 50,
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
        knob: virtual channels (wormhole / adaptive / continuous),
        buffer flits (cut-through), link bandwidth (store-and-forward),
        or buffer slots (restricted).
    mode:
        ``"exact"`` (default) runs the simulator; ``"estimate"``
        computes the analytic delay envelope instead
        (:mod:`repro.analysis.estimate`) — no simulation, microsecond
        latency, and the returned :class:`SimResult` carries the
        envelope's ``lower`` / ``upper`` makespan bounds in place of a
        trajectory.  Estimates exist for every batched model (adaptive
        is upper-bound only); the continuous model and the ``batch=`` /
        ``telemetry`` options are exact-mode features.
    message_length:
        Flits per message; defaults to the workload's recommended
        length for name/:class:`Workload` problems, required otherwise.
    seed / priority / policy:
        Passed to the model's constructor exactly as a direct call
        would, so facade results are bit-identical to constructing the
        simulator yourself.  ``priority`` defaults per model to the
        sweep runner's choice; ``policy`` is the adaptive turn model.
    batch:
        A sequence of per-trial seeds.  When given, the problem runs as
        one lockstep batch through the model's kernel
        (:mod:`repro.sim.batch`; every flit-level router) and a *list*
        of results comes back, one per seed, each bit-identical to the
        ``seed=...`` call.  ``seed`` is ignored; ``telemetry``
        is rejected (probes attach to a single trial).
    vc_ids:
        Per-hop virtual-channel class assignment (e.g. a Dally–Seitz
        dateline), wormhole model only.
    telemetry:
        :mod:`repro.telemetry` probes, for the models that accept them
        (wormhole, cut-through, store-and-forward, adaptive).
    max_steps / release_times:
        Forwarded to the model's ``run``.
    workload_params:
        Builder parameters when ``problem`` is a workload name.
    rate / horizon / sample_every:
        Continuous-model load parameters (ignored otherwise); ``rate``
        is a scalar arrival probability or a ``(horizon,)`` per-step
        trace.

    Returns
    -------
    :class:`SimResult` wrapping the
    :class:`~repro.sim.stats.SimulationResult` (a list of them for
    ``batch=`` runs) — or the continuous model's bare
    :class:`~repro.sim.continuous.ContinuousResult`.
    """
    if model not in MODELS:
        raise NetworkError(
            f"unknown model {model!r}; supported: {', '.join(MODELS)}"
        )
    if mode not in SIMULATE_MODES:
        raise NetworkError(
            f"unknown mode {mode!r}; supported: {', '.join(SIMULATE_MODES)}"
        )
    if mode == "estimate":
        from .analysis.estimate import EstimateError, estimate_workload

        if model == "continuous":
            raise EstimateError(
                "the continuous model has no analytic envelope; estimable "
                "models are the batched routers (see "
                "repro.analysis.estimate.ESTIMATABLE_MODELS)"
            )
        for name, value in (("batch", batch), ("telemetry", telemetry)):
            if value is not None:
                raise NetworkError(
                    f"{name}= is an exact-mode feature; estimates are "
                    "single closed-form evaluations"
                )
        wl = _as_workload(problem, model, workload_params)
        env = estimate_workload(
            wl,
            model,
            B=exact_int(B, "B"),
            message_length=_default_length(problem, wl, message_length),
            release_times=release_times,
        )
        return SimResult(mode="estimate", provenance="estimate", envelope=env)
    if batch is not None and model not in LOCKSTEP_MODELS:
        raise NetworkError(
            f"model {model!r} has no lockstep batch runner; batched "
            f"models: {', '.join(LOCKSTEP_MODELS)}"
        )
    if telemetry is not None and model not in LOCKSTEP_MODELS:
        raise NetworkError(
            f"model {model!r} does not support telemetry probes"
        )
    if batch is not None and telemetry is not None:
        raise NetworkError(
            "telemetry probes attach to a single trial; run batches "
            "without telemetry"
        )
    if model == "continuous":
        # A rate report with its own shape: returned bare.
        return _simulate_continuous(
            problem,
            B=B,
            message_length=message_length,
            seed=seed,
            rate=rate,
            horizon=horizon,
            sample_every=sample_every,
        )
    # Every lockstep model — one seed or a ``batch=`` of them — is one
    # repro.sim.batch.run_model call.
    wl = _as_workload(problem, model, workload_params)
    results = [
        SimResult(mode="exact", provenance="exact", result=raw)
        for raw in run_model(
            model,
            wl,
            _default_length(problem, wl, message_length),
            seeds=[seed] if batch is None else list(batch),
            B=exact_int(B, "B"),
            options={"priority": priority, "policy": policy},
            release_times=release_times,
            max_steps=max_steps,
            vc_ids=vc_ids,
            telemetry=telemetry,
        )
    ]
    return results[0] if batch is None else results
