"""The lockstep driver and the model table: the one way a trial runs.

Every sweep in this repository (E1/E2/E5, ``repro sweep``) runs many
*independent* trials over the same workload — one per ``(B, seed)``
grid cell — and each trial's engine state is nothing but flat integer
arrays per message.  This module stacks ``T`` such trials into
``(T, M)`` state arrays and steps them in lockstep, for **every** router
model, and it is also how a *single* trial runs: ``T = 1``, one seed.

===============================  =====================================
typed entry point                model (paper section)
===============================  =====================================
:func:`run_wormhole_batch`       ``B`` virtual channels (1.1)
:func:`run_cut_through_batch`    ``B``-flit cut-through buffer (1.4)
:func:`run_store_forward_batch`  store-and-forward, bandwidth ``B`` (1)
:func:`run_restricted_batch`     restricted multiplexing (1.4 Remarks)
:func:`run_adaptive_batch`       adaptive mesh / multibutterfly (1.3.4)
===============================  =====================================

Outside ``repro.sim`` a trial is one :func:`repro.simulate` call,
which reaches the same :func:`_drive`; ``repro.core`` runs none, its algorithms
build workloads.

Each ``run_<model>_batch`` is a signature, a docstring and one call of
:func:`_drive`, the single driver body: the shared prologue
(:func:`_begin`) and the model's ``Kernel.pack`` are the only input
validation any path performs, then the matching :mod:`repro.sim.kernels`
kernel is built at ``T`` trials over a
:class:`~repro.sim.engine.BatchStepLoop` and stepped:

* one vectorized contend/rank/grant arbitration per step over the
  combined ``(trial, slot)`` key space
  (:class:`~repro.sim.engine.BatchSlotArbiter`);
* one stacked acquire/release/completion update per step, or per span
  of forced wormhole steps (DESIGN decision 6);
* one shared clock with per-trial completion / deadlock / step-cap
  masking, so finished trials drop out of the active set without
  stalling the batch.

:data:`LOCKSTEP_MODELS` is the model table: one :class:`ModelSpec` row
per buffer model (kernel class, per-trial knob keyword, arbitration
option and its default, problem kind, telemetry capability, step-cap
rule), and :func:`run_model` is the one dispatch over it — the sweep
runner, the service batcher and :func:`repro.simulate` all reach a model
through it, so a new buffer model is one kernel class and one row (plus
its name in the NumPy-free :data:`repro.sim.spec.SIMULATORS`, which
:mod:`repro.sim.sweep` checks against this table at import);
``run_<model>_batch`` is its typed name.  :func:`batch_compat_key`,
which decides who may share a call, lives in :mod:`repro.sim.spec` and
is re-exported here.

Bit-exactness contract
----------------------
``run_<model>_batch(...)[i]`` is bit-identical to the same call with
``seeds=[seeds[i]]`` and trial ``i``'s knob alone — same completion
times, makespan, executed steps, blocked counts, deadlock flags,
step-cap flags, and per-trial ``extra`` keys (and, for adaptive, the
same taken paths).  The load-bearing facts:

* trials are independent: trial ``i``'s state is read and written only
  where trial ``i`` has active messages, and the combined arbitration
  key space keeps slot groups of different trials disjoint;
* each trial keeps its **own** RNG (``np.random.default_rng(seeds[i])``;
  a ``Generator`` passes through, which is how two calls continue one
  stream — E12 runs the two phases of
  :func:`~repro.core.online_routing.valiant_phase_workloads` on one)
  and draws from it in a fixed order — per-step draws happen only in steps where that
  trial acts, setup-time draws (rank permutations, rotating-service
  offsets, injection delays) happen once per trial at startup;
* the shared clock visits every step at which any trial acts; a trial's
  state does not change during steps where it merely waits, so running
  through another trial's steps is observationally identical to
  skipping them (see :class:`BatchStepLoop`).

The batch-vs-single equivalence suites (``tests/sim/test_batch.py``
and ``tests/sim/test_batch_models.py``) pin this contract over the
golden-case shapes and randomized property sweeps, and the
:mod:`repro.fuzz` invariant guards it nightly.

Telemetry probes (``telemetry=``) attach to single-trial calls only:
per-trial probe streams would serialize a batch (defeating its purpose)
and collectors never perturb results, so profile one trial at a time.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..network.graph import Network, NetworkError
from ..network.mesh import KAryNCube
from ..network.multibutterfly import Multibutterfly
from ..routing.paths import Path
from ..telemetry.probe import Probe, ProbeSet, RunMeta
from .engine import BatchStepLoop, PaddedPaths
from .kernels import (
    AdaptiveKernel,
    CutThroughKernel,
    Packed,
    RestrictedKernel,
    StoreForwardKernel,
    WormholeKernel,
    exact_count,
    exact_int64,
)
from .spec import batch_compat_key
from .stats import AdaptiveRunResult, SimulationResult

__all__ = [
    "LOCKSTEP_MODELS",
    "ModelSpec",
    "batch_compat_key",
    "default_step_cap",
    "resolve_step_cap",
    "run_adaptive_batch",
    "run_cut_through_batch",
    "run_model",
    "run_restricted_batch",
    "run_store_forward_batch",
    "run_wormhole_batch",
]

# ----------------------------------------------------------------------
# Per-model step caps.  Each bound is generous enough that any *live*
# simulation of that buffer model finishes under it, so hitting the cap
# means livelock (or a deadlock the model cannot itself declare).
# ``release`` is ``(M,)`` or per-trial ``(T, M)``; the bound follows it.
# ----------------------------------------------------------------------


def _wormhole_cap(*, release, lengths, message_length, **_):
    # Every step, at least one pending message moves (else deadlock is
    # declared), and each message needs L + D - 1 moves.
    live = lengths > 0
    if not live.any():
        return 0
    return release.max(axis=-1) + (message_length + lengths - 1)[live].sum() + 1


def _cut_through_cap(*, release, lengths, message_length, **_):
    # Worst case is full serialization with per-hop drain lag.
    per_message = int(message_length.max()) + 2 * int(lengths.max()) + 2
    return release.max(axis=-1) + per_message * lengths.size + 10


def _restricted_cap(*, release, lengths, message_length, **_):
    # One flit per edge per step: full serialization costs about
    # L * D per message in the worst case.
    per_message = int(message_length.max()) * (int(lengths.max()) + 2) + 4
    return release.max(axis=-1) + per_message * lengths.size + 10


def _store_forward_cap(*, release, lengths, **_):
    # Greedy store-and-forward always grants one message per contended
    # edge, so the schedule needs at most sum(D) message steps of work.
    return release.max(axis=-1) + lengths.sum() + 1


def _adaptive_cap(*, release, lengths, message_length, **_):
    # Minimal adaptive routes have Manhattan length `lengths`; pad per
    # message for drain and injection slack.
    return release.max(axis=-1) + (message_length + lengths + 2).sum() + 10


# ----------------------------------------------------------------------
# The model table.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ModelSpec:
    """One buffer model's row: everything a caller needs to reach it.

    Attributes
    ----------
    name:
        The model name; ``run_<name>_batch`` is its typed entry point.
    kernel:
        The :mod:`repro.sim.kernels` class holding the buffer semantics:
        ``pack`` (problem validation and packing), the constructor and
        the per-step ``body``.
    knob:
        Driver keyword of the per-trial ``B`` axis (virtual channels,
        buffer flits, bandwidth, buffer slots) — the one parameter every
        driver vectorizes over trials.
    knob_error:
        What a knob below 1 violates, for the error message.
    step_cap:
        The default ``max_steps`` rule, in the model's native steps
        (flit steps; message steps for store-and-forward).
    option / choices / default:
        The arbitration keyword (``"priority"``, ``"policy"`` or
        ``None``), its legal values, and the default every front end
        (sweep, service, facade) uses for an unadorned trial.
    kind:
        ``"paths"`` — ``(net, routes)`` problems — or ``"mesh"`` —
        ``(cube, demands)`` problems routed online.
    telemetry:
        Whether the kernel dispatches :mod:`repro.telemetry` events.
    workload_fields:
        The wormhole-only :class:`~repro.sim.spec.Workload` fields the
        driver takes (per-hop ``vc_ids``, per-message ``sources``).
    """

    name: str
    kernel: type
    knob: str
    knob_error: str
    step_cap: Callable[..., Any]
    option: str | None = "priority"
    choices: tuple[str, ...] = ()
    default: str | None = None
    kind: str = "paths"
    telemetry: bool = True
    workload_fields: tuple[str, ...] = ()

    @property
    def driver(self) -> Callable[..., list]:
        """``run_<name>_batch``, resolved through the module attribute at
        call time so instrumentation that rebinds it sees every call."""
        return globals()[f"run_{self.name}_batch"]

    def check(self, knob: "int | np.ndarray", option: str | None) -> None:
        """Validate a knob value (or per-trial array) and the option."""
        low = int(np.min(exact_int64(knob, self.knob)))
        if low < 1:
            raise NetworkError(f"{self.knob_error}, got {low}")
        self.check_option(option)

    def check_option(self, option: str | None) -> None:
        """Validate the arbitration value against the row's ``choices``."""
        if self.option is not None and option not in self.choices:
            raise NetworkError(f"{self.option} must be one of {self.choices}")


#: Every lockstep model, in paper order — the single registry the sweep
#: packer, the service batcher, the facade and the estimator key off.
LOCKSTEP_MODELS: dict[str, ModelSpec] = {
    spec.name: spec
    for spec in (
        ModelSpec(
            "wormhole",
            WormholeKernel,
            knob="num_virtual_channels",
            knob_error="need at least one virtual channel",
            step_cap=_wormhole_cap,
            choices=("random", "age", "index", "rank"),
            default="random",
            workload_fields=("vc_ids", "sources"),
        ),
        ModelSpec(
            "cut_through",
            CutThroughKernel,
            knob="buffer_flits",
            knob_error="buffer must hold at least one flit",
            step_cap=_cut_through_cap,
            choices=("random", "index"),
            default="random",
        ),
        ModelSpec(
            "store_forward",
            StoreForwardKernel,
            knob="bandwidth_flits_per_step",
            knob_error="bandwidth must be >= 1 flit per step",
            step_cap=_store_forward_cap,
            choices=("random", "age", "farthest"),
            default="farthest",
        ),
        ModelSpec(
            "restricted",
            RestrictedKernel,
            knob="num_buffers",
            knob_error="need at least one buffer slot per edge",
            step_cap=_restricted_cap,
            option=None,
            telemetry=False,
        ),
        ModelSpec(
            "adaptive",
            AdaptiveKernel,
            knob="num_virtual_channels",
            knob_error="need at least one virtual channel",
            step_cap=_adaptive_cap,
            option="policy",
            choices=("dimension", "west-first", "fully-adaptive"),
            default="west-first",
            kind="mesh",
        ),
    )
}


def _spec(model: str) -> ModelSpec:
    try:
        return LOCKSTEP_MODELS[model]
    except KeyError:
        raise NetworkError(
            f"no lockstep model {model!r}; models: "
            f"{', '.join(LOCKSTEP_MODELS)}"
        ) from None


def default_step_cap(model: str, **dims):
    """The documented per-model ``max_steps`` bound.

    ``dims`` are NumPy arrays: ``release`` (``(M,)``, or ``(T, M)`` for
    a per-trial bound), ``lengths`` (path / Manhattan lengths ``D_m``)
    and ``message_length`` (per-message ``L``, or a scalar); a rule
    ignores the dims it does not use.  Units are the model's native
    steps (flit steps; message steps for store-and-forward).
    """
    return _spec(model).step_cap(**dims)


def resolve_step_cap(max_steps: int | None, model: str, **dims):
    """The shared override path: an explicit ``max_steps`` (an integer
    ``>= 0``) wins, otherwise the model's :func:`default_step_cap`
    applies."""
    if max_steps is not None:
        return exact_count(max_steps, "max_steps")
    return default_step_cap(model, **dims)


#: What each wormhole-only workload field states, for the error message.
_WORKLOAD_FIELDS = {
    "vc_ids": "per-hop virtual-channel classes",
    "sources": "per-message injection queues",
}


def workload_fields(model: str, wl) -> dict[str, Any]:
    """The wormhole-only fields ``wl`` states, as driver keywords; one
    ``model``'s row cannot take is an error, never dropped."""
    spec = _spec(model)
    given = {name: getattr(wl, name) for name in _WORKLOAD_FIELDS}
    given = {name: value for name, value in given.items() if value is not None}
    for name in given:
        if name not in spec.workload_fields:
            raise NetworkError(
                f"workload {name} ({_WORKLOAD_FIELDS[name]}) are a wormhole-"
                f"model feature; model {model!r} does not accept them"
            )
    return given


def resolve_arbitration(
    model: str, problem, options: dict[str, Any] | None
) -> dict[str, Any]:
    """The arbitration keyword of ``model``'s driver for ``problem``:
    the workload's own where the row's ``choices`` offer it, else the
    option, else the table default (``{}`` for a row without one).  An
    option given for a workload whose arbitration the row offers is an
    error (give it once), as is any other key with a value or a value
    outside the row's ``choices`` — never dropped."""
    spec = _spec(model)
    given = {k: v for k, v in (options or {}).items() if v is not None}
    stray = sorted(set(given) - {spec.option})
    if stray:
        takes = (
            f"its one option is {spec.option!r}"
            if spec.option is not None
            else "it has no arbitration option"
        )
        raise NetworkError(
            f"model {model!r} does not take {', '.join(map(repr, stray))}; "
            f"{takes}"
        )
    if problem.arbitration in spec.choices:
        if given:
            raise NetworkError(
                f"the workload already states {spec.option} "
                f"{problem.arbitration!r}; give it once, not again as an option"
            )
        given = {spec.option: problem.arbitration}
    if spec.option is None:
        return {}
    value = given.get(spec.option, spec.default)
    spec.check_option(value)
    return {spec.option: value}


def run_model(
    model: str,
    problem,
    message_length,
    *,
    seeds: Sequence,
    B: int | Sequence[int],
    options: dict[str, Any] | None = None,
    max_steps: int | None = None,
    telemetry: ProbeSet | Probe | Iterable[Probe] | None = None,
) -> list[SimulationResult]:
    """One lockstep call of ``model``'s driver on a built workload.

    ``problem`` is a :class:`~repro.sim.spec.Workload`: its routes
    (``padded_paths()``, or ``cube`` / ``demands`` for mesh models),
    ``release_times``, and the wormhole-only ``vc_ids`` / ``sources``
    all reach the driver; one the model cannot take is an error.  ``B``
    is the per-trial knob and ``options`` may carry the model's
    arbitration keyword, resolved by :func:`resolve_arbitration`.  One
    seed is a single trial; the adaptive model's chosen routes are
    dropped (call :func:`run_adaptive_batch` for them).
    """
    spec = _spec(model)
    kwargs: dict[str, Any] = {
        "seeds": seeds,
        spec.knob: B,
        "release_times": problem.release_times,
        "max_steps": max_steps,
        "telemetry": telemetry,
        **resolve_arbitration(model, problem, options),
        **workload_fields(model, problem),
    }
    if spec.kind == "mesh":
        if problem.cube is None or problem.demands is None:
            raise NetworkError(
                f"the {model} model needs a mesh problem (a (cube, demands) "
                "tuple or a mesh workload such as mesh-permutation)"
            )
        runs = spec.driver(problem.cube, problem.demands, message_length, **kwargs)
        return [run.result for run in runs]
    return spec.driver(
        problem.net, problem.padded_paths(), message_length, **kwargs
    )


# ----------------------------------------------------------------------
# The one driver body.
# ----------------------------------------------------------------------


def _begin(spec: ModelSpec, seeds, knob, option, telemetry):
    """Per-trial generators, the per-trial knob array, the probe set."""
    seeds = list(seeds)
    if not seeds:
        raise NetworkError(
            "seeds is empty: a batch needs at least one trial "
            f"(run_{spec.name}_batch simulates one trial per seed)"
        )
    rngs = [np.random.default_rng(s) for s in seeds]
    B = _per_trial(knob, len(rngs), spec.knob)
    spec.check(B, option)
    if telemetry is not None and not spec.telemetry:
        raise NetworkError(
            f"model {spec.name!r} does not support telemetry probes"
        )
    return rngs, B, ProbeSet.coerce(telemetry)


def _per_trial(value, T: int, name: str) -> np.ndarray:
    """Broadcast a scalar or per-trial sequence to a ``(T,)`` array."""
    arr = exact_int64(value, name)
    if arr.ndim == 0:
        return np.full(T, int(arr), dtype=np.int64)
    if arr.shape != (T,):
        raise NetworkError(
            f"{name} must be a scalar or match the {T} seeds "
            f"(one entry per trial), got shape {arr.shape}"
        )
    return arr


def _start(
    model: str, T: int, probes, packed: Packed, max_steps: int | None
) -> BatchStepLoop:
    """Open the step loop (caps resolved) and announce the run to probes.

    With no message to route the loop is born finished and
    ``loop.run(None)`` yields the empty results.
    """
    release, lengths, L = packed.release, packed.lengths, packed.message_length
    M = int(lengths.size)
    caps = (
        resolve_step_cap(
            max_steps, model, release=release, lengths=lengths, message_length=L
        )
        if M
        else 0
    )
    loop = BatchStepLoop(
        T, M, release, caps, probes=probes, **packed.loop_options
    )
    if probes is not None:
        probes.on_run_start(
            RunMeta(
                simulator=model,
                num_messages=M,
                num_edges=packed.num_edges,
                num_virtual_channels=packed.num_virtual_channels,
                paths=packed.padded,
                lengths=lengths,
                message_length=np.broadcast_to(
                    np.asarray(L, dtype=np.int64), (M,)
                ).copy(),
                release=release if release.ndim == 1 else release[0],
                extra=dict(packed.extra),
            )
        )
    return loop


def _drive(
    model: str,
    problem,
    routes,
    message_length,
    *,
    seeds,
    knob,
    option=None,
    release_times,
    max_steps,
    telemetry,
    **own,
) -> list:
    """The body of every ``run_<model>_batch``: validate, pack, open, step.

    ``(problem, routes)`` is ``(net, paths)`` or ``(cube, demands)``,
    ``knob`` / ``option`` are the model's ``B`` axis and arbitration
    choice under their table-neutral names, and ``own`` carries the
    keywords only this model's ``pack`` takes.
    """
    spec = LOCKSTEP_MODELS[model]
    rngs, B, probes = _begin(spec, seeds, knob, option, telemetry)
    packed = spec.kernel.pack(
        problem, routes, message_length, release_times,
        B=B, option=option, rngs=rngs, **own,
    )
    loop = _start(model, len(rngs), probes, packed, max_steps)
    kernel = None
    if loop.M:  # else the loop is born finished: nothing to build or step
        loop.mark_trivial(
            packed.lengths == 0, loop.release * loop.time_scale[:, None]
        )
        kernel = spec.kernel(loop, packed, B=B, option=option, rngs=rngs)
    body = kernel.body if kernel else None
    extra_factory = kernel.extra_factory if kernel else None
    return spec.kernel.finish(loop.run(body, extra_factory), kernel)


# ----------------------------------------------------------------------
# The typed entry points, in paper order: Section 1.1's B virtual
# channels, Section 1.4's B-flit cut-through buffer, Section 1's
# store-and-forward, the Section 1.4 Remarks' restricted multiplexing,
# and Section 1.3.4's adaptive category.
# ----------------------------------------------------------------------


def run_wormhole_batch(
    net: Network,
    paths: Sequence[Path] | Sequence[Sequence[int]] | PaddedPaths,
    message_length: int | np.ndarray,
    *,
    seeds: Sequence,
    num_virtual_channels: int | Sequence[int] = 1,
    priority: str = "random",
    release_times: np.ndarray | None = None,
    max_steps: int | None = None,
    vc_ids: np.ndarray | Sequence[Sequence[int]] | None = None,
    sources: np.ndarray | Sequence[int] | None = None,
    telemetry: ProbeSet | Probe | Iterable[Probe] | None = None,
) -> list[SimulationResult]:
    """Simulate ``T = len(seeds)`` independent wormhole trials in lockstep.

    Parameters
    ----------
    net:
        The shared network (only ``num_edges`` is used).
    paths:
        The shared per-message routes — :class:`Path` objects, raw
        edge-id sequences, or a pre-packed
        :class:`~repro.sim.engine.PaddedPaths` (which skips the per-run
        re-pack and caches the edge-simplicity check across runs).
        Paths must be edge-simple (a worm cannot hold two virtual
        channels on one edge).  Every trial routes the same workload —
        batch *grids* over workloads by batching each workload's cells
        separately (see :func:`repro.sim.sweep.run_sweep`).
    message_length:
        The paper's ``L`` (scalar or per-message), shared by all trials.
    seeds:
        One entry per trial (at least one) — anything
        ``np.random.default_rng`` accepts (int, ``SeedSequence``,
        ``Generator``, ``None``).  Each trial draws from its own
        generator.
    num_virtual_channels:
        The ``B`` of each trial — a scalar or a per-trial sequence, so
        one batch can cover a whole ``B`` sweep of a grid.
    priority:
        Arbitration among headers contending for the free slots of one
        edge, shared by the batch: ``"random"`` (fresh random priorities
        each step), ``"age"`` (earlier-released message wins, ties by
        index), ``"index"`` (message index order, fully deterministic),
        or ``"rank"`` (a random rank drawn once per message and kept for
        the whole run — the fixed-priority discipline of Greenberg and
        Oh's universal wormhole algorithm [19]).
    release_times:
        Flit step at which each message becomes available for injection
        (default: all 0; injection is attempted from step ``release + 1``
        on), shared by all trials.  This is how Theorem 2.1.6 schedules
        are executed.
    max_steps:
        Safety cap, an integer ``>= 0``; defaults to the model's
        documented bound (:func:`default_step_cap`).
    vc_ids:
        Optional per-hop virtual-channel *class* assignment — the
        Dally–Seitz mechanism proper (MODEL.md section 5).  Ragged
        per-message sequences (same lengths as ``paths``) of integers in
        ``[0, B)``; a header may then only enter the *assigned* virtual
        channel of each edge (one buffer slot per (edge, class)), so
        every trial's ``B`` must exceed the largest assigned class id.
        Without it, the ``B`` slots of an edge are interchangeable (the
        paper's Section 1.1 reading).
    sources:
        Per-message injection-queue ids, FIFO in message-index order
        (MODEL.md section 1); ``None`` gives each message its own queue.
    telemetry:
        Probes to instrument the run — a
        :class:`~repro.telemetry.probe.ProbeSet`, a single
        :class:`~repro.telemetry.probe.Probe`, or an iterable of probes
        (see :mod:`repro.telemetry`); single-trial calls only.  With
        nothing attached the hot loop performs no probe dispatch at all,
        and attached collectors never perturb the simulation (no RNG
        draws, no state writes), so results are bit-identical either
        way.

    Returns
    -------
    list[SimulationResult]
        Per-trial results, each bit-identical to that trial run alone.
    """
    return _drive(
        "wormhole", net, paths, message_length,
        seeds=seeds, knob=num_virtual_channels, option=priority,
        release_times=release_times, max_steps=max_steps,
        telemetry=telemetry, vc_ids=vc_ids, sources=sources,
    )


def run_cut_through_batch(
    net: Network,
    paths: Sequence[Path] | Sequence[Sequence[int]] | PaddedPaths,
    message_length: int | np.ndarray,
    *,
    seeds: Sequence,
    buffer_flits: int | Sequence[int] = 1,
    priority: str = "random",
    release_times: np.ndarray | None = None,
    max_steps: int | None = None,
    telemetry: ProbeSet | Probe | Iterable[Probe] | None = None,
) -> list[SimulationResult]:
    """Lockstep virtual cut-through trials (Kermani–Kleinrock [21];
    Section 1.4; MODEL.md sections 6 and 8) — one per seed, with
    per-trial ``buffer_flits`` (per-edge buffer capacity in flits of
    one message) and ``priority`` ``"random"`` or ``"index"``.  Probe
    grants are edge-ownership claims (each implying the owning message's
    ``L`` flits will stream across the edge); releases fire when
    ownership is surrendered."""
    return _drive(
        "cut_through", net, paths, message_length,
        seeds=seeds, knob=buffer_flits, option=priority,
        release_times=release_times, max_steps=max_steps,
        telemetry=telemetry,
    )


def run_store_forward_batch(
    net: Network,
    paths: Sequence[Path] | Sequence[Sequence[int]] | PaddedPaths,
    message_length: int,
    *,
    seeds: Sequence,
    bandwidth_flits_per_step: int | Sequence[int] = 1,
    priority: str = "farthest",
    delay_range: int = 0,
    release_times: np.ndarray | None = None,
    max_steps: int | None = None,
    telemetry: ProbeSet | Probe | Iterable[Probe] | None = None,
) -> list[SimulationResult]:
    """Lockstep greedy store-and-forward trials (Section 1; MODEL.md
    section 6) — one per seed, with per-trial bandwidth ``B`` (footnote
    4: one hop costs ``ceil(L / B)`` flit steps) and ``priority``
    ``"random"``, ``"age"`` or ``"farthest"`` (longest remaining
    distance first), so the shared clock counts *message
    steps* whose flit-step length ``ceil(L / B)`` differs per trial;
    per-trial results are reported in flit steps).  ``release_times``
    are in flit steps and are rounded up to message steps.
    ``delay_range > 0`` adds a uniform random delay of
    ``[0, delay_range)`` message steps per message (an integer ``>=
    0``).  Probe events use message steps as the time axis
    (``meta.extra["flit_steps_per_step"]`` converts); each grant means
    the whole ``L``-flit message crosses the edge this step."""
    return _drive(
        "store_forward", net, paths, message_length,
        seeds=seeds, knob=bandwidth_flits_per_step, option=priority,
        release_times=release_times, max_steps=max_steps,
        telemetry=telemetry, delay_range=delay_range,
    )


def run_restricted_batch(
    net: Network,
    paths: Sequence[Path] | Sequence[Sequence[int]] | PaddedPaths,
    message_length: int | np.ndarray,
    *,
    seeds: Sequence,
    num_buffers: int | Sequence[int] = 1,
    release_times: np.ndarray | None = None,
    max_steps: int | None = None,
    telemetry: ProbeSet | Probe | Iterable[Probe] | None = None,
) -> list[SimulationResult]:
    """Lockstep trials of the Section 1.4 Remarks' buffering-only model
    (MODEL.md section 6) — one per seed, with per-trial buffer counts
    ``B``, each slot holding one flit of a distinct message at one flit
    per edge per step; the seed drives the rotating service order.  The
    kernel has no telemetry hooks, so any probe is rejected."""
    return _drive(
        "restricted", net, paths, message_length,
        seeds=seeds, knob=num_buffers,
        release_times=release_times, max_steps=max_steps,
        telemetry=telemetry,
    )


def run_adaptive_batch(
    cube: KAryNCube | Multibutterfly,
    demands: list[tuple[int, int]],
    message_length: int,
    *,
    seeds: Sequence,
    num_virtual_channels: int | Sequence[int] = 1,
    policy: str = "west-first",
    release_times: np.ndarray | None = None,
    max_steps: int | None = None,
    telemetry: ProbeSet | Probe | Iterable[Probe] | None = None,
) -> list[AdaptiveRunResult]:
    """Lockstep adaptive-routing trials — one per seed, with per-trial
    ``B`` — over a 2-D mesh (Section 1.3.4; MODEL.md section 7: a
    :class:`~repro.network.mesh.KAryNCube` with ``n == 2`` and no wrap;
    ``demands`` are ``(source, destination)`` node ids; ``policy`` is
    ``"dimension"`` (XY), ``"west-first"`` (the Glass–Ni turn model) or
    ``"fully-adaptive"``, which can deadlock at ``B = 1``) or a
    :class:`~repro.network.multibutterfly.Multibutterfly` (Arora,
    Leighton and Maggs' ``O(L + log n)`` router: a blocked head takes
    another of its ``d`` destination-correct edges; ``demands`` are
    ``(input column, output column)`` pairs, and the policy must be
    ``"fully-adaptive"``).  Returns
    :class:`~repro.sim.stats.AdaptiveRunResult` objects so each trial's
    adaptively chosen routes stay inspectable.  Because routes are
    chosen online, probes see ``meta.paths = None``; a blocked head
    reports the first edge its policy allowed as the edge it wanted."""
    return _drive(
        "adaptive", cube, demands, message_length,
        seeds=seeds, knob=num_virtual_channels, option=policy,
        release_times=release_times, max_steps=max_steps,
        telemetry=telemetry,
    )
