"""Lockstep drivers and the model table: the one way a trial runs.

Every sweep in this repository (E1/E2/E5, ``repro sweep``) runs many
*independent* trials over the same workload — one per ``(B, seed)``
grid cell — and each trial's engine state is nothing but flat integer
arrays per message.  This module stacks ``T`` such trials into
``(T, M)`` state arrays and steps them in lockstep, for **every** router
model, and it is also how a *single* trial runs: the simulator classes
(:class:`~repro.sim.wormhole.WormholeSimulator`, ...) call their driver
with one seed.

======================  =============================================
driver                  ``T = 1`` front end
======================  =============================================
:func:`run_wormhole_batch`       :class:`~repro.sim.wormhole.WormholeSimulator`
:func:`run_cut_through_batch`    :class:`~repro.sim.cut_through.CutThroughSimulator`
:func:`run_store_forward_batch`  :class:`~repro.sim.store_forward.StoreForwardSimulator`
:func:`run_restricted_batch`     :class:`~repro.sim.restricted.RestrictedWormholeSimulator`
:func:`run_adaptive_batch`       :class:`~repro.sim.adaptive.AdaptiveMeshRouter`
======================  =============================================

Each driver validates its inputs through one shared prologue (the only
input validation any path performs), builds the matching
:mod:`repro.sim.kernels` kernel at ``T`` trials and steps a
:class:`~repro.sim.engine.BatchStepLoop`:

* one vectorized contend/rank/grant arbitration per step over the
  combined ``(trial, slot)`` key space
  (:class:`~repro.sim.engine.BatchSlotArbiter`);
* one stacked acquire/release/completion update per step;
* one shared clock with per-trial completion / deadlock / step-cap
  masking, so finished trials drop out of the active set without
  stalling the batch.

:data:`LOCKSTEP_MODELS` is the model table: one :class:`ModelSpec` row
per buffer model (driver, per-trial knob keyword, arbitration option and
its default, problem kind, telemetry capability, step-cap rule), and
:func:`run_model` is the one dispatch over it — the sweep runner, the
service batcher and :func:`repro.simulate` all reach a model through it,
so a new buffer model is one kernel class, one driver and one row.

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
  a ``Generator`` passes through, which is how a simulator instance
  keeps one continuing stream across ``run()`` calls) and draws from it
  in a fixed order — per-step draws happen only in steps where that
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
from ..routing.paths import Path
from ..telemetry.probe import Probe, ProbeSet, RunMeta
from .engine import BatchStepLoop, PaddedPaths, pad_paths
from .kernels import (
    AdaptiveKernel,
    CutThroughKernel,
    RestrictedKernel,
    StoreForwardKernel,
    WormholeKernel,
    validate_vc_ids,
)
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

_EDGE_SIMPLE_WHAT = (
    "path of message {m} is not edge-simple; a worm cannot "
    "hold two virtual channels on one edge"
)


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
        The model name; its driver is ``run_<name>_batch``.
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
    vc_classes:
        Whether the driver accepts per-hop ``vc_ids``.
    """

    name: str
    knob: str
    knob_error: str
    step_cap: Callable[..., Any]
    option: str | None = "priority"
    choices: tuple[str, ...] = ()
    default: str | None = None
    kind: str = "paths"
    telemetry: bool = True
    vc_classes: bool = False

    @property
    def driver(self) -> Callable[..., list]:
        """``run_<name>_batch``, resolved through the module attribute at
        call time so instrumentation that rebinds it sees every call."""
        return globals()[f"run_{self.name}_batch"]

    def check(self, knob: "int | np.ndarray", option: str | None) -> None:
        """Validate a knob value (or per-trial array) and the option."""
        low = int(np.min(knob))
        if low < 1:
            raise NetworkError(f"{self.knob_error}, got {low}")
        if self.option is not None and option not in self.choices:
            raise NetworkError(f"{self.option} must be one of {self.choices}")


#: Every lockstep model, in paper order — the single registry the sweep
#: packer, the service batcher, the facade and the estimator key off.
LOCKSTEP_MODELS: dict[str, ModelSpec] = {
    spec.name: spec
    for spec in (
        ModelSpec(
            "wormhole",
            knob="num_virtual_channels",
            knob_error="need at least one virtual channel",
            step_cap=_wormhole_cap,
            choices=("random", "age", "index", "rank"),
            default="random",
            vc_classes=True,
        ),
        ModelSpec(
            "cut_through",
            knob="buffer_flits",
            knob_error="buffer must hold at least one flit",
            step_cap=_cut_through_cap,
            choices=("random", "index"),
            default="random",
        ),
        ModelSpec(
            "store_forward",
            knob="bandwidth_flits_per_step",
            knob_error="bandwidth must be >= 1 flit per step",
            step_cap=_store_forward_cap,
            choices=("random", "age", "farthest"),
            default="farthest",
        ),
        ModelSpec(
            "restricted",
            knob="num_buffers",
            knob_error="need at least one buffer slot per edge",
            step_cap=_restricted_cap,
            option=None,
            telemetry=False,
        ),
        ModelSpec(
            "adaptive",
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
    """The shared override path: an explicit ``max_steps`` wins,
    otherwise the model's :func:`default_step_cap` applies."""
    if max_steps is not None:
        return int(max_steps)
    return default_step_cap(model, **dims)


def batch_compat_key(spec) -> tuple:
    """What makes two sweep cells / service requests lockstep-compatible.

    Trials sharing this key can ride in one ``run_<model>_batch`` call:
    they share the model, the workload (hence the path matrix), ``L``,
    and the sim params (hence the priority discipline), while the
    per-trial knob (``B``, buffer size, bandwidth) varies per trial via
    the batch engine's per-trial capacities and seeds stay per-trial by
    construction.  ``repeat`` only separates derived seeds, so it never
    splits a batch.

    Both packers — :func:`repro.sim.sweep.run_sweep` and the
    :class:`repro.service.batcher.DynamicBatcher` — key on this one
    helper, so "compatible" cannot drift between the offline and online
    paths.  ``spec`` is any object with the :class:`~repro.sim.sweep
    .TrialSpec` identity fields.
    """
    return (
        spec.simulator,
        spec.workload,
        spec.workload_params,
        spec.message_length,
        spec.sim_params,
    )


def run_model(
    model: str,
    problem,
    message_length,
    *,
    seeds: Sequence,
    B: int | Sequence[int],
    options: dict[str, Any] | None = None,
    release_times: np.ndarray | None = None,
    max_steps: int | None = None,
    vc_ids=None,
    telemetry: ProbeSet | Probe | Iterable[Probe] | None = None,
) -> list[SimulationResult]:
    """One lockstep call of ``model``'s driver on a built workload.

    ``problem`` is a :class:`~repro.sim.sweep.Workload` (anything with
    ``net`` / ``padded_paths()``, or ``cube`` / ``demands`` for mesh
    models); ``B`` is the per-trial knob and ``options`` may carry the
    model's arbitration keyword (missing or ``None`` means the table
    default).  One seed is a single trial; the adaptive model's chosen
    routes are dropped (call :func:`run_adaptive_batch` for them).
    """
    spec = _spec(model)
    kwargs: dict[str, Any] = {
        "seeds": seeds,
        spec.knob: B,
        "release_times": release_times,
        "max_steps": max_steps,
        "telemetry": telemetry,
    }
    if spec.option is not None:
        kwargs[spec.option] = (options or {}).get(spec.option) or spec.default
    if vc_ids is not None:
        if not spec.vc_classes:
            raise NetworkError(
                f"vc_ids (per-hop virtual-channel classes) are a wormhole-"
                f"model feature; model {model!r} does not accept them"
            )
        kwargs["vc_ids"] = vc_ids
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
# The shared prologue: the only input validation any path performs.
# ----------------------------------------------------------------------


def _begin(model: str, seeds, knob, option, telemetry):
    """Per-trial generators, the per-trial knob array, the probe set."""
    spec = LOCKSTEP_MODELS[model]
    seeds = list(seeds)
    if not seeds:
        raise NetworkError(
            "seeds is empty: a batch needs at least one trial "
            f"(run_{model}_batch simulates one trial per seed)"
        )
    rngs = [np.random.default_rng(s) for s in seeds]
    B = _per_trial(knob, len(rngs), spec.knob)
    spec.check(B, option)
    if telemetry is not None and not spec.telemetry:
        raise NetworkError(f"model {model!r} does not support telemetry probes")
    return rngs, B, ProbeSet.coerce(telemetry)


def _per_trial(value, T: int, name: str) -> np.ndarray:
    """Broadcast a scalar or per-trial sequence to a ``(T,)`` array."""
    arr = np.asarray(value, dtype=np.int64)
    if arr.ndim == 0:
        return np.full(T, int(arr), dtype=np.int64)
    if arr.shape != (T,):
        raise NetworkError(
            f"{name} must be a scalar or match the {T} seeds "
            f"(one entry per trial), got shape {arr.shape}"
        )
    return arr.copy()


def _shared_lengths(message_length, M: int) -> np.ndarray:
    """Per-message ``L`` (scalar or ``(M,)``), shared by all trials."""
    try:
        L = np.broadcast_to(
            np.asarray(message_length, dtype=np.int64), (M,)
        ).copy()
    except ValueError:
        raise NetworkError(
            f"message_length must be a scalar or have shape ({M},), got "
            f"shape {np.asarray(message_length).shape}"
        ) from None
    if M and L.min() < 1:
        raise NetworkError("message length L must be >= 1")
    return L


def _scalar_length(message_length) -> int:
    """One ``L`` for every message (whole-message / mesh models)."""
    L = np.asarray(message_length)
    if L.ndim != 0:
        raise NetworkError(
            f"message_length must be a scalar for this model, got shape "
            f"{L.shape}"
        )
    if L < 1:
        raise NetworkError("message length L must be >= 1")
    return int(L)


def _shared_release(release_times, M: int) -> np.ndarray:
    """Per-message release times shared by all trials."""
    release = (
        np.zeros(M, dtype=np.int64)
        if release_times is None
        else np.asarray(release_times, dtype=np.int64).copy()
    )
    if release.shape != (M,):
        raise NetworkError(
            f"release_times must have shape ({M},), got shape {release.shape}"
        )
    if M and release.min() < 0:
        raise NetworkError("release times must be >= 0")
    return release


def _pack_routes(paths, message_length, release_times, what: str | None = None):
    """Pack and validate a slot-holding model's shared routes."""
    pp = PaddedPaths.from_paths(paths)
    L = _shared_lengths(message_length, pp.num_messages)
    pp.require_edge_simple(what)
    release = _shared_release(release_times, pp.num_messages)
    return pp.padded, pp.lengths, L, release


def _start(
    model: str,
    rngs: list,
    probes,
    release: np.ndarray,
    lengths: np.ndarray,
    message_length,
    max_steps: int | None,
    meta: dict[str, Any],
    **loop_options,
) -> BatchStepLoop:
    """Open the step loop (caps resolved) and announce the run to probes.

    ``meta`` carries the model-specific :class:`RunMeta` fields
    (``num_edges``, ``num_virtual_channels``, ``paths``, ``extra``);
    with no message to route the loop is born finished and
    ``loop.run(None)`` yields the empty results.
    """
    M = int(lengths.size)
    caps = (
        resolve_step_cap(
            max_steps,
            model,
            release=release,
            lengths=lengths,
            message_length=message_length,
        )
        if M
        else 0
    )
    loop = BatchStepLoop(len(rngs), M, release, caps, probes=probes, **loop_options)
    if probes is not None:
        probes.on_run_start(
            RunMeta(
                simulator=model,
                num_messages=M,
                lengths=lengths,
                message_length=np.broadcast_to(
                    np.asarray(message_length, dtype=np.int64), (M,)
                ).copy(),
                release=release if release.ndim == 1 else release[0],
                **meta,
            )
        )
    return loop


# ----------------------------------------------------------------------
# Wormhole (Section 1.1: B virtual channels per edge).
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
    telemetry: ProbeSet | Probe | Iterable[Probe] | None = None,
) -> list[SimulationResult]:
    """Simulate ``T = len(seeds)`` independent wormhole trials in lockstep.

    Parameters
    ----------
    net:
        The shared network (only ``num_edges`` is used).
    paths:
        The shared per-message routes (or a pre-packed
        :class:`~repro.sim.engine.PaddedPaths`); every trial routes the
        same workload — batch *grids* over workloads by batching each
        workload's cells separately (see :func:`repro.sim.sweep.run_sweep`).
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
        The arbitration discipline, shared by the batch (``"random"``,
        ``"age"``, ``"index"``, or ``"rank"`` — see
        :class:`~repro.sim.wormhole.WormholeSimulator`).
    release_times / max_steps / vc_ids:
        As in :meth:`WormholeSimulator.run`, shared by all trials.  With
        ``vc_ids``, every trial's ``B`` must exceed the largest assigned
        class id.
    telemetry:
        :mod:`repro.telemetry` probes; single-trial calls only.

    Returns
    -------
    list[SimulationResult]
        Per-trial results, each bit-identical to that trial run alone.
    """
    rngs, B, probes = _begin(
        "wormhole", seeds, num_virtual_channels, priority, telemetry
    )
    padded, D, L, release = _pack_routes(
        paths, message_length, release_times, _EDGE_SIMPLE_WHAT
    )
    vc_padded = (
        None
        if vc_ids is None
        else validate_vc_ids(padded, D, vc_ids, int(B.min()))
    )
    loop = _start(
        "wormhole", rngs, probes, release, D, L, max_steps,
        {
            "num_edges": net.num_edges,
            "num_virtual_channels": int(B[0]),
            "paths": padded,
        },
    )
    if not loop.M:
        return loop.run(None)
    loop.mark_trivial(D == 0, release)
    kernel = WormholeKernel(
        loop,
        num_edges=net.num_edges,
        padded=padded,
        lengths=D,
        message_length=L,
        release=release,
        capacities=B,
        priority=priority,
        rngs=rngs,
        vc_padded=vc_padded,
    )
    return loop.run(kernel.body)


# ----------------------------------------------------------------------
# Virtual cut-through (Section 1.4: B flits of one message per edge).
# ----------------------------------------------------------------------


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
    """Lockstep :class:`~repro.sim.cut_through.CutThroughSimulator`
    trials — one per seed, with per-trial ``buffer_flits``.  Probe
    grants are edge-ownership claims (each implying the owning message's
    ``L`` flits will stream across the edge); releases fire when
    ownership is surrendered."""
    rngs, B, probes = _begin(
        "cut_through", seeds, buffer_flits, priority, telemetry
    )
    padded, D, L, release = _pack_routes(paths, message_length, release_times)
    loop = _start(
        "cut_through", rngs, probes, release, D, L, max_steps,
        {
            "num_edges": net.num_edges,
            "num_virtual_channels": 1,
            "paths": padded,
            "extra": {"flits_per_grant": L},
        },
    )
    if not loop.M:
        return loop.run(None)
    loop.mark_trivial(D == 0, release)
    kernel = CutThroughKernel(
        loop,
        num_edges=net.num_edges,
        padded=padded,
        lengths=D,
        message_length=L,
        buffer_flits=B,
        priority=priority,
        rngs=rngs,
    )
    return loop.run(kernel.body)


# ----------------------------------------------------------------------
# Store-and-forward (Section 1: whole-message hops).
# ----------------------------------------------------------------------


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
    """Lockstep :class:`~repro.sim.store_forward.StoreForwardSimulator`
    trials — one per seed, with per-trial bandwidth ``B`` (so the shared
    clock counts *message steps* whose flit-step length ``ceil(L / B)``
    differs per trial; per-trial results are reported in flit steps).
    Probe events use message steps as the time axis
    (``meta.extra["flit_steps_per_step"]`` converts); each grant means
    the whole ``L``-flit message crosses the edge this step."""
    rngs, BW, probes = _begin(
        "store_forward", seeds, bandwidth_flits_per_step, priority, telemetry
    )
    L = _scalar_length(message_length)
    # Deliberately no edge-simplicity check: see the store_forward
    # module docstring (an edge is held only within the step it
    # transmits, so repeated edges just queue twice).
    padded, D = pad_paths(paths)
    M = int(D.size)
    hop = -(-L // BW)  # per-trial ceil(L / B) flit steps per message step
    # Releases in per-trial message steps, rounded up to a boundary.
    release = -(-_shared_release(release_times, M)[None, :] // hop[:, None])
    if delay_range > 0:
        release = release + np.stack(
            [rng.integers(0, delay_range, size=M) for rng in rngs]
        )
    # Greedy store-and-forward cannot deadlock: every contended edge
    # forwards one message per step, so progress is unconditional.
    loop = _start(
        "store_forward", rngs, probes, release, D, L, max_steps,
        {
            "num_edges": net.num_edges,
            "num_virtual_channels": 1,
            "paths": padded,
            "extra": {
                "flits_per_grant": L,
                "flit_steps_per_step": int(hop[0]),
            },
        },
        detect_deadlock=False,
        time_scale=hop,
    )
    if not M:
        return loop.run(None)
    loop.mark_trivial(D == 0, release * hop[:, None])
    kernel = StoreForwardKernel(
        loop,
        num_edges=net.num_edges,
        padded=padded,
        lengths=D,
        release=release,
        hop=hop,
        priority=priority,
        rngs=rngs,
    )
    return loop.run(
        kernel.body,
        lambda i: {
            "max_queue": int(kernel.max_queue[i]),
            "message_step_flits": int(hop[i]),
        },
    )


# ----------------------------------------------------------------------
# Restricted multiplexing (Section 1.4 Remarks: buffers without wires).
# ----------------------------------------------------------------------


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
    """Lockstep :class:`~repro.sim.restricted
    .RestrictedWormholeSimulator` trials — one per seed, with per-trial
    buffer counts ``B``.  The kernel has no telemetry hooks, so any
    probe is rejected."""
    rngs, B, probes = _begin("restricted", seeds, num_buffers, None, telemetry)
    padded, D, L, release = _pack_routes(paths, message_length, release_times)
    loop = _start("restricted", rngs, probes, release, D, L, max_steps, {})
    if not loop.M:
        return loop.run(None)
    loop.mark_trivial(D == 0, release)
    kernel = RestrictedKernel(
        loop,
        num_edges=net.num_edges,
        padded=padded,
        lengths=D,
        message_length=L,
        capacities=B,
        rngs=rngs,
    )
    return loop.run(kernel.body)


# ----------------------------------------------------------------------
# Adaptive mesh routing (Section 1.3.4's category).
# ----------------------------------------------------------------------


def check_mesh(cube: KAryNCube) -> None:
    """Turn models are stated for 2-D meshes without wraparound."""
    if cube.n != 2 or cube.wrap:
        raise NetworkError("adaptive routing is implemented for 2-D meshes")


def run_adaptive_batch(
    cube: KAryNCube,
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
    """Lockstep :class:`~repro.sim.adaptive.AdaptiveMeshRouter` trials —
    one per seed, with per-trial ``B``.  Returns
    :class:`~repro.sim.stats.AdaptiveRunResult` objects so each trial's
    adaptively chosen routes stay inspectable.  Because routes are
    chosen online, probes see ``meta.paths = None``; a blocked head
    reports the first edge its policy allowed as the edge it wanted."""
    rngs, B, probes = _begin(
        "adaptive", seeds, num_virtual_channels, policy, telemetry
    )
    check_mesh(cube)
    L = _scalar_length(message_length)
    M = len(demands)
    release = _shared_release(release_times, M)
    # Minimal routes all have the Manhattan length.
    dists = np.asarray(
        [
            sum(abs(a - b) for a, b in zip(cube.coords(s), cube.coords(d)))
            for s, d in demands
        ],
        dtype=np.int64,
    )
    loop = _start(
        "adaptive", rngs, probes, release, dists, L, max_steps,
        {
            "num_edges": cube.network.num_edges,
            "num_virtual_channels": int(B[0]),
            "paths": None,
            "extra": {"flits_per_grant": L, "policy": policy},
        },
    )
    if not M:
        return [AdaptiveRunResult(res, []) for res in loop.run(None)]
    loop.mark_trivial(dists == 0, release)
    kernel = AdaptiveKernel(
        loop,
        cube=cube,
        demands=demands,
        message_length=L,
        dists=dists,
        capacities=B,
        policy=policy,
        rngs=rngs,
    )
    return [
        AdaptiveRunResult(res, kernel.taken_paths(i))
        for i, res in enumerate(loop.run(kernel.body))
    ]
