"""Analytic delay envelopes: the no-simulation estimate tier.

The paper's results are *bounds*, not trajectories — yet every answer
the package gives normally costs a full lockstep simulation.  This
module computes, in O(total path length), a per-workload **delay
envelope** — an analytic lower and upper bound on the greedy makespan —
from nothing but the routing problem: path lengths, per-edge loads
(congestion), dilation, the message length ``L``, and the buffering
knob ``B``.  It is the closed-form tier behind ``mode="estimate"`` in
:func:`repro.simulate` and on v1 wire-protocol run requests (see
:mod:`repro.service.protocol`): services use it to answer in
microseconds and to reject infeasible deadlines before queuing.

Both sides of the envelope are *sound* for the kernels in
:mod:`repro.sim.kernels` (checked continuously by the fuzzer's
``estimate-envelope`` invariant and ``tests/analysis/test_estimate.py``):

Lower bounds (no router can beat them):

* every message still needs its unobstructed time — ``L + d - 1`` flit
  steps for the pipelined models, ``d * ceil(L / B)`` for
  store-and-forward — after its release;
* the busiest edge is a bandwidth bottleneck.  Per edge ``e`` with load
  ``c_e``, the buffer-occupancy term is ``ceil(L * c_e / B)`` for the
  wormhole model (each of the ``c_e`` worms holds one of ``B`` virtual
  channels for ``>= L`` steps), ``L * c_e`` for cut-through and the
  restricted model (those forward at most **one** flit per physical
  edge per step regardless of ``B``), and ``c_e * ceil(L / B)`` for
  store-and-forward (one whole packet per edge per message step).

Upper bounds (progress-budget arguments, valid for runs that finish
without deadlock or a step cap — the step loops declare deadlock the
moment a live step makes no progress, so every counted step consumes
at least one unit of the budget):

* wormhole / adaptive advance rigidly: a message is done after exactly
  ``L + d - 1`` advance steps, so the total budget is
  ``sum_i (L + d_i - 1)`` on top of the last release;
* cut-through / restricted move single flits: the budget is the total
  flit-hop count ``L * sum_i d_i``;
* store-and-forward moves whole packets: ``sum_i d_i`` message steps of
  ``ceil(L / B)`` flit steps each.

Note ``sum_i d_i == sum_e c_e``: the upper bounds are per-edge
buffer-occupancy sums, the lower bounds are per-edge maxima.  The
formulas live in one table row per model (``_TERMS``) whose keys must
equal :data:`repro.sim.batch.LOCKSTEP_MODELS`.

The adaptive mesh router chooses among *minimal* productive directions
(:mod:`repro.sim.adaptive`), so each message's hop count is the known
Manhattan distance — but its paths (hence per-edge loads) are chosen
online, so it gets a conservative **upper** bound only (``lower`` is
``None``; the service still uses the unobstructed per-message floor it
shares with the wormhole model for feasibility).  The ``schedule`` and
``continuous`` simulators are not estimable: :class:`EstimateError`.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Any, NamedTuple

import numpy as np

from ..network.graph import NetworkError
from ..sim.batch import LOCKSTEP_MODELS
from ..sim.kernels import exact_int64
from ..sim.spec import exact_int

__all__ = [
    "ESTIMATABLE_MODELS",
    "DelayEnvelope",
    "EstimateError",
    "estimate_paths",
    "estimate_spec",
    "estimate_workload",
    "route_stats",
]

#: Simulator names with a closed-form envelope.  ``adaptive`` yields an
#: upper bound only (its routes are chosen online).
ESTIMATABLE_MODELS = tuple(LOCKSTEP_MODELS)


class EstimateError(NetworkError):
    """The request has no analytic envelope (e.g. the schedule pipeline)."""


@dataclass(frozen=True)
class DelayEnvelope:
    """Analytic bounds on one workload's greedy routing time.

    All times are **flit steps**, the unit every simulator reports.
    ``lower <= simulated makespan <= upper`` for any run that finishes
    cleanly (no deadlock, no step cap); ``lower`` is ``None`` for the
    adaptive model, whose online route choice hides the edge loads.
    """

    model: str
    B: int
    message_length: int
    messages: int
    #: max per-edge load over the fixed routes (``None`` for adaptive).
    congestion: int | None
    #: max hop count over messages (Manhattan distance for adaptive).
    dilation: int
    #: ``sum_i d_i == sum_e c_e`` — the total buffer-occupancy mass.
    total_path_length: int
    #: number of distinct edges used by the routes (0 for adaptive).
    edges_used: int
    max_release: int
    #: analytic makespan lower bound (``None`` for adaptive).
    lower: int | None
    #: analytic makespan upper bound, conditioned on clean delivery.
    upper: int
    #: per-message delivery-time floors (release + unobstructed time).
    per_message_lower: tuple[int, ...]

    @property
    def tightness(self) -> float | None:
        """``upper / lower`` — how loose the envelope is (None for adaptive)."""
        if self.lower is None or self.lower <= 0:
            return None
        return self.upper / self.lower

    def check(self, makespan: int) -> bool:
        """Does a cleanly-simulated ``makespan`` sit inside the envelope?"""
        if self.lower is not None and makespan < self.lower:
            return False
        return makespan <= self.upper

    def to_metrics(self) -> dict[str, Any]:
        """JSON-safe, wire-ready metrics (deterministic per input)."""
        arr = np.asarray(self.per_message_lower, dtype=np.int64)
        digest = hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()
        return {
            "mode": "estimate",
            "model": self.model,
            "B": int(self.B),
            "message_length": int(self.message_length),
            "messages": int(self.messages),
            "congestion": None if self.congestion is None else int(self.congestion),
            "dilation": int(self.dilation),
            "total_path_length": int(self.total_path_length),
            "edges_used": int(self.edges_used),
            "max_release": int(self.max_release),
            "makespan_lower": None if self.lower is None else int(self.lower),
            "makespan_upper": int(self.upper),
            "delay_lower_max": int(arr.max(initial=0)),
            "delay_lower_digest": digest[:16],
            "tightness": self.tightness,
        }


def _as_lengths(path_lengths: Sequence[int] | np.ndarray) -> np.ndarray:
    lengths = np.asarray(path_lengths, dtype=np.int64)
    if lengths.ndim != 1:
        raise EstimateError("path_lengths must be one-dimensional")
    if lengths.size and int(lengths.min()) < 0:
        raise EstimateError("path lengths must be >= 0")
    return lengths


class _Terms(NamedTuple):
    """One model's closed-form terms.  ``hop`` is ``ceil(L / B)``, the
    flit steps of one store-and-forward message step; ``active`` are the
    non-zero path lengths."""

    #: ``(lengths, L, hop)`` -> per-message unobstructed flit steps.
    unobstructed: Callable[..., np.ndarray]
    #: ``(L, C, B, hop)`` -> flit steps the busiest edge stays occupied;
    #: ``None`` where routes (hence ``C``) are chosen online: no lower bound.
    occupancy: Callable[..., int] | None
    #: ``(active, L, hop)`` -> the progress budget of a clean run.
    budget: Callable[..., int]
    #: Progress comes in whole message steps, so a late release waits
    #: for the next multiple of ``hop``.
    hop_aligned: bool = False


def _pipelined(lengths, L, hop):
    return np.where(lengths > 0, L + lengths - 1, 0)


def _rigid_budget(active, L, hop):
    return int((L + active - 1).sum())


#: One flit per physical edge per step, whatever ``B`` is.
_SINGLE_FLIT = _Terms(
    _pipelined,
    lambda L, C, B, hop: L * C,
    lambda active, L, hop: L * int(active.sum()),
)

#: The envelope of every lockstep model: a model without a row here
#: fails the import, so none can exist without an envelope.
_TERMS: dict[str, _Terms] = {
    "wormhole": _Terms(
        _pipelined, lambda L, C, B, hop: math.ceil(L * C / B), _rigid_budget
    ),
    "cut_through": _SINGLE_FLIT,
    "store_forward": _Terms(
        lambda lengths, L, hop: lengths * hop,
        lambda L, C, B, hop: C * hop,
        lambda active, L, hop: int(active.sum()) * hop,
        hop_aligned=True,
    ),
    "restricted": _SINGLE_FLIT,
    "adaptive": _Terms(_pipelined, None, _rigid_budget),
}
if set(_TERMS) != set(LOCKSTEP_MODELS):
    raise ImportError(
        "repro.analysis.estimate._TERMS must have exactly one row per "
        f"LOCKSTEP_MODELS entry; differing: {set(_TERMS) ^ set(LOCKSTEP_MODELS)}"
    )


def estimate_paths(
    model: str,
    *,
    message_length: int,
    B: int,
    path_lengths: Sequence[int] | np.ndarray,
    congestion: int | None = None,
    edges_used: int = 0,
    release_times: Sequence[int] | np.ndarray | None = None,
) -> DelayEnvelope:
    """The envelope from raw problem statistics (no workload object).

    ``congestion`` is the max per-edge load of the fixed routes; pass
    ``None`` only for the adaptive model (routes chosen online).  The
    per-edge buffer-occupancy maximum over edges equals the congestion
    term because the occupancy formulas are monotone in the edge load.
    """
    terms = _TERMS.get(model)
    if terms is None:
        raise EstimateError(
            f"simulator {model!r} has no analytic envelope; estimable "
            f"models: {', '.join(ESTIMATABLE_MODELS)}"
        )
    L = exact_int(message_length, "message_length")
    if L < 1:
        raise EstimateError("message_length must be >= 1")
    B = exact_int(B, "B")
    if B < 1:
        raise EstimateError("B must be >= 1")
    lengths = _as_lengths(path_lengths)
    M = int(lengths.size)
    if release_times is None:
        release = np.zeros(M, dtype=np.int64)
    else:
        release = exact_int64(release_times, "release_times")
        if release.shape != lengths.shape:
            raise EstimateError("release_times must match path_lengths")
        if M and int(release.min()) < 0:
            raise EstimateError("release times must be >= 0")
    max_release = int(release.max(initial=0))
    hop = math.ceil(L / B)

    # Per-message floors: release + unobstructed time (zero-length paths
    # are delivered at release without entering the network).
    per_message = release + terms.unobstructed(lengths, L, hop)
    floor = int(per_message.max(initial=0))

    C = None if congestion is None else int(congestion)
    lower: int | None = None
    if terms.occupancy is not None:
        if C is None:
            raise EstimateError(f"model {model!r} needs the route congestion")
        lower = max(floor, terms.occupancy(L, C, B, hop)) if C >= 1 else floor

    # Progress budget on top of the last release (see module docstring).
    start = math.ceil(max_release / hop) * hop if terms.hop_aligned else max_release
    upper = max(start + terms.budget(lengths[lengths > 0], L, hop), floor)

    return DelayEnvelope(
        model=model,
        B=B,
        message_length=L,
        messages=M,
        congestion=C,
        dilation=int(lengths.max(initial=0)),
        total_path_length=int(lengths.sum()),
        edges_used=int(edges_used),
        max_release=max_release,
        lower=lower,
        upper=upper,
        per_message_lower=tuple(int(x) for x in per_message),
    )


def route_stats(workload: Any, model: str) -> tuple[Any, int | None, int]:
    """``(path lengths, congestion, edges used)`` of a built
    :class:`~repro.sim.sweep.Workload` as ``model`` routes it — the
    numbers every bound in the package is a function of.  A mesh model
    chooses minimal routes online, so its lengths are the exact mesh
    distances and it has no congestion."""
    spec = LOCKSTEP_MODELS.get(model)
    if spec is not None and spec.kind == "mesh":
        if workload.cube is None or workload.demands is None:
            raise EstimateError(
                f"the {model} model needs a mesh workload (cube + demands)"
            )
        return workload.cube.distances(workload.demands), None, 0
    if workload.paths is None:
        raise EstimateError(f"workload has no paths to estimate for {model!r}")
    # Paths are either routing.paths.Path values or plain edge-id lists.
    edge_lists = [getattr(p, "edges", p) for p in workload.paths]
    loads = Counter(edge for edges in edge_lists for edge in edges)
    return (
        [len(edges) for edges in edge_lists],
        max(loads.values(), default=0),
        len(loads),
    )


def estimate_workload(
    workload: Any,
    model: str,
    *,
    B: int,
    message_length: int | None = None,
    release_times: Sequence[int] | np.ndarray | None = None,
) -> DelayEnvelope:
    """The envelope of a built :class:`~repro.sim.sweep.Workload`."""
    L = workload.default_length if message_length is None else message_length
    lengths, congestion, edges_used = route_stats(workload, model)
    return estimate_paths(
        model,
        message_length=L,
        B=B,
        path_lengths=lengths,
        congestion=congestion,
        edges_used=edges_used,
        release_times=release_times,
    )


def estimate_spec(spec: Any) -> DelayEnvelope:
    """The envelope of one sweep :class:`~repro.sim.sweep.TrialSpec`.

    Deterministic in the spec alone — seeds, repeats, and priorities
    affect arbitration, never the bounds — so estimate responses are
    bit-stable across processes and safe to serve from any replica.
    """
    from ..sim.sweep import build_workload

    wl = build_workload(spec.workload, spec.workload_params)
    L = wl.default_length if spec.message_length is None else spec.message_length
    return estimate_workload(wl, spec.simulator, B=spec.B, message_length=L)
