"""Pure invariant checkers: the oracles behind ``repro fuzz``.

Every function here is a *pure* predicate over plain numbers and arrays —
no simulation, no RNG, no I/O — returning ``None`` when the invariant
holds and a :class:`Violation` when it does not.  Purity is the point:
``tests/fuzz/test_invariants.py`` pins each oracle against hand-built
violating and passing inputs, so a fuzzing run can only fail because the
*simulators* broke, never because an oracle silently drifted.

The invariants and where they come from:

=============================  =======================================
Checker                        Source
=============================  =======================================
:func:`check_delivery`         model contract: a finished run without
                               deadlock / step-cap delivered everything
:func:`check_unobstructed`     Section 1's unobstructed time: a worm
                               needs ``L + d - 1`` flit steps (store-
                               and-forward: ``d * ceil(L / B)``)
:func:`check_congestion_bound` edge-capacity counting: each delivered
                               worm holds a virtual channel on every
                               path edge for ``>= L`` steps, and an
                               edge serves ``<= B`` worms at once, so
                               ``makespan >= ceil(L * C / B)``
:func:`check_gadget_bound`     Theorem 2.2.1's explicit lower bound
                               ``(L - D) M / B`` on the hard instance
:func:`check_schedule_bound`   Theorem 2.1.6: executing an LLL schedule
                               never blocks and finishes within
                               ``schedule.length_bound``
:func:`check_store_forward_envelope`
                               Leighton–Maggs–Rao / Rothvoß
                               ``O(C + D)`` store-and-forward envelope:
                               greedy stays within ``slack * L (C + D)``
:func:`check_b_monotonicity`   model dominance: more virtual channels
                               (or store-and-forward bandwidth) never
                               slows a workload down under one seed
:func:`check_full_vs_restricted`
                               Section 1.4 Remarks: ``B = C``
                               multiplexing dominates the restricted
                               ``B``-buffer model
:func:`check_deadlock_consistency`
                               Dally–Seitz: an acyclic channel
                               dependency graph rules deadlock out
:func:`check_estimate_envelope`
                               ``repro.analysis.estimate`` contract: a
                               clean run's makespan lies inside the
                               analytic delay envelope
                               ``lower <= makespan <= upper``
:func:`check_batch_matches_serial`
                               ``repro.sim.batch`` contract: batched
                               lockstep trials are bit-identical to
                               serial runs
=============================  =======================================
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

__all__ = [
    "Violation",
    "check_b_monotonicity",
    "check_batch_matches_serial",
    "check_congestion_bound",
    "check_deadlock_consistency",
    "check_delivery",
    "check_estimate_envelope",
    "check_full_vs_restricted",
    "check_gadget_bound",
    "check_schedule_bound",
    "check_store_forward_envelope",
    "check_unobstructed",
]

#: Default slack factor of the store-and-forward asymptotic envelope.
#: Greedy runs measure within ~1.1x of ``L (C + D)``; 4x absorbs any
#: scheduling noise while still catching a broken router immediately.
STORE_FORWARD_SLACK = 4.0


@dataclass(frozen=True)
class Violation:
    """One broken invariant, with the numbers that broke it."""

    invariant: str
    detail: str
    observed: Any = None
    bound: Any = None

    def to_json(self) -> dict[str, Any]:
        def safe(v):
            if isinstance(v, (np.integer,)):
                return int(v)
            if isinstance(v, (np.floating,)):
                return float(v)
            return v

        return {
            "invariant": self.invariant,
            "detail": self.detail,
            "observed": safe(self.observed),
            "bound": safe(self.bound),
        }


def check_delivery(
    *,
    delivered: int,
    messages: int,
    deadlocked: bool,
    hit_step_cap: bool,
    model: str = "wormhole",
) -> Violation | None:
    """A run that neither deadlocked nor hit its step cap delivered all."""
    if deadlocked or hit_step_cap:
        return None
    if delivered == messages:
        return None
    return Violation(
        "delivery",
        f"{model}: run finished cleanly but delivered "
        f"{delivered}/{messages} messages",
        observed=delivered,
        bound=messages,
    )


def check_unobstructed(
    makespan: int,
    *,
    message_length: int,
    path_lengths: Sequence[int] | np.ndarray,
    B: int = 1,
    model: str = "wormhole",
    release_times: Sequence[int] | np.ndarray | None = None,
) -> Violation | None:
    """``makespan >= max_i(release_i + unobstructed_time_i)``.

    A worm router cannot beat ``L + d - 1`` flit steps per message; a
    store-and-forward router with link bandwidth ``B`` cannot beat
    ``d * ceil(L / B)`` (it forwards whole packets hop by hop).
    Zero-length paths (source == destination) are excluded: those
    messages are delivered without entering the network.
    """
    lengths = np.asarray(path_lengths, dtype=np.int64)
    if lengths.size == 0:
        return None
    L = int(message_length)
    if model == "store_forward":
        per_message = lengths * math.ceil(L / max(int(B), 1))
    else:
        per_message = np.where(lengths > 0, L + lengths - 1, 0)
    if release_times is not None:
        per_message = per_message + np.asarray(release_times, dtype=np.int64)
    bound = int(per_message.max(initial=0))
    if makespan >= bound:
        return None
    return Violation(
        "unobstructed-time",
        f"{model}: makespan {makespan} beats the unobstructed time "
        f"{bound} (L={L}, B={B})",
        observed=int(makespan),
        bound=bound,
    )


def check_congestion_bound(
    makespan: int,
    *,
    message_length: int,
    congestion: int,
    B: int,
) -> Violation | None:
    """Wormhole edge-capacity bound: ``makespan >= ceil(L * C / B)``.

    Each of the ``C`` worms crossing the busiest edge holds one of its
    ``B`` virtual channels for at least ``L`` flit steps.
    """
    if congestion < 1:
        return None
    bound = math.ceil(int(message_length) * int(congestion) / int(B))
    if makespan >= bound:
        return None
    return Violation(
        "congestion-bound",
        f"wormhole: makespan {makespan} beats the edge-capacity bound "
        f"ceil(L*C/B) = {bound} (L={message_length}, C={congestion}, B={B})",
        observed=int(makespan),
        bound=bound,
    )


def check_estimate_envelope(
    makespan: int,
    *,
    lower: int | None,
    upper: int | None,
    model: str = "wormhole",
) -> Violation | None:
    """Analytic delay envelope: ``lower <= makespan <= upper``.

    ``lower``/``upper`` come from a
    :class:`repro.analysis.estimate.DelayEnvelope` for the *same*
    ``(model, B, L, paths)`` as the simulated run; either side may be
    ``None`` when the estimator declines it (the adaptive model has no
    congestion-based lower bound).  Only clean runs — no deadlock, no
    step cap — are in scope; the caller filters those.
    """
    if lower is not None and makespan < lower:
        return Violation(
            "estimate-envelope",
            f"{model}: makespan {makespan} beats the analytic lower "
            f"envelope {lower}",
            observed=int(makespan),
            bound=int(lower),
        )
    if upper is not None and makespan > upper:
        return Violation(
            "estimate-envelope",
            f"{model}: makespan {makespan} exceeds the analytic upper "
            f"envelope {upper}",
            observed=int(makespan),
            bound=int(upper),
        )
    return None


def check_gadget_bound(makespan: int, *, lower_bound: float) -> Violation | None:
    """Theorem 2.2.1: on the hard instance, ``makespan >= (L - D) M / B``."""
    if makespan + 1e-9 >= lower_bound:
        return None
    return Violation(
        "gadget-lower-bound",
        f"hard instance routed in {makespan} flit steps, below the "
        f"Theorem 2.2.1 bound (L-D)M/B = {lower_bound:g}",
        observed=int(makespan),
        bound=float(lower_bound),
    )


def check_schedule_bound(
    makespan: int, *, length_bound: int, blocked: int = 0
) -> Violation | None:
    """Theorem 2.1.6: an executed LLL schedule never blocks (at most
    ``B`` worms of a class share an edge) and meets its length bound."""
    if blocked:
        return Violation(
            "schedule-upper-bound",
            f"schedule execution blocked for {blocked} message-steps; "
            "a class must never wait for a channel",
            observed=int(blocked),
            bound=0,
        )
    if makespan <= length_bound:
        return None
    return Violation(
        "schedule-upper-bound",
        f"schedule execution took {makespan} flit steps, above its "
        f"guaranteed length bound {length_bound}",
        observed=int(makespan),
        bound=int(length_bound),
    )


def check_store_forward_envelope(
    makespan: int,
    *,
    message_length: int,
    congestion: int,
    dilation: int,
    slack: float = STORE_FORWARD_SLACK,
) -> Violation | None:
    """Rothvoß / Leighton–Maggs–Rao sanity: greedy store-and-forward at
    ``B = 1`` stays within ``slack * L * (C + D)`` flit steps."""
    bound = slack * int(message_length) * (int(congestion) + int(dilation))
    if makespan <= bound:
        return None
    return Violation(
        "store-forward-envelope",
        f"store-and-forward took {makespan} flit steps, above "
        f"{slack:g} * L(C+D) = {bound:g} "
        f"(L={message_length}, C={congestion}, D={dilation})",
        observed=int(makespan),
        bound=float(bound),
    )


def check_b_monotonicity(
    makespans: Mapping[int, int], *, model: str = "wormhole"
) -> list[Violation]:
    """Larger ``B`` never slower under identical seeds.

    ``makespans`` maps ``B -> makespan`` for runs that differ *only* in
    ``B`` (same workload, same seed).  Holds for the wormhole and
    store-and-forward models; the cut-through buffer knob is *not*
    monotone (more buffering can reorder arbitration), so it is
    deliberately not fuzzed with this oracle.
    """
    out: list[Violation] = []
    items = sorted((int(b), int(m)) for b, m in makespans.items())
    for (b_lo, m_lo), (b_hi, m_hi) in zip(items[:-1], items[1:]):
        if m_hi > m_lo:
            out.append(
                Violation(
                    "b-monotonicity",
                    f"{model}: makespan rose from {m_lo} at B={b_lo} to "
                    f"{m_hi} at B={b_hi} under the same seed",
                    observed=m_hi,
                    bound=m_lo,
                )
            )
    return out


def check_full_vs_restricted(
    full_makespan: int, restricted_makespan: int, *, B: int, congestion: int
) -> Violation | None:
    """Section 1.4 Remarks: full ``B = C`` multiplexing dominates the
    restricted ``B``-buffer model on the same workload and seed."""
    if full_makespan <= restricted_makespan:
        return None
    return Violation(
        "full-vs-restricted",
        f"wormhole at B=C={congestion} took {full_makespan} flit steps, "
        f"slower than the restricted {B}-buffer model at "
        f"{restricted_makespan}",
        observed=int(full_makespan),
        bound=int(restricted_makespan),
    )


def check_deadlock_consistency(
    deadlocked: bool, *, cdg_acyclic: bool, model: str = "wormhole"
) -> Violation | None:
    """Dally–Seitz: an acyclic channel dependency graph forbids deadlock."""
    if not (deadlocked and cdg_acyclic):
        return None
    return Violation(
        "deadlock-freedom",
        f"{model}: simulator declared deadlock although the channel "
        f"dependency graph is acyclic (Dally–Seitz guarantees progress)",
        observed=True,
        bound=False,
    )


def check_batch_matches_serial(
    batch_metrics: Sequence[Mapping[str, Any]],
    serial_metrics: Sequence[Mapping[str, Any]],
    model: str = "wormhole",
) -> Violation | None:
    """Batched lockstep trials must be bit-identical to serial replays.

    Both sequences are per-trial metric dicts (as produced by
    ``repro.sim.sweep``'s ``_result_metrics``) in the same trial order;
    ``model`` names the simulator under test (every entry of
    ``repro.sim.batch.LOCKSTEP_MODELS`` is held to this invariant).
    """
    if len(batch_metrics) != len(serial_metrics):
        return Violation(
            "batch-serial-exactness",
            f"{model}: trial count mismatch: batched {len(batch_metrics)} "
            f"vs serial {len(serial_metrics)}",
            observed=len(batch_metrics),
            bound=len(serial_metrics),
        )
    for i, (got, want) in enumerate(zip(batch_metrics, serial_metrics)):
        if dict(got) == dict(want):
            continue
        keys = sorted(
            k
            for k in set(got) | set(want)
            if dict(got).get(k) != dict(want).get(k)
        )
        return Violation(
            "batch-serial-exactness",
            f"{model}: trial {i} diverged between batched and serial "
            f"execution on {', '.join(keys)}: batched "
            f"{ {k: dict(got).get(k) for k in keys} } vs serial "
            f"{ {k: dict(want).get(k) for k in keys} }",
            observed={k: dict(got).get(k) for k in keys},
            bound={k: dict(want).get(k) for k in keys},
        )
    return None
