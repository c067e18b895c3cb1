"""The expectation table: which invariant applies to which run.

:mod:`repro.fuzz.invariants` states each bound once, as a pure checker
over plain numbers.  This module states — also once — *when* a bound
applies to a run and where its numbers come from: one
:class:`Expectation` row per per-run invariant, holding its label, the
``check_*`` it calls, and its applicability as data (the models it
covers, whether it needs a clean run, the builder-stated ``facts`` it
needs).  :func:`evaluate` is the one function that judges a run, by the
whole table: ``Scenario.run``, the fuzzer's ``run_case`` and ``repro
profile`` all go through it, so a registered scenario, a generated fuzz
case and a structurally shrunk one are judged by the same rule — every
row whose models, facts and runs match.
Congestion, dilation and the path lengths are measured from the routes
at evaluation time (:func:`repro.analysis.estimate.route_stats`), never
carried along.  README *Scenarios & fuzzing* tabulates the rows.

Facts a builder may state on its :class:`~repro.sim.spec.Workload`
(``Workload.facts``): ``acyclic`` (is the channel dependency graph
acyclic), ``built_B`` and ``dilation`` (the Theorem 2.2.1 instance was
built for this ``B`` and pads every path to this ``D``), ``built_B``,
``built_L`` and ``length_bound`` (the Theorem 2.1.6 schedule the release
times state was built for this ``B`` and ``L`` and guarantees this
makespan), ``expect_deadlock`` and ``why`` (the deadlock verdict the
construction forces, and the reason shown in the label), ``width`` and
``depth`` (an arrival trace's leveled network).
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any

from ..analysis.estimate import ESTIMATABLE_MODELS, estimate_paths, route_stats
from ..sim.batch import LOCKSTEP_MODELS
from ..sim.sweep import _result_metrics
from . import invariants as inv
from .invariants import Violation

__all__ = ["EXPECTATIONS", "Expectation", "evaluate"]

#: Every model, and those whose routes are given rather than chosen
#: online.
_MODELS = tuple(LOCKSTEP_MODELS)
_FIXED_ROUTE = tuple(m for m in _MODELS if LOCKSTEP_MODELS[m].kind == "paths")


@dataclass(frozen=True)
class Expectation:
    """One per-run invariant and when it applies.

    ``check`` and ``when`` read the run ``r`` :func:`evaluate` assembles:
    the outcome's scalars (``r.makespan``, ``r.delivered``, ...), the
    ``r.model`` / ``r.B`` / ``r.L`` it ran at, the workload's ``r.facts``,
    and ``r.lengths`` / ``r.C`` / ``r.D`` measured from its routes
    (``C`` is ``None`` where they were chosen online).
    """

    #: The row's key in :data:`EXPECTATIONS`.
    name: str
    #: What ``repro scenario show`` prints (a callable words it from the
    #: workload's facts; :meth:`text`).
    label: str | Callable[[Mapping[str, Any]], str]
    #: The :mod:`~repro.fuzz.invariants` call.
    check: Callable[[Any], Violation | None]
    #: Models the row covers.
    models: tuple[str, ...]
    #: Only runs that neither deadlocked nor hit their step cap.
    clean_only: bool = False
    #: Facts the workload must state for the row to apply at all.
    needs: tuple[str, ...] = ()
    #: Any further condition on the run (the ``B`` a bound is stated at).
    when: Callable[[Any], bool] | None = None

    def applies(self, r: Any) -> bool:
        return (
            r.model in self.models
            and (r.clean or not self.clean_only)
            and all(fact in r.facts for fact in self.needs)
            and (self.when is None or self.when(r))
        )

    def text(self, facts: Mapping[str, Any]) -> str:
        """The label, worded from ``facts`` where it is a callable."""
        return self.label(facts) if callable(self.label) else self.label


def _envelope(r) -> Violation | None:
    env = estimate_paths(
        r.model,
        message_length=r.L,
        B=r.B,
        path_lengths=r.lengths,
        congestion=r.C,
        release_times=r.release_times,
    )
    return inv.check_estimate_envelope(
        r.makespan, lower=env.lower, upper=env.upper, model=r.model
    )


def _deadlock_as_expected(r) -> Violation | None:
    want = bool(r.facts["expect_deadlock"])
    if r.deadlocked == want:
        return None
    return Violation(
        "ring-deadlock-determinism",
        f"{r.model} ring at B={r.B}, L={r.L}: expected deadlocked={want} "
        f"({r.facts['why']}), observed deadlocked={r.deadlocked}",
        observed=r.deadlocked,
        bound=want,
    )


#: Every per-run invariant, by row name.
EXPECTATIONS: dict[str, Expectation] = {
    row.name: row
    for row in (
        Expectation(
            "delivery",
            "clean runs deliver every message",
            lambda r: inv.check_delivery(
                delivered=r.delivered,
                messages=r.messages,
                deadlocked=r.deadlocked,
                hit_step_cap=r.hit_step_cap,
                model=r.model,
            ),
            models=_MODELS,
        ),
        Expectation(
            "unobstructed",
            "makespan >= the unobstructed time (Section 1.1)",
            lambda r: inv.check_unobstructed(
                r.makespan,
                message_length=r.L,
                path_lengths=r.lengths,
                B=r.B,
                model=r.model,
            ),
            models=_FIXED_ROUTE,
            clean_only=True,
        ),
        Expectation(
            "congestion",
            "makespan >= ceil(L*C/B) (edge capacity)",
            lambda r: inv.check_congestion_bound(
                r.makespan, message_length=r.L, congestion=r.C, B=r.B
            ),
            models=("wormhole",),
            clean_only=True,
        ),
        Expectation(
            "envelope",
            "makespan inside the analytic delay envelope (repro.analysis.estimate)",
            _envelope,
            models=ESTIMATABLE_MODELS,
            clean_only=True,
            # An empty trial has no makespan to bound (it reads -1).
            when=lambda r: r.messages > 0,
        ),
        Expectation(
            "gadget",
            "makespan >= (L-D)M/B (Theorem 2.2.1)",
            lambda r: inv.check_gadget_bound(
                r.makespan,
                lower_bound=(r.L - r.facts["dilation"]) * len(r.lengths) / r.B,
            ),
            models=("wormhole",),
            clean_only=True,
            needs=("built_B", "dilation"),
            when=lambda r: r.B == r.facts["built_B"],
        ),
        Expectation(
            "sf-envelope",
            "store-and-forward stays O(L(C+D)) (Rothvoss et al.)",
            lambda r: inv.check_store_forward_envelope(
                r.makespan, message_length=r.L, congestion=r.C, dilation=r.D
            ),
            models=("store_forward",),
            clean_only=True,
            when=lambda r: r.B == 1,
        ),
        Expectation(
            "schedule",
            "scheduled run is unblocked within its length bound (Theorem 2.1.6)",
            lambda r: inv.check_schedule_bound(
                r.makespan, length_bound=r.facts["length_bound"], blocked=r.blocked
            ),
            models=("wormhole",),
            needs=("built_B", "built_L", "length_bound"),
            # The releases are the schedule only at the B and L it was
            # built for (a fuzz shrink may cut L).
            when=lambda r: r.B == r.facts["built_B"] and r.L == r.facts["built_L"],
        ),
        Expectation(
            "deadlock-free",
            lambda facts: (
                "acyclic channel dependency graph forbids deadlock (Dally-Seitz)"
                if facts["acyclic"]
                else "cyclic channel dependency graph: deadlock is permitted"
            ),
            lambda r: inv.check_deadlock_consistency(
                r.deadlocked, cdg_acyclic=bool(r.facts["acyclic"]), model=r.model
            ),
            models=_MODELS,
            needs=("acyclic",),
        ),
        Expectation(
            "ring-determinism",
            lambda facts: f"deadlock is deterministic here: {facts['why']}",
            _deadlock_as_expected,
            models=("wormhole",),
            needs=("expect_deadlock", "why"),
            # The verdict presumes worms long enough to wrap the cycle shut.
            when=lambda r: r.L > r.B,
        ),
    )
}


def evaluate(
    outcome: Any, wl: Any, *, model: str, B: int
) -> list[tuple[Expectation, Violation | None]]:
    """Judge one run: ``(row, violation or None)`` per applicable row.

    ``outcome`` is the result of one trial of the workload ``wl`` (its
    routes, ``default_length``, ``release_times`` and ``facts`` are
    read) under ``model`` at ``B``.  Every row of the table is tried;
    one that does not apply to this run (wrong model, unclean run, a
    missing fact, a ``when`` guard) is skipped, not reported.
    """
    # A trial's numbers under the sweep runner's metric names.
    r = SimpleNamespace(
        **_result_metrics(outcome),
        model=model,
        B=int(B),
        L=int(wl.default_length),
        facts=wl.facts,
        release_times=wl.release_times,
    )
    r.clean = not (r.deadlocked or r.hit_step_cap)
    r.lengths, r.C, _ = route_stats(wl, model)
    r.D = max(r.lengths, default=0)
    return [(row, row.check(r)) for row in EXPECTATIONS.values() if row.applies(r)]
