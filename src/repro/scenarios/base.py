"""Scenario registry: named adversarial workloads, judged by one table.

A *scenario* is a curated hard case from the paper (or the interconnect
literature around it) packaged two ways at once:

* a **builder** — ``build(**params) -> Workload``, the whole trial but
  ``B`` and the seed: routes, ``L``, and any release times (an
  open-loop arrival trace or a Theorem 2.1.6 schedule), injection
  sources, virtual-channel classes and arbitration — read from the
  registered :data:`~repro.sim.sweep.WORKLOADS` builders so an instance
  is constructed in one place — plus the ``facts`` the builder knows
  about it (``acyclic``, ``built_B``, ...).  A builder with a ``B``
  parameter builds the instance *for* a ``B``; every door builds it
  for the trial's (:func:`~repro.sim.spec.with_trial_B`);
* a **sweep workload** — the builder itself registers as
  ``scenario:<name>`` in :data:`repro.sim.sweep.WORKLOADS`, so scenario
  cells drop into ``repro sweep``, the service loadgen, and the process
  backends unchanged, and run there exactly as :meth:`Scenario.run`
  runs them.

Registration mirrors :func:`repro.sim.sweep.register_workload`::

    @register_scenario(
        "chain-contention",
        family="contention",
        theorem="Theorem 2.1.2",
        models=("wormhole", "cut_through", "store_forward", "restricted"),
    )
    def _build(chains=4, depth=12, messages=8):
        wl = WORKLOADS["chain-bundle"](chains=chains, depth=depth, messages=messages)
        wl.facts = {"acyclic": True}
        return wl

:meth:`Scenario.run`, the fuzzer's ``run_case`` and ``repro profile``
run a case as one :func:`repro.simulate` trial of its workload, and
every outcome is judged by :func:`repro.fuzz.expectations.evaluate`
over the whole expectation table: a row applies where its models, the
workload's facts and the run match it, and nothing else chooses rows.
From the CLI: ``repro scenario list | show <name> | run <name>``.
"""

from __future__ import annotations

import inspect
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Any

from ..fuzz.expectations import evaluate
from ..fuzz.invariants import Violation
from ..network.graph import NetworkError
from ..sim.spec import with_trial_B
from ..sim.sweep import Workload, call_builder, register_workload

__all__ = [
    "Scenario",
    "ScenarioRun",
    "SCENARIOS",
    "get_scenario",
    "register_scenario",
]


@dataclass
class ScenarioRun:
    """Outcome of :meth:`Scenario.run`: the result plus its verdicts."""

    scenario: str
    model: str
    B: int
    workload: Workload
    outcome: Any
    violations: list[Violation]
    #: The labels of the expectation rows that applied to this run.
    checked: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> dict[str, Any]:
        """Display scalars for tables."""
        out = self.outcome
        return {
            "makespan": int(out.makespan),
            "delivered": f"{out.num_delivered}/{out.num_messages}",
            "blocked": int(out.total_blocked_steps),
            "deadlocked": bool(out.deadlocked),
        }


@dataclass(frozen=True)
class Scenario:
    """A registered scenario: builder + metadata."""

    name: str
    family: str
    theorem: str
    description: str
    models: tuple[str, ...]
    build: Callable[..., Workload]

    def defaults(self) -> dict[str, Any]:
        """The builder's keyword defaults (for ``repro scenario show``)."""
        return {
            k: p.default
            for k, p in inspect.signature(self.build).parameters.items()
            if p.default is not inspect.Parameter.empty
        }

    def build_case(self, *, B: int = 1, **params: Any) -> Workload:
        """The workload of a trial at ``B`` (a parameter the builder
        cannot take is a :class:`NetworkError` naming the ones it does)."""
        return call_builder(
            f"scenario {self.name!r}", self.build, with_trial_B(self.build, params, B)
        )

    def run(
        self,
        *,
        B: int = 1,
        model: str | None = None,
        seed: int | None = 0,
        telemetry: Any = None,
        max_steps: int | None = None,
        **params: Any,
    ) -> ScenarioRun:
        """Build the case for ``B``, simulate it under ``model`` as one
        :func:`repro.simulate` trial, and judge it by every expectation
        row that applies.

        ``model`` defaults to the scenario's first declared model; any
        declared model is accepted.  ``telemetry`` / ``max_steps``
        forward to :func:`repro.simulate` (telemetry only where the
        model supports probes).
        """
        from ..facade import simulate

        if model is None:
            model = self.models[0]
        if model not in self.models:
            raise NetworkError(
                f"scenario {self.name!r} does not support model {model!r}; "
                f"declared: {', '.join(self.models)}"
            )
        wl = self.build_case(B=B, **params)
        outcome = simulate(
            wl,
            model=model,
            B=B,
            seed=seed,
            telemetry=telemetry,
            max_steps=max_steps,
        )
        verdicts = evaluate(outcome, wl, model=model, B=B)
        return ScenarioRun(
            scenario=self.name,
            model=model,
            B=int(B),
            workload=wl,
            outcome=outcome,
            violations=[v for _, v in verdicts if v is not None],
            checked=[row.text(wl.facts) for row, _ in verdicts],
        )


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

SCENARIOS: dict[str, Scenario] = {}


def register_scenario(
    name: str,
    *,
    family: str,
    theorem: str,
    models: Sequence[str] = ("wormhole",),
    description: str | None = None,
) -> Callable:
    """Register ``build(**params) -> Workload`` under ``name``.

    The builder itself also registers as the sweep workload
    ``scenario:<name>``, so it is addressable from
    :class:`~repro.sim.sweep.TrialSpec`, ``repro sweep``, the facade's
    workload-name problem form, and the service loadgen.  A builder
    that takes a ``B`` is built for the trial's ``B`` on every door
    unless the caller names one (gadget instances must be built *for*
    the ``B`` they run at).
    """

    def deco(build_fn: Callable[..., Workload]) -> Scenario:
        scen = Scenario(
            name=name,
            family=family,
            theorem=theorem,
            description=(
                description
                if description is not None
                else inspect.getdoc(build_fn) or ""
            ).strip(),
            models=tuple(models),
            build=build_fn,
        )
        SCENARIOS[name] = scen
        register_workload(f"scenario:{name}")(build_fn)
        return scen

    return deco


def get_scenario(name: str) -> Scenario:
    scen = SCENARIOS.get(name)
    if scen is None:
        raise NetworkError(
            f"unknown scenario {name!r}; "
            f"registered: {', '.join(sorted(SCENARIOS))}"
        )
    return scen
