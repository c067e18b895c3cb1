"""Scenario registry: named adversarial workloads with declared expectations.

A *scenario* is a curated hard case from the paper (or the interconnect
literature around it) packaged three ways at once:

* a **builder** — ``build(B=..., **params) -> ScenarioCase`` producing a
  concrete :class:`~repro.sim.sweep.Workload` for the requested
  virtual-channel count — the whole trial: routes, ``L``, and any
  release times (an open-loop arrival trace or a Theorem 2.1.6
  schedule), injection sources, virtual-channel classes and
  arbitration — read from the registered
  :data:`~repro.sim.sweep.WORKLOADS` builders so an instance is
  constructed in one place;
* a set of **expectations** — rows of the one table in
  :mod:`repro.fuzz.expectations` (the Theorem 2.2.1 lower bound, the
  Theorem 2.1.6 length bound, the analytic delay envelope, deadlock
  determinism, deadlock freedom, ...), named by the builder next to
  the ``facts`` they need (``acyclic``, ``built_B``, ...);
* a **sweep workload** — every scenario auto-registers as
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
    def _build(B=1, chains=4, depth=12, messages=8):
        wl = WORKLOADS["chain-bundle"](chains=chains, depth=depth, messages=messages)
        facts = {"acyclic": True}
        checks = expectations(("congestion", "deadlock-free", "envelope"), facts)
        return ScenarioCase(workload=wl, facts=facts, checks=checks)

:meth:`Scenario.run`, the fuzzer's ``run_case`` and ``repro profile``
run a case as one :func:`repro.simulate` trial of its workload, and
every outcome is judged by :func:`repro.fuzz.expectations.evaluate`.
From the CLI: ``repro scenario list | show <name> | run <name>``.
"""

from __future__ import annotations

import functools
import inspect
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

from ..fuzz.invariants import Violation
from ..network.graph import NetworkError
from ..sim.sweep import Workload, call_builder, register_workload

__all__ = [
    "CheckFn",
    "Scenario",
    "ScenarioCase",
    "ScenarioRun",
    "SCENARIOS",
    "get_scenario",
    "register_scenario",
]

CheckFn = Callable[[Any, dict[str, Any]], "Violation | list[Violation] | None"]
"""An expectation: ``fn(outcome, ctx)`` returning violation(s) or None.

``outcome`` is the run's :class:`~repro.facade.SimResult`; ``ctx``
carries ``model``, ``B``, ``L``, ``seed`` and the built
:class:`ScenarioCase`.
"""


@dataclass
class ScenarioCase:
    """One built instance of a scenario, ready to simulate.

    ``workload`` is the whole trial but ``B`` and the seed — routes,
    ``L`` (its ``default_length``), release times, injection sources,
    virtual-channel classes and arbitration; the case adds only what a
    workload is not.
    """

    workload: Workload
    #: What the builder knows about the instance that the expectation
    #: rows need (JSON-safe: a fuzz artifact stores them).
    facts: dict[str, Any] = field(default_factory=dict)
    #: Declared expectations (:func:`repro.fuzz.expectations.expectations`).
    checks: list[tuple[str, CheckFn]] = field(default_factory=list)
    info: dict[str, Any] = field(default_factory=dict)


@dataclass
class ScenarioRun:
    """Outcome of :meth:`Scenario.run`: the result plus its verdicts."""

    scenario: str
    model: str
    B: int
    case: ScenarioCase
    outcome: Any
    violations: list[Violation]
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
    """A registered scenario: builder + metadata + expectations."""

    name: str
    family: str
    theorem: str
    description: str
    models: tuple[str, ...]
    build: Callable[..., ScenarioCase]

    def defaults(self) -> dict[str, Any]:
        """The builder's keyword defaults (for ``repro scenario show``)."""
        return {
            k: p.default
            for k, p in inspect.signature(self.build).parameters.items()
            if p.default is not inspect.Parameter.empty
        }

    def build_case(self, *, B: int = 1, **params: Any) -> ScenarioCase:
        """The case built for ``B`` (a parameter the builder cannot take
        is a :class:`NetworkError` naming the ones it does)."""
        return call_builder(f"scenario {self.name!r}", self.build, {"B": B, **params})

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
        """Build the case for ``B`` and simulate it under ``model``: one
        :func:`repro.simulate` trial of the case's workload.

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
        case = self.build_case(B=B, **params)
        outcome = simulate(
            case.workload,
            model=model,
            B=B,
            seed=seed,
            telemetry=telemetry,
            max_steps=max_steps,
        )
        ctx = {
            "model": model,
            "B": int(B),
            "L": case.workload.default_length,
            "seed": seed,
            "case": case,
        }
        violations: list[Violation] = []
        checked: list[str] = []
        for label, check in case.checks:
            checked.append(label)
            got = check(outcome, ctx)
            if got is None:
                continue
            violations.extend(got if isinstance(got, list) else [got])
        return ScenarioRun(
            scenario=self.name,
            model=model,
            B=int(B),
            case=case,
            outcome=outcome,
            violations=violations,
            checked=checked,
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
    """Register ``build(B=..., **params) -> ScenarioCase`` under ``name``.

    Every scenario also registers its workload as ``scenario:<name>``
    in the sweep registry, so it is addressable
    from :class:`~repro.sim.sweep.TrialSpec`, ``repro sweep``, the
    facade's workload-name problem form, and the service loadgen.  The
    builder's ``B`` rides along as an ordinary workload parameter there
    (gadget instances must be built *for* the ``B`` they run at).
    """
    def deco(build_fn: Callable[..., ScenarioCase]) -> Scenario:
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

        # wraps: build_workload checks outside parameters against the
        # signature, which must read as the builder's.
        @functools.wraps(build_fn)
        def _workload(**params: Any) -> Workload:
            return build_fn(**params).workload

        register_workload(f"scenario:{name}")(_workload)
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
