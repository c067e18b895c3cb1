"""Adversarial scenario library: named hard cases with declared expectations.

``repro.scenarios`` packages the paper's worst-case constructions (and the
deadlock / open-loop hard cases around them) as registry entries that can
be built for any virtual-channel count, run through :func:`repro.simulate`
on any declared model, and judged by the expectation table in
:mod:`repro.fuzz.expectations` (the theorem-derived invariants of
:mod:`repro.fuzz.invariants`, each with the runs it applies to).

>>> from repro.scenarios import get_scenario
>>> run = get_scenario("lower-bound-gadget").run(B=2)
>>> run.ok, run.summary()["makespan"] >= run.case.info["lower_bound"]
(True, True)
"""

from .base import (
    SCENARIOS,
    CheckFn,
    Scenario,
    ScenarioCase,
    ScenarioRun,
    get_scenario,
    register_scenario,
)
from . import library  # noqa: F401  (imports register the built-in scenarios)

__all__ = [
    "CheckFn",
    "SCENARIOS",
    "Scenario",
    "ScenarioCase",
    "ScenarioRun",
    "get_scenario",
    "register_scenario",
]
