"""Adversarial scenario library: named hard cases, judged by one table.

``repro.scenarios`` packages the paper's worst-case constructions (and the
deadlock / open-loop hard cases around them) as registry entries whose
builders return a :class:`~repro.sim.spec.Workload` — built for any
virtual-channel count, with the facts the builder knows about it — run
through :func:`repro.simulate` on any declared model, and judged by the
expectation table in :mod:`repro.fuzz.expectations` (the
theorem-derived invariants of :mod:`repro.fuzz.invariants`, each with
the runs and facts it applies to).

>>> from repro.fuzz.expectations import EXPECTATIONS
>>> from repro.scenarios import get_scenario
>>> run = get_scenario("lower-bound-gadget").run(B=2)
>>> run.ok, EXPECTATIONS["gadget"].label in run.checked
(True, True)
"""

from .base import (
    SCENARIOS,
    Scenario,
    ScenarioRun,
    get_scenario,
    register_scenario,
)
from . import library  # noqa: F401  (imports register the built-in scenarios)

__all__ = [
    "SCENARIOS",
    "Scenario",
    "ScenarioRun",
    "get_scenario",
    "register_scenario",
]
