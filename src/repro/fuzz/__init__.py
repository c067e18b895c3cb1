"""Property-based invariant fuzzing for the router models.

Three layers:

* :mod:`repro.fuzz.invariants` — pure oracle functions for every
  invariant the paper (and the batch subsystem) guarantee;
* :mod:`repro.fuzz.expectations` — the one table of which per-run
  invariant applies to which run, and the one function that judges a
  run by it (scenario runs and fuzz cases alike);
* :mod:`repro.fuzz.fuzzer` — the seeded case generator (a family is a
  registered scenario plus a parameter sampler), the cross-run
  invariants, shrinker, and replayable-artifact machinery behind
  ``repro fuzz``.

>>> from repro.fuzz import run_fuzz
>>> run_fuzz(rounds=3, seed=0).ok
True
"""

from .invariants import (
    STORE_FORWARD_SLACK,
    Violation,
    check_b_monotonicity,
    check_batch_matches_serial,
    check_congestion_bound,
    check_deadlock_consistency,
    check_delivery,
    check_full_vs_restricted,
    check_gadget_bound,
    check_schedule_bound,
    check_store_forward_envelope,
    check_unobstructed,
)
from .fuzzer import (
    FAMILIES,
    FAMILY_TABLE,
    FuzzCase,
    FuzzReport,
    generate_case,
    replay_artifact,
    run_case,
    run_fuzz,
    shrink_case,
)

__all__ = [
    "FAMILIES",
    "FAMILY_TABLE",
    "FuzzCase",
    "FuzzReport",
    "STORE_FORWARD_SLACK",
    "Violation",
    "check_b_monotonicity",
    "check_batch_matches_serial",
    "check_congestion_bound",
    "check_deadlock_consistency",
    "check_delivery",
    "check_full_vs_restricted",
    "check_gadget_bound",
    "check_schedule_bound",
    "check_store_forward_envelope",
    "check_unobstructed",
    "generate_case",
    "replay_artifact",
    "run_case",
    "run_fuzz",
    "shrink_case",
]
