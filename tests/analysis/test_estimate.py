"""The analytic delay-envelope estimator (``repro.analysis.estimate``).

Three layers of pinning:

* hand-computed formula checks per model (the arithmetic itself);
* the envelope *property* — ``lower <= simulated makespan <= upper``
  for every clean run — on the full E5 comparison grid and on 50
  seeded fuzz cases across all estimable models;
* the wire/metric contract: ``to_metrics`` is JSON-safe, deterministic,
  and bit-stable across calls (what lets services answer estimates
  from any replica).
"""

import json
import math

import numpy as np
import pytest

from repro.analysis.estimate import (
    ESTIMATABLE_MODELS,
    DelayEnvelope,
    EstimateError,
    estimate_paths,
    estimate_spec,
    estimate_workload,
)
from repro.sim.sweep import TrialSpec, build_workload, run_sweep, sweep_grid

# ----------------------------------------------------------------------
# Formula checks (hand-computed)
# ----------------------------------------------------------------------


def test_wormhole_formulas():
    # Three worms over a shared edge: d = [3, 3, 2], C = 3, L = 8, B = 2.
    env = estimate_paths(
        "wormhole", message_length=8, B=2, path_lengths=[3, 3, 2], congestion=3
    )
    # Unobstructed floors: L + d - 1 = [10, 10, 9].
    assert env.per_message_lower == (10, 10, 9)
    # Occupancy term ceil(L*C/B) = 12 beats the floor max 10.
    assert env.lower == 12
    # Progress budget: sum(L + d - 1) = 29.
    assert env.upper == 29
    assert env.dilation == 3 and env.total_path_length == 8
    assert env.tightness == pytest.approx(29 / 12)


def test_cut_through_and_restricted_ignore_B_in_occupancy():
    # One flit per physical edge per step regardless of B.
    for model in ("cut_through", "restricted"):
        e1 = estimate_paths(
            model, message_length=6, B=1, path_lengths=[4, 4], congestion=2
        )
        e4 = estimate_paths(
            model, message_length=6, B=4, path_lengths=[4, 4], congestion=2
        )
        assert e1.lower == e4.lower == 6 * 2  # L * C
        assert e1.upper == e4.upper == 6 * 8  # L * sum(d)


def test_store_forward_formulas():
    env = estimate_paths(
        "store_forward", message_length=7, B=2, path_lengths=[5, 3], congestion=2
    )
    hop = math.ceil(7 / 2)
    assert env.per_message_lower == (5 * hop, 3 * hop)
    assert env.lower == max(5 * hop, 2 * hop)
    assert env.upper == 8 * hop  # sum(d) message steps of ceil(L/B)


def test_adaptive_upper_only():
    env = estimate_paths("adaptive", message_length=5, B=2, path_lengths=[4, 2])
    assert env.lower is None
    assert env.congestion is None
    assert env.tightness is None
    assert env.upper == (5 + 4 - 1) + (5 + 2 - 1)
    assert env.check(env.upper) and not env.check(env.upper + 1)


def test_release_times_shift_both_sides():
    base = estimate_paths(
        "wormhole", message_length=4, B=1, path_lengths=[3, 3], congestion=1
    )
    late = estimate_paths(
        "wormhole",
        message_length=4,
        B=1,
        path_lengths=[3, 3],
        congestion=1,
        release_times=[0, 10],
    )
    assert late.per_message_lower == (6, 16)
    assert late.lower == 16
    assert late.upper == base.upper + 10  # max_release shifts the budget
    assert late.max_release == 10


def test_zero_length_paths_are_free():
    # Source == destination: delivered at release, no network time.
    env = estimate_paths(
        "wormhole", message_length=9, B=1, path_lengths=[0, 0, 2], congestion=1
    )
    assert env.per_message_lower == (0, 0, 10)
    assert env.upper == 10  # only the active path consumes budget


def test_empty_workload():
    env = estimate_paths(
        "wormhole", message_length=4, B=1, path_lengths=[], congestion=0
    )
    assert env.lower == 0 and env.upper == 0 and env.messages == 0
    assert env.check(0)


def test_validation_errors():
    with pytest.raises(EstimateError, match="no analytic envelope"):
        estimate_paths("schedule", message_length=4, B=1, path_lengths=[1])
    with pytest.raises(EstimateError, match="message_length"):
        estimate_paths("wormhole", message_length=0, B=1, path_lengths=[1])
    with pytest.raises(EstimateError, match="B must"):
        estimate_paths("wormhole", message_length=4, B=0, path_lengths=[1])
    with pytest.raises(EstimateError, match="congestion"):
        estimate_paths("wormhole", message_length=4, B=1, path_lengths=[1])
    with pytest.raises(EstimateError, match="release_times"):
        estimate_paths(
            "wormhole",
            message_length=4,
            B=1,
            path_lengths=[1, 2],
            congestion=1,
            release_times=[0],
        )


# ----------------------------------------------------------------------
# Workload / spec plumbing
# ----------------------------------------------------------------------


def test_estimate_workload_matches_route_stats():
    from repro.routing.paths import congestion as path_congestion
    from repro.routing.paths import dilation as path_dilation

    wl = build_workload(
        "chain-bundle", (("chains", 3), ("depth", 5), ("messages", 4))
    )
    env = estimate_workload(wl, "wormhole", B=2)
    assert env.message_length == wl.default_length
    assert env.congestion == path_congestion(wl.paths)
    assert env.dilation == path_dilation(wl.paths)
    assert env.messages == len(wl.paths)


def test_estimate_workload_plain_edge_lists():
    # butterfly-bitrev stores plain edge-id lists, not Path objects.
    wl = build_workload("butterfly-bitrev", (("n", 8),))
    env = estimate_workload(wl, "cut_through", B=2)
    assert env.messages == len(wl.paths)
    assert env.dilation == max(len(p) for p in wl.paths)


def test_estimate_spec_deterministic_and_seed_blind():
    a = TrialSpec.make("chain-bundle", "wormhole", B=2, message_length=8)
    b = TrialSpec.make(
        "chain-bundle", "wormhole", B=2, message_length=8, repeat=3
    )
    ma, mb = estimate_spec(a).to_metrics(), estimate_spec(b).to_metrics()
    assert ma == mb  # repeats / seeds never move the bounds
    assert ma == estimate_spec(a).to_metrics()  # bit-stable across calls
    json.dumps(ma)  # JSON-safe for the wire


def test_estimate_spec_brackets_a_scheduled_trial():
    """A Theorem 2.1.6 schedule is a wormhole workload with release
    times: its envelope is over them, the last class released at
    ``(classes - 1)(L + D - 1)``."""
    for B in (1, 2):
        spec = TrialSpec.make(
            "scenario:lll-schedule", "wormhole", B=B, workload_params={"B": B}
        )
        env = estimate_spec(spec)
        exact = run_sweep([spec]).trials[0].metrics
        assert env.lower <= exact["makespan"] <= env.upper, (B, env, exact)
        L, D = exact["message_length"], exact["workload_dilation"]
        assert env.max_release == (exact["workload_classes"] - 1) * (L + D - 1)


def test_to_metrics_digest_tracks_per_message_floors():
    e1 = estimate_paths(
        "wormhole", message_length=4, B=1, path_lengths=[2, 3], congestion=1
    )
    e2 = estimate_paths(
        "wormhole", message_length=4, B=1, path_lengths=[3, 2], congestion=1
    )
    m1, m2 = e1.to_metrics(), e2.to_metrics()
    assert m1["delay_lower_digest"] != m2["delay_lower_digest"]
    assert m1["makespan_upper"] == m2["makespan_upper"]


# ----------------------------------------------------------------------
# The envelope property
# ----------------------------------------------------------------------


#: The estimator grid behind README's "Estimate vs exact" table: the E5
#: chain bundle for the fixed-route models, the permutation mesh the
#: adaptive router needs.  ``model -> (workload, workload_params, L)``.
_CHAINS = ("chain-bundle", {"chains": 4, "depth": 12, "messages": 8}, 24)
ESTIMATE_GRID = {
    "wormhole": _CHAINS,
    "cut_through": _CHAINS,
    "store_forward": _CHAINS,
    "restricted": _CHAINS,
    "adaptive": ("mesh-permutation", {"k": 6}, 6),
}


def test_envelope_holds_on_e5_grid():
    """lower <= simulated makespan <= upper on the full E5 sweep grid."""
    specs = [
        spec
        for model, (workload, params, L) in ESTIMATE_GRID.items()
        for spec in sweep_grid(
            workload,
            model,
            (1, 2, 4),
            workload_params=params,
            sim_params={"seed": 0},
            message_length=L,
        )
    ]
    assert len(specs) == 15
    for trial in run_sweep(specs):
        env = estimate_spec(trial.spec)
        makespan = trial.metrics["makespan"]
        assert env.check(makespan), (
            f"{trial.spec.label()}: {env.lower} <= {makespan} <= {env.upper}"
        )


@pytest.mark.parametrize(
    "model, lower, upper, tightness",
    [
        ("wormhole", 96, 1120, 11.7),
        ("cut_through", 192, 9216, 48.0),
        ("store_forward", 144, 4608, 32.0),
        ("restricted", 192, 9216, 48.0),
        ("adaptive", None, 325, None),  # upper bound only
    ],
)
def test_readme_estimator_table_at_b2(model, lower, upper, tightness):
    """The B=2 rows of README's "Estimate vs exact" table, as data.

    Tightness is a closed form of ``estimate_spec``, so a formula change
    that moves a published number fails here, not in a timing file.
    """
    workload, params, L = ESTIMATE_GRID[model]
    env = estimate_spec(
        TrialSpec.make(
            workload, model, B=2, workload_params=params, message_length=L
        )
    )
    assert (env.lower, env.upper) == (lower, upper)
    if tightness is None:
        assert env.tightness is None
    else:
        assert round(env.tightness, 1) == tightness


def test_envelope_holds_on_fuzz_cases():
    """50 seeded fuzz rounds: every clean run sits inside its envelope.

    Draws the same reproducible cases as ``repro fuzz`` and runs each
    workload as drawn — release times, injection sources, classes and
    arbitration included — at the case's lowest channel count under
    every fixed-route model the fuzzer runs it under: its family's
    declared models (the arrival and ring families are wormhole only),
    plus the restricted model on the structural families.  The adaptive
    model runs on a derived permutation mesh.  This is the property the
    fuzzer's ``estimate-envelope`` oracle then watches continuously.
    """
    from repro.facade import simulate
    from repro.fuzz.fuzzer import FAMILY_TABLE, generate_case
    from repro.network.mesh import KAryNCube
    from repro.scenarios import get_scenario

    checked = 0
    for i in range(50):
        case = generate_case(11, i)
        B, wl = case.channels[0], case.workload
        family = FAMILY_TABLE[case.family]
        models = set(get_scenario(family.scenario).models)
        if family.structural:
            models.add("restricted")
        for model in ("wormhole", "cut_through", "store_forward", "restricted"):
            if model not in models:
                continue
            res = simulate(wl, model=model, B=B, seed=case.sim_seed, max_steps=200_000)
            if res.deadlocked or res.hit_step_cap:
                continue
            env = estimate_workload(wl, model, B=B)
            assert env.check(int(res.makespan)), (
                f"round {i} {case.family} {model} B={B}: "
                f"{env.lower} <= {res.makespan} <= {env.upper}"
            )
            checked += 1
        # Adaptive: upper bound only, on a mesh permutation.
        cube = KAryNCube(4, 2, wrap=False)
        perm = np.random.default_rng(case.sim_seed).permutation(cube.num_nodes)
        demands = [(s, int(d)) for s, d in enumerate(perm) if s != int(d)]
        L = min(wl.default_length, 6)
        res = simulate(
            (cube, demands), model="adaptive", B=B, message_length=L,
            seed=case.sim_seed, max_steps=200_000,
        )
        if not (res.deadlocked or res.hit_step_cap):
            env = estimate_paths(
                "adaptive",
                message_length=L,
                B=B,
                path_lengths=cube.distances(demands),
            )
            assert env.check(int(res.makespan))
            checked += 1
    assert checked > 100  # the sweep really exercised the property


def test_estimatable_models_cover_batched_kernels():
    from repro.sim.batch import LOCKSTEP_MODELS

    assert set(ESTIMATABLE_MODELS) == set(LOCKSTEP_MODELS)


def test_envelope_is_frozen():
    env = estimate_paths(
        "wormhole", message_length=4, B=1, path_lengths=[2], congestion=1
    )
    assert isinstance(env, DelayEnvelope)
    with pytest.raises(AttributeError):
        env.upper = 0
