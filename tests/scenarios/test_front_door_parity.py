"""One trial through every front door.

A scenario cell is one :class:`~repro.sim.spec.Workload` — routes,
release times, injection sources, virtual-channel classes and
arbitration — so ``Scenario.run``, a sweep
:class:`~repro.sim.spec.TrialSpec` (what the service and the cluster
execute too) and ``simulate`` by name must give the same numbers, with
nothing but the builder parameters passed to any of them.
"""

import pytest

from repro.facade import simulate
from repro.network.graph import NetworkError
from repro.scenarios import SCENARIOS, get_scenario
from repro.sim.sweep import TrialSpec, _result_metrics, run_sweep

#: Every scenario x declared model x B, at the builder defaults.
CELLS = [
    (name, model, B)
    for name, scen in sorted(SCENARIOS.items())
    for model in scen.models
    for B in (1, 2)
]

#: Cells off the builder defaults: the instance's own arbitration (a
#: turn model, here fully adaptive) and a smaller dateline ring.
PARAM_CELLS = [
    ("hotspot-mesh", "adaptive", B, {"policy": "fully-adaptive"}) for B in (1, 2)
] + [("ring-dateline", "wormhole", B, {"n": 5, "hops": 4}) for B in (2, 3)]

ARRIVALS = sorted(name for name, s in SCENARIOS.items() if s.family == "arrival")


def _assert_doors_agree(name, model, B, params):
    run = get_scenario(name).run(B=B, model=model, seed=0, **params)
    assert run.ok, [v.detail for v in run.violations]
    want = _result_metrics(run.outcome)
    spec = TrialSpec.make(
        f"scenario:{name}",
        model,
        B=B,
        workload_params=params,
        sim_params={"seed": 0},
    )
    swept = run_sweep([spec]).trials[0].metrics
    assert {k: swept[k] for k in want} == want
    by_name = simulate(
        f"scenario:{name}", model=model, B=B, workload_params=params, seed=0
    )
    assert _result_metrics(by_name) == want


@pytest.mark.parametrize("name, model, B", CELLS)
def test_every_front_door_runs_the_same_trial(name, model, B):
    _assert_doors_agree(name, model, B, {})


@pytest.mark.parametrize("name, model, B, params", PARAM_CELLS)
def test_a_builder_parameter_reaches_every_front_door(name, model, B, params):
    _assert_doors_agree(name, model, B, params)


def test_a_policy_the_adaptive_row_lacks_is_refused_by_every_door():
    params = {"policy": "bogus"}
    with pytest.raises(NetworkError, match="policy"):
        get_scenario("hotspot-mesh").run(B=1, **params)
    spec = TrialSpec.make(
        "scenario:hotspot-mesh", "adaptive", workload_params=params
    )
    with pytest.raises(NetworkError, match="policy"):
        run_sweep([spec])
    with pytest.raises(NetworkError, match="policy"):
        simulate("scenario:hotspot-mesh", model="adaptive", workload_params=params)


def test_an_arbitration_the_workload_states_is_given_once():
    """The ring states its index priority: the same option again, from
    the facade or a sweep's sim params, is an error, not an override."""
    with pytest.raises(NetworkError, match="already states priority 'index'"):
        simulate("scenario:ring-deadlock", priority="index")
    spec = TrialSpec.make(
        "scenario:ring-deadlock", "wormhole", sim_params={"priority": "random"}
    )
    with pytest.raises(NetworkError, match="already states priority"):
        run_sweep([spec])


@pytest.mark.parametrize("name", ARRIVALS)
def test_an_arrival_scenario_honours_max_steps(name):
    run = get_scenario(name).run(B=1, max_steps=5)
    assert run.outcome.hit_step_cap and not run.outcome.all_delivered


@pytest.mark.parametrize("name", ARRIVALS)
def test_an_arrival_scenario_feeds_telemetry(name):
    from repro.telemetry import standard_collectors

    probes = standard_collectors()
    run = get_scenario(name).run(B=2, telemetry=probes)
    assert run.ok
    assert any(getattr(p, "total_flits", 0) > 0 for p in probes)


def test_a_model_that_cannot_run_the_trial_refuses_it():
    """Injection queues are wormhole-only: another row refuses the
    arrival trial in either mode rather than dropping them, and a
    schedule, which sets its own releases, refuses to be built on it."""
    from repro.core.scheduler import schedule_workload

    for mode in ("exact", "estimate"):
        with pytest.raises(NetworkError, match="sources"):
            simulate("scenario:bursty-arrivals", model="cut_through", mode=mode)
    arrivals = get_scenario("bursty-arrivals").build_case()
    with pytest.raises(NetworkError, match="release_times, sources"):
        schedule_workload(arrivals, 1)
