"""One trial through every front door.

A scenario cell is one :class:`~repro.sim.spec.Workload` — routes,
release times, injection sources and virtual-channel classes — so
``Scenario.run``, a sweep :class:`~repro.sim.spec.TrialSpec` (what the
service and the cluster execute too) and ``simulate`` by name must give
the same numbers.
"""

import pytest

from repro.facade import simulate
from repro.network.graph import NetworkError
from repro.scenarios import SCENARIOS, get_scenario
from repro.sim.sweep import TrialSpec, _result_metrics, run_sweep

#: Every trial scenario x declared model x B, at the builder defaults.
CELLS = [
    (name, model, B)
    for name, scen in sorted(SCENARIOS.items())
    if scen.kind == "trial"
    for model in scen.models
    for B in (1, 2)
]

ARRIVALS = sorted(name for name, s in SCENARIOS.items() if s.family == "arrival")


def _options(scen, model, B):
    """The case's arbitration where the row takes it, as ``Scenario.run``
    passes it."""
    from repro.sim.batch import LOCKSTEP_MODELS

    case = scen.build_case(B=B)
    spec = LOCKSTEP_MODELS[model]
    chosen = {"priority": case.priority, "policy": case.policy}.get(spec.option)
    if chosen is None or chosen not in spec.choices:
        return {}
    return {spec.option: chosen}


@pytest.mark.parametrize("name, model, B", CELLS)
def test_every_front_door_runs_the_same_trial(name, model, B):
    scen = get_scenario(name)
    want = _result_metrics(scen.run(B=B, model=model, seed=0).outcome)
    options = _options(scen, model, B)
    spec = TrialSpec.make(
        f"scenario:{name}",
        model,
        B=B,
        workload_params={"B": B},
        sim_params={"seed": 0, **options},
    )
    swept = run_sweep([spec]).trials[0].metrics
    assert {k: swept[k] for k in want} == want
    by_name = simulate(
        f"scenario:{name}", model=model, B=B, workload_params={"B": B}, seed=0, **options
    )
    assert _result_metrics(by_name) == want


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
    arrival trial in either mode rather than dropping them, and the
    schedule pipeline, which sets its own releases, refuses it too."""
    for mode in ("exact", "estimate"):
        with pytest.raises(NetworkError, match="sources"):
            simulate("scenario:bursty-arrivals", model="cut_through", mode=mode)
    spec = TrialSpec.make("scenario:bursty-arrivals", "schedule")
    with pytest.raises(NetworkError, match="release_times, sources"):
        run_sweep([spec])
