"""The adversarial scenario library: registry, runs, and integration."""

import numpy as np
import pytest

from repro.facade import simulate
from repro.fuzz.expectations import EXPECTATIONS, evaluate
from repro.network.graph import NetworkError
from repro.scenarios import SCENARIOS, get_scenario
from repro.sim.batch import LOCKSTEP_MODELS
from repro.sim.spec import Workload
from repro.sim.sweep import WORKLOADS, TrialSpec, _execute_trial


class TestRegistry:
    def test_builtin_scenarios_registered(self):
        assert {
            "lower-bound-gadget",
            "gadget-hotspot",
            "chain-contention",
            "hotspot-mesh",
            "layered-walks",
            "lll-schedule",
            "ring-deadlock",
            "ring-dateline",
            "bursty-arrivals",
            "heavy-tail-arrivals",
        } <= set(SCENARIOS)

    def test_unknown_name_lists_registered(self):
        with pytest.raises(NetworkError, match="unknown scenario"):
            get_scenario("zzz")

    def test_trial_scenarios_become_sweep_workloads(self):
        for name in SCENARIOS:
            assert f"scenario:{name}" in WORKLOADS

    def test_defaults_reflect_builder_signature(self):
        d = get_scenario("lower-bound-gadget").defaults()
        assert d["C"] == 8 and d["D"] == 15 and d["B"] == 1

    def test_undeclared_model_rejected(self):
        with pytest.raises(NetworkError, match="does not support model"):
            get_scenario("ring-deadlock").run(B=1, model="store_forward")


#: Every registered scenario x declared model x B.
RUN_GRID = [
    (name, model, B)
    for name, scen in sorted(SCENARIOS.items())
    for model in scen.models
    for B in (1, 2, 4)
]


class TestRunsClean:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_default_run_satisfies_expectations(self, name):
        run = get_scenario(name).run()
        assert run.ok, [v.detail for v in run.violations]
        assert run.checked  # some row applies to every default run

    @pytest.mark.parametrize("name, model, B", RUN_GRID)
    def test_every_declared_cell_satisfies_expectations(self, name, model, B):
        run = get_scenario(name).run(model=model, B=B)
        assert run.ok, [v.detail for v in run.violations]
        out = run.outcome
        if model in LOCKSTEP_MODELS and not (out.deadlocked or out.hit_step_cap):
            # No clean lockstep run escapes the analytic envelope.
            assert EXPECTATIONS["envelope"].label in run.checked

    def test_checked_lists_the_rows_that_applied(self):
        """``checked`` is what ran: the labels of the rows ``evaluate``
        applied, so a store-and-forward gadget run lists the bound that
        holds on any instance and none of the wormhole-only rows."""
        run = get_scenario("lower-bound-gadget").run(B=1, model="store_forward")
        wl = run.workload
        applied = evaluate(run.outcome, wl, model="store_forward", B=1)
        assert run.checked == [row.text(wl.facts) for row, _ in applied]
        assert EXPECTATIONS["sf-envelope"].label in run.checked
        for name in ("gadget", "congestion"):
            assert EXPECTATIONS[name].label not in run.checked

    def test_every_row_applies_to_some_scenario_cell(self):
        """No builder names rows, so a row that no registered scenario
        cell at its defaults selects would be dead.  Each row can apply
        at ``B = 1``, so the cells run there, the costly restricted ones
        last."""
        rows = set(EXPECTATIONS)
        cells = sorted(
            (model == "restricted", name, model)
            for name, scen in SCENARIOS.items()
            for model in scen.models
        )
        applied = set()
        for _, name, model in cells:
            wl = get_scenario(name).build_case(B=1)
            outcome = simulate(wl, model=model, B=1)
            applied |= {row.name for row, _ in evaluate(outcome, wl, model=model, B=1)}
            if applied == rows:
                break
        assert applied == rows, sorted(rows - applied)


class TestGadgetLowerBound:
    @staticmethod
    def _lower_bound(wl: Workload) -> float:
        """Theorem 2.2.1's ``(L - D) M / B`` at the ``B`` it was built for."""
        facts = wl.facts
        return (wl.default_length - facts["dilation"]) * len(wl.paths) / facts["built_B"]

    @pytest.mark.parametrize("B", [1, 2, 4])
    def test_theorem_221_bound_reproduced(self, B):
        run = get_scenario("lower-bound-gadget").run(B=B)
        assert run.ok
        assert EXPECTATIONS["gadget"].label in run.checked
        assert run.summary()["makespan"] >= self._lower_bound(run.workload)

    def test_bound_scales_inversely_with_B(self):
        bounds = {
            B: self._lower_bound(get_scenario("lower-bound-gadget").build_case(B=B))
            for B in (1, 2)
        }
        assert bounds[1] > bounds[2]

    def test_hotspot_variant_inflates_M_and_holds(self):
        run = get_scenario("gadget-hotspot").run(B=1)
        assert run.ok
        plain = get_scenario("lower-bound-gadget").build_case(B=1)
        assert run.workload.info["messages"] > plain.info["messages"]


class TestDeadlockFamily:
    @pytest.mark.parametrize(
        "B,expect", [(1, True), (2, True), (6, False), (8, False)]
    )
    def test_ring_deadlock_is_deterministic(self, B, expect):
        run = get_scenario("ring-deadlock").run(B=B)
        assert run.ok
        assert run.outcome.deadlocked is expect  # hops defaults to 6

    def test_dateline_restores_delivery_at_B2(self):
        run = get_scenario("ring-dateline").run(B=2)
        assert run.ok
        assert not run.outcome.deadlocked
        assert run.workload.facts["acyclic"] is True

    def test_dateline_at_B1_degrades_to_deadlock(self):
        run = get_scenario("ring-dateline").run(B=1)
        assert run.ok  # the B=1 case *expects* the deadlock
        assert run.outcome.deadlocked

    def test_hotspot_mesh_west_first_delivers(self):
        run = get_scenario("hotspot-mesh").run(B=2)
        assert run.ok and not run.outcome.deadlocked


class TestScheduleFamily:
    def test_schedule_model_meets_length_bound(self):
        run = get_scenario("lll-schedule").run(B=2)
        assert run.ok
        assert EXPECTATIONS["schedule"].label in run.checked
        info = run.workload.info
        assert run.outcome.makespan <= info["length_bound"]
        assert run.outcome.total_blocked_steps == 0

    @pytest.mark.parametrize(
        "B, makespan, classes", [(1, 143, 13), (2, 66, 6), (4, 33, 3)]
    )
    def test_the_defaults_pin_makespan_and_class_count(self, B, makespan, classes):
        """Theorem 2.1.6 at the builder defaults: one wormhole trial per
        ``B`` of the workload scheduled for it, never blocked."""
        run = get_scenario("lll-schedule").run(B=B)
        assert run.ok
        assert run.outcome.makespan == makespan
        assert run.workload.info["classes"] == classes
        assert run.outcome.total_blocked_steps == 0

    def test_release_times_are_the_class_phases(self):
        wl = get_scenario("lll-schedule").build_case(B=1)
        info = wl.info
        phase = wl.default_length + info["dilation"] - 1
        assert set(wl.release_times.tolist()) == {
            c * phase for c in range(info["classes"])
        }
        assert wl.facts["length_bound"] == info["classes"] * phase

    def test_same_case_runs_greedy_models_too(self):
        walks = get_scenario("layered-walks")
        run = walks.run(B=2, model="wormhole")
        assert run.ok
        assert run.outcome.all_delivered
        # The same routes the schedule releases, without the releases.
        scheduled = get_scenario("lll-schedule").build_case(B=2)
        assert run.workload.paths == scheduled.paths
        assert run.workload.release_times is None


class TestArrivalFamily:
    def test_bursty_trace_conserves_messages(self):
        run = get_scenario("bursty-arrivals").run(B=2)
        assert run.ok
        wl = run.workload
        # Every drawn arrival is a message, and a trial delivers them all.
        assert len(wl.paths) == len(wl.release_times) == len(wl.sources)
        assert run.outcome.num_messages == wl.info["messages"] > 0
        assert run.outcome.all_delivered
        # No message completes before its release plus L + D - 1.
        lengths = np.array([len(p) for p in wl.paths])
        unobstructed = wl.release_times + wl.default_length + lengths - 1
        assert (run.outcome.completion_times >= unobstructed).all()

    def test_heavy_tail_trace_is_seeded_deterministic(self):
        a = get_scenario("heavy-tail-arrivals").run(B=1)
        b = get_scenario("heavy-tail-arrivals").run(B=1)
        assert np.array_equal(a.workload.release_times, b.workload.release_times)
        assert a.workload.paths == b.workload.paths
        assert np.array_equal(a.outcome.completion_times, b.outcome.completion_times)


class TestIntegration:
    def test_facade_runs_scenario_workload_by_name(self):
        res = simulate(
            "scenario:chain-contention",
            model="wormhole",
            B=2,
            workload_params={"chains": 2, "depth": 5, "messages": 3},
        )
        assert res.all_delivered

    def test_sweep_trial_spec_executes_scenario_cell(self):
        spec = TrialSpec.make(
            "scenario:chain-contention",
            "wormhole",
            B=2,
            workload_params={"chains": 2, "depth": 5, "messages": 3},
        )
        metrics, _ = _execute_trial((spec, 0))
        assert metrics["delivered"] == metrics["messages"]

    def test_scenario_workload_riding_B_param(self):
        """Gadget instances must be built FOR the B they run at: the
        trial's ``B`` rides into the builder, so a spec that names no
        ``B`` is the spec that names the trial's, down to its cache key;
        one that names a ``B`` keeps it."""

        def spec(B, built_for=None):
            params = {"C": 6, "D": 7}
            if built_for is not None:
                params["B"] = built_for
            return TrialSpec.make(
                "scenario:lower-bound-gadget", "wormhole", B=B, workload_params=params
            )

        assert spec(2) == spec(2, built_for=2)
        assert spec(2).cache_key(0) == spec(2, built_for=2).cache_key(0)
        assert ("B", 1) in spec(2, built_for=1).workload_params
        metrics, _ = _execute_trial((spec(2), 0))
        assert metrics["delivered"] == metrics["messages"]
        assert metrics["workload_messages"] == len(
            get_scenario("lower-bound-gadget").build_case(B=2, C=6, D=7).paths
        )

    def test_loadgen_config_substitutes_scenario_workload(self):
        from repro.service import LoadgenConfig

        config = LoadgenConfig(
            scenario="chain-contention", requests=4, channels=(1, 2)
        )
        specs = config.specs()
        assert all(
            s.workload == "scenario:chain-contention" for s in specs
        )
        assert config.arrival_offsets() is None

    def test_loadgen_config_paces_arrival_scenario(self):
        from repro.service import LoadgenConfig

        config = LoadgenConfig(
            scenario="bursty-arrivals", requests=8, channels=(1,)
        )
        # A scenario whose workload has release times keeps the
        # synthetic workload...
        assert config.effective_workload() == config.workload
        offsets = config.arrival_offsets()
        # ...but paces requests along its cumulative arrivals: 10 ms a
        # step, each offset one of the scenario's release steps.
        release = WORKLOADS["scenario:bursty-arrivals"]().release_times
        assert len(offsets) == 8
        assert offsets == sorted(offsets)
        assert offsets[-1] > offsets[0]
        assert {round(o / 0.01) for o in offsets} <= set(release.tolist())

    def test_telemetry_probes_attach_to_scenario_runs(self):
        from repro.telemetry import standard_collectors

        probes = standard_collectors()
        run = get_scenario("chain-contention").run(B=2, telemetry=probes)
        assert run.ok
        assert any(getattr(p, "total_flits", 0) > 0 for p in probes)

    def test_run_summary_shapes(self):
        trial = get_scenario("chain-contention").run(B=1)
        assert set(trial.summary()) == {
            "makespan",
            "delivered",
            "blocked",
            "deadlocked",
        }
        sched = get_scenario("lll-schedule").run(B=1)
        assert set(sched.summary()) == set(trial.summary())
        arrivals = get_scenario("bursty-arrivals").run(B=1)
        assert set(arrivals.summary()) == set(trial.summary())


class TestContinuousArrayRate:
    def test_out_of_range_trace_rejected(self):
        from repro.sim.continuous import draw_arrivals

        rng = np.random.default_rng(0)
        with pytest.raises(NetworkError, match="rate"):
            draw_arrivals(np.array([0.1] * 9 + [1.5]), 1, lambda s, r: [0], rng, rng)


class TestVcIdsFacade:
    def test_vc_ids_rejected_off_wormhole(self):
        wl = get_scenario("ring-dateline").build_case(B=2)
        assert wl.vc_ids is not None
        with pytest.raises(NetworkError, match="wormhole"):
            simulate(wl, model="store_forward", B=2)

    def test_vc_ids_forwarded_to_wormhole(self):
        wl = get_scenario("ring-dateline").build_case(B=2)
        # The ring states its index arbitration with the classes.
        res = simulate(wl, model="wormhole", B=2)
        assert res.all_delivered
        # The same classes on a workload of the bare routes are one trial.
        again = simulate(
            Workload(net=wl.net, paths=wl.paths, vc_ids=wl.vc_ids),
            B=2,
            message_length=wl.default_length,
            priority="index",
        )
        assert np.array_equal(again.completion_times, res.completion_times)
