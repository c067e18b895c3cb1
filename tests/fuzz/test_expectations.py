"""The expectation table: one evaluator, one catalogue, full coverage."""

import inspect
from dataclasses import replace

import numpy as np
import pytest

from repro.fuzz import fuzzer as fz
from repro.fuzz.expectations import EXPECTATIONS, evaluate
from repro.scenarios import SCENARIOS
from repro.sim.stats import SimulationResult
from repro.sim.sweep import WORKLOADS

#: ``(row, model)`` pairs ``run_fuzz(50, seed=0)`` must evaluate.  The
#: first block is what the fuzzer's hand-applied checks covered before
#: the table existed (recorded by instrumenting that commit); the second
#: is what running every declared model through the table added.
REQUIRED_PAIRS = {
    ("delivery", "wormhole"),
    ("unobstructed", "wormhole"),
    ("unobstructed", "store_forward"),
    ("congestion", "wormhole"),
    ("envelope", "wormhole"),
    ("envelope", "store_forward"),
    ("envelope", "restricted"),
    ("gadget", "wormhole"),
    ("sf-envelope", "store_forward"),
    ("schedule", "wormhole"),
    ("deadlock-free", "wormhole"),
    ("ring-determinism", "wormhole"),
} | {
    ("delivery", "cut_through"),
    ("unobstructed", "cut_through"),
    ("envelope", "cut_through"),
    ("delivery", "store_forward"),
    ("delivery", "restricted"),
}


def test_fuzz_evaluates_the_committed_matrix(fuzz_fifty):
    assert fuzz_fifty.report.ok, fuzz_fifty.report.failures
    assert REQUIRED_PAIRS <= fuzz_fifty.seen, sorted(REQUIRED_PAIRS - fuzz_fifty.seen)


@pytest.mark.parametrize("family", fz.FAMILIES)
def test_family_is_a_registered_scenario_plus_a_sampler(family):
    """A sampler draws its builder's keywords, and ``B``: the one ``B``
    the case runs at, which reaches a builder that takes one."""
    fam = fz.FAMILY_TABLE[family]
    accepted = {"B", *inspect.signature(SCENARIOS[fam.scenario].build).parameters}
    for seed in range(25):
        params, _, _ = fam.sampler(np.random.default_rng(seed))
        assert set(params) <= accepted, set(params) - accepted


def _outcome(makespan, *, deadlocked=False, blocked=0):
    """A three-message trial's result: all delivered at ``makespan``, or
    none if it deadlocked."""
    messages = 3
    return SimulationResult(
        completion_times=np.full(messages, -1 if deadlocked else makespan),
        makespan=makespan,
        steps_executed=makespan,
        blocked_steps=np.full(messages, blocked),
        deadlocked=deadlocked,
    )


class TestEvaluate:
    # Three worms down one 4-edge chain: C = 3, D = 4, L = 2 D = 8.
    wl = WORKLOADS["chain-bundle"](chains=1, depth=4, messages=3)

    def judge(self, outcome, model="wormhole", B=1, facts=()):
        wl = replace(self.wl, facts=dict(facts))
        return {row.name: v for row, v in evaluate(outcome, wl, model=model, B=B)}

    def test_bounds_are_measured_from_the_routes(self):
        # ceil(L C / B) = 24: no fact carried C here, the routes did.
        got = self.judge(_outcome(23))
        assert got["congestion"].bound == 24
        assert self.judge(_outcome(24))["congestion"] is None

    def test_rows_apply_by_model(self):
        assert "congestion" not in self.judge(_outcome(24), model="cut_through")
        assert "sf-envelope" in self.judge(_outcome(64), model="store_forward")
        assert "sf-envelope" not in self.judge(_outcome(64), model="store_forward", B=2)

    def test_unclean_runs_skip_the_clean_only_rows(self):
        got = self.judge(_outcome(3, deadlocked=True), facts={"acyclic": True})
        assert set(got) == {"delivery", "deadlock-free"}
        assert got["delivery"] is None  # a deadlocked run owes no delivery
        assert got["deadlock-free"].invariant == "deadlock-freedom"

    def test_the_sf_envelope_counts_from_the_last_release(self):
        """Two packets down a 3-edge chain at L = 2, the second released
        at step 500: store-and-forward finishes at 506, inside the
        budget 500 + 4 L (C + D) = 540, not 4 L (C + D) = 40 from step 0."""
        from repro import simulate
        from repro.sim.spec import Workload

        chain = WORKLOADS["chain-bundle"](chains=1, depth=3, messages=2)
        wl = Workload(chain.net, chain.paths, default_length=2, release_times=[0, 500])
        res = simulate(wl, model="store_forward")
        assert res.makespan == 506
        got = {row.name: v for row, v in evaluate(res, wl, model="store_forward", B=1)}
        assert "sf-envelope" in got and not any(got.values())
        late = SimulationResult(
            completion_times=np.array([6, 541]),
            makespan=541,
            steps_executed=541,
            blocked_steps=np.zeros(2, dtype=np.int64),
            deadlocked=False,
        )
        got = {row.name: v for row, v in evaluate(late, wl, model="store_forward", B=1)}
        assert got["sf-envelope"].bound == 540.0

    def test_the_unobstructed_time_counts_from_each_release(self):
        """A packet released at step 500 on a 3-edge chain cannot arrive
        before 500 + 3 ceil(L/B) = 506: a run reading 505 is a violation
        even though 505 is far above the release-blind 6."""
        from repro.sim.spec import Workload

        chain = WORKLOADS["chain-bundle"](chains=1, depth=3, messages=2)
        wl = Workload(chain.net, chain.paths, default_length=2, release_times=[0, 500])
        early = SimulationResult(
            completion_times=np.array([6, 505]),
            makespan=505,
            steps_executed=505,
            blocked_steps=np.zeros(2, dtype=np.int64),
            deadlocked=False,
        )
        got = {row.name: v for row, v in evaluate(early, wl, model="store_forward", B=1)}
        assert got["unobstructed"].bound == 506

    def test_a_row_needs_its_facts(self):
        assert "deadlock-free" not in self.judge(_outcome(24))
        assert "gadget" not in self.judge(_outcome(24), facts={"built_B": 1})
        facts = {"built_B": 1, "dilation": 4}
        assert self.judge(_outcome(11), facts=facts)["gadget"].bound == 12.0
        assert "gadget" not in self.judge(_outcome(11), B=2, facts=facts)

    def test_the_schedule_row_holds_at_the_b_and_l_it_was_built_for(self):
        facts = {"built_B": 1, "built_L": 8, "length_bound": 30}
        assert self.judge(_outcome(30), facts=facts)["schedule"] is None
        assert self.judge(_outcome(31), facts=facts)["schedule"].bound == 30
        # A schedule never blocks: one blocked step is a violation.
        blocked = self.judge(_outcome(30, blocked=1), facts=facts)["schedule"]
        assert blocked.invariant == "schedule-upper-bound"
        assert "schedule" not in self.judge(_outcome(31), B=2, facts=facts)
        shrunk = {**facts, "built_L": 9}  # the case runs at L = 8
        assert "schedule" not in self.judge(_outcome(31), facts=shrunk)
        assert "schedule" not in self.judge(_outcome(31), model="cut_through", facts=facts)

    def test_a_label_is_worded_from_the_facts(self):
        row = EXPECTATIONS["deadlock-free"]
        assert row.text({"acyclic": False}) == (
            "cyclic channel dependency graph: deadlock is permitted"
        )
        assert row.text({"acyclic": True}).startswith("acyclic")
        assert EXPECTATIONS["envelope"].text({}) == EXPECTATIONS["envelope"].label
