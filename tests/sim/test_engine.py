"""Unit tests for the shared simulator engine (:mod:`repro.sim.engine`)."""

import ast
import inspect
import textwrap

import numpy as np
import pytest

from repro.network.graph import NetworkError
from repro.sim.batch import default_step_cap, resolve_step_cap
from repro.sim.engine import (
    BatchSlotArbiter,
    BatchStepLoop,
    age_priorities,
    check_edge_simple,
    grant_free_slots,
    grant_free_slots_reference,
    pad_paths,
)
from repro.telemetry.probe import Probe, ProbeSet


# ----------------------------------------------------------------------
# grant_free_slots
# ----------------------------------------------------------------------


def test_grant_respects_capacity_per_slot():
    slots = np.array([0, 0, 0, 1, 1], dtype=np.int64)
    prio = np.array([0.3, 0.1, 0.2, 0.9, 0.8])
    granted = grant_free_slots(slots, prio, capacity=2)
    # slot 0: the two lowest priorities win; slot 1: both fit.
    assert granted.tolist() == [False, True, True, True, True]


def test_grant_breaks_ties_lowest_priority_first():
    slots = np.zeros(3, dtype=np.int64)
    prio = np.array([2.0, 0.0, 1.0])
    granted = grant_free_slots(slots, prio, capacity=1)
    assert granted.tolist() == [False, True, False]


def test_grant_subtracts_existing_occupancy():
    slots = np.array([0, 1], dtype=np.int64)
    prio = np.array([0.5, 0.5])
    occupancy = np.array([2, 1], dtype=np.int64)
    granted = grant_free_slots(slots, prio, capacity=2, occupancy=occupancy)
    assert granted.tolist() == [False, True]


def test_grant_empty_contender_set():
    granted = grant_free_slots(
        np.zeros(0, dtype=np.int64), np.zeros(0), capacity=1
    )
    assert granted.shape == (0,) and granted.dtype == bool


def test_grant_full_slot_admits_nobody():
    slots = np.array([0], dtype=np.int64)
    occupancy = np.array([1], dtype=np.int64)
    granted = grant_free_slots(slots, np.array([0.0]), 1, occupancy)
    assert granted.tolist() == [False]


# ----------------------------------------------------------------------
# BatchSlotArbiter, one trial
# ----------------------------------------------------------------------


def test_arbiter_grant_vacate_roundtrip():
    arb = BatchSlotArbiter([3], [1])
    slots = np.array([0, 0, 2], dtype=np.int64)
    trials = np.zeros(3, dtype=np.int64)
    prio = np.array([0.9, 0.1, 0.5])
    granted, won = arb.grant(arb.keys(trials, slots), prio)
    assert granted.tolist() == [False, True, True] and won == 2
    assert arb.occupancy.tolist() == [1, 0, 1]
    # Slot 0 is now full: nobody else gets in, and nothing is written.
    again, won = arb.grant(arb.keys(trials[:1], slots[:1]), np.array([0.0]))
    assert again.tolist() == [False] and won == 0
    assert arb.occupancy.tolist() == [1, 0, 1]
    arb.vacate(arb.keys(trials[granted], slots[granted]))
    assert arb.occupancy.tolist() == [0, 0, 0]


def test_arbiter_scalar_interface():
    """One contender at a time: a capacity-2 slot fills after two grants."""
    arb = BatchSlotArbiter([2], [2])
    trial, slot = np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64)

    def grant():
        return arb.grant(arb.keys(trial, slot), np.zeros(1))[1]

    assert grant() == 1
    assert grant() == 1
    assert grant() == 0
    arb.vacate(arb.keys(trial, slot))
    assert grant() == 1
    assert arb.occupancy.tolist() == [0, 2]


def test_arbiter_duplicate_slots_in_one_grant():
    arb = BatchSlotArbiter([1], [2])
    both = np.zeros(2, dtype=np.int64)
    granted, won = arb.grant(arb.keys(both, both), np.zeros(2))
    assert granted.all() and won == 2
    assert arb.occupancy.tolist() == [2]


# ----------------------------------------------------------------------
# path validation helpers
# ----------------------------------------------------------------------


def test_pad_paths_shapes():
    padded, lengths = pad_paths([[1, 2, 3], [4], []])
    assert padded.shape == (3, 3)
    assert lengths.tolist() == [3, 1, 0]
    assert padded[1].tolist() == [4, -1, -1]


def test_check_edge_simple_rejects_duplicates():
    padded, _ = pad_paths([[1, 2], [3, 3]])
    with pytest.raises(NetworkError, match="message 1"):
        check_edge_simple(padded)


def test_check_edge_simple_custom_message():
    padded, _ = pad_paths([[5, 5]])
    with pytest.raises(NetworkError, match="worm 0 loops"):
        check_edge_simple(padded, what="worm {m} loops")


# ----------------------------------------------------------------------
# step caps
# ----------------------------------------------------------------------


def _dims(model):
    release = np.array([0, 3], dtype=np.int64)
    lengths = np.array([2, 4], dtype=np.int64)
    L = np.array([5, 5], dtype=np.int64)
    kw = {
        "release": release,
        "lengths": lengths,
        "message_length": L,
        "num_messages": 2,
    }
    if model == "wormhole":
        kw["total_moves"] = L + lengths - 1
        kw["trivial"] = lengths == 0
    return kw


@pytest.mark.parametrize(
    "model",
    ["wormhole", "cut_through", "restricted", "store_forward", "adaptive"],
)
def test_default_caps_are_positive_and_release_shifted(model):
    kw = _dims(model)
    cap = default_step_cap(model, **kw)
    assert cap > 0
    shifted = dict(kw, release=kw["release"] + 100)
    assert default_step_cap(model, **shifted) == cap + 100


def test_resolve_step_cap_explicit_wins():
    kw = _dims("wormhole")
    assert resolve_step_cap(17, "wormhole", **kw) == 17
    assert resolve_step_cap(None, "wormhole", **kw) == default_step_cap(
        "wormhole", **kw
    )


def test_default_cap_unknown_model():
    with pytest.raises(NetworkError, match="bogus"):
        default_step_cap("bogus", **_dims("wormhole"))


# ----------------------------------------------------------------------
# The step loop, one trial (a serial run is T = 1 of the lockstep loop)
# ----------------------------------------------------------------------


def _deliver_all(loop, scale=1):
    """A body that delivers every active message in the step it sees."""

    def body(t, active):
        loop.completion[active] = t * scale
        loop.done[active] = True
        return active.any(axis=1)

    return body


def test_steploop_counts_steps_and_assembles_result():
    release = np.zeros(2, dtype=np.int64)
    loop = BatchStepLoop(1, 2, release, 100)

    def body(t, active):
        if t >= 3:
            loop.completion[:] = t
            loop.done[:] = True
        return np.ones(1, dtype=bool)

    (result,) = loop.run(body)
    assert result.makespan == 3
    assert result.steps_executed == 3
    assert result.all_delivered and not result.deadlocked


def test_steploop_skips_idle_gap():
    release = np.array([10], dtype=np.int64)
    loop = BatchStepLoop(1, 1, release, 100)
    seen = []
    deliver = _deliver_all(loop)

    def body(t, active):
        seen.append(t)
        return deliver(t, active)

    loop.run(body)
    # t jumps straight past the idle prefix: first working step is 11.
    assert seen == [11]


def test_steploop_declares_deadlock_when_nothing_moves():
    release = np.zeros(1, dtype=np.int64)
    loop = BatchStepLoop(1, 1, release, 100)
    (result,) = loop.run(lambda t, active: np.zeros(1, dtype=bool))
    assert result.deadlocked and not result.hit_step_cap
    assert result.steps_executed == 1
    assert result.completion_times.tolist() == [-1]


def test_steploop_detect_deadlock_off_hits_cap_instead():
    release = np.zeros(1, dtype=np.int64)
    loop = BatchStepLoop(1, 1, release, 5, detect_deadlock=False)
    (result,) = loop.run(lambda t, active: np.zeros(1, dtype=bool))
    assert not result.deadlocked and result.hit_step_cap
    assert result.steps_executed == 5


def test_steploop_time_scale_multiplies_steps():
    release = np.zeros(1, dtype=np.int64)
    loop = BatchStepLoop(1, 1, release, 50, time_scale=4)
    (result,) = loop.run(_deliver_all(loop, scale=4))
    assert result.steps_executed == 4
    assert result.makespan == 4


def test_steploop_mark_trivial_completes_without_stepping():
    release = np.array([2, 0], dtype=np.int64)
    loop = BatchStepLoop(1, 2, release, 10)
    loop.mark_trivial(np.array([True, False]), release)
    (result,) = loop.run(_deliver_all(loop))
    assert result.completion_times.tolist() == [2, 1]
    assert result.all_delivered


def test_steploop_extra_factory_populates_result():
    release = np.zeros(1, dtype=np.int64)
    loop = BatchStepLoop(1, 1, release, 10)
    (result,) = loop.run(_deliver_all(loop), lambda i: {"marker": 7 + i})
    assert result.extra == {"marker": 7}


@pytest.mark.parametrize("cap, steps", [(0, 0), (-3, 0), (1, 1)])
def test_steploop_spent_cap_executes_no_step(cap, steps):
    """``while pending and t < max_steps``: a cap that is not positive
    leaves no step to execute, at any batch width."""
    release = np.zeros(1, dtype=np.int64)
    for T in (1, 3):
        loop = BatchStepLoop(T, 1, release, cap, detect_deadlock=False)
        calls = []

        def body(t, active):
            calls.append(t)
            return np.zeros(T, dtype=bool)

        results = loop.run(body)
        assert calls == list(range(1, steps + 1))
        assert [r.steps_executed for r in results] == [steps] * T
        assert all(r.hit_step_cap and not r.deadlocked for r in results)


class _Lifecycle(Probe):
    """Records the lifecycle events the loop (not the kernel) dispatches."""

    def __init__(self):
        self.events = []

    def on_deadlock(self, t, pending):
        self.events.append(("deadlock", t, pending.tolist()))

    def on_run_end(self, result):
        self.events.append(("run_end", result.steps_executed))


def test_steploop_dispatches_deadlock_then_run_end():
    probe = _Lifecycle()
    release = np.zeros(2, dtype=np.int64)
    loop = BatchStepLoop(1, 2, release, 100, probes=ProbeSet([probe]))
    loop.mark_trivial(np.array([True, False]), release)
    (result,) = loop.run(lambda t, active: np.zeros(1, dtype=bool))
    assert result.deadlocked
    assert probe.events == [("deadlock", 1, [1]), ("run_end", 1)]


def test_probes_never_steer_the_step_loop():
    """Probes observe only: the loop that steps the trials never reads
    them, so no probe can stop, skip or reorder a step."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(BatchStepLoop._advance)))
    names = {
        node.attr if isinstance(node, ast.Attribute) else node.id
        for node in ast.walk(tree)
        if isinstance(node, (ast.Attribute, ast.Name))
    }
    assert "probes" not in names


def test_steploop_rejects_probes_on_a_batch():
    with pytest.raises(NetworkError, match="T = 1"):
        BatchStepLoop(2, 1, np.zeros(1, dtype=np.int64), 10, probes=ProbeSet([Probe()]))


def test_age_priorities_orders_by_release_then_index():
    release = np.array([5, 0, 0], dtype=np.int64)
    prio = age_priorities(release)
    # Oldest (release 0, lowest index) ranks first; the late message last.
    assert prio.tolist() == [2, 0, 1]


# ----------------------------------------------------------------------
# the lexsort kernel lives only in the engine
# ----------------------------------------------------------------------


def test_single_kernel_site():
    import pathlib

    import repro.sim as sim_pkg

    sim_dir = pathlib.Path(sim_pkg.__file__).parent
    hits = [
        p.name
        for p in sim_dir.glob("*.py")
        if "np.lexsort((prio" in p.read_text()
    ]
    assert hits == ["engine.py"]


# ----------------------------------------------------------------------
# PaddedPaths
# ----------------------------------------------------------------------


def test_padded_paths_wraps_and_passes_through():
    from repro.sim.engine import PaddedPaths

    pp = PaddedPaths.from_paths([[0, 1], [2]])
    assert pp.num_messages == 2
    assert pp.lengths.tolist() == [2, 1]
    # from_paths on an instance returns the same object ...
    assert PaddedPaths.from_paths(pp) is pp
    # ... and pad_paths unwraps it without re-packing.
    padded, lengths = pad_paths(pp)
    assert padded is pp.padded and lengths is pp.lengths


def test_padded_paths_validates_once_and_caches():
    from repro.sim.engine import PaddedPaths

    pp = PaddedPaths.from_paths([[0, 1], [2]])
    assert not pp._edge_simple
    assert pp.require_edge_simple() is pp
    assert pp._edge_simple
    pp.require_edge_simple("anything")  # cached: no re-validation

    bad = PaddedPaths.from_paths([[0, 0]])
    with pytest.raises(NetworkError, match="edge-simple"):
        bad.require_edge_simple()
    with pytest.raises(NetworkError, match="worm"):
        PaddedPaths.from_paths([[1, 1]]).require_edge_simple("worm 0")


def test_padded_paths_checks_edge_ids_once():
    from repro.sim.engine import PaddedPaths

    pp = PaddedPaths.from_paths([[0, 4], [2], []])
    assert pp._edges_needed is None
    assert pp.require_edges_in(5) is pp
    assert pp._edges_needed == 5  # later calls compare two integers
    with pytest.raises(NetworkError, match="message 0 names edge 4"):
        pp.require_edges_in(4)
    with pytest.raises(NetworkError, match="message 1 names edge -1"):
        PaddedPaths.from_paths([[0], [-1]]).require_edges_in(3)


# ----------------------------------------------------------------------
# batched arbitration
# ----------------------------------------------------------------------


def test_grant_accepts_per_contender_capacity():
    slots = np.array([0, 0, 0, 5, 5], dtype=np.int64)
    prio = np.array([0.3, 0.1, 0.2, 0.9, 0.8])
    cap = np.array([2, 2, 2, 1, 1], dtype=np.int64)
    granted = grant_free_slots(slots, prio, cap)
    # Slot 0 (capacity 2) grants its two best; slot 5 (capacity 1) one.
    assert granted.tolist() == [False, True, True, False, True]


def test_batch_arbiter_matches_independent_serial_arbiters():
    """Each trial's grants equal the naive oracle run on its pool alone."""
    rng = np.random.default_rng(0)
    num_slots = np.array([4, 6, 4], dtype=np.int64)
    caps = np.array([1, 2, 3], dtype=np.int64)
    batch = BatchSlotArbiter(num_slots, caps)
    alone = [np.zeros(int(n), dtype=np.int64) for n in num_slots]
    for _ in range(50):
        n = int(rng.integers(1, 10))
        trials = rng.integers(0, 3, size=n).astype(np.int64)
        slots = np.array(
            [rng.integers(0, num_slots[tr]) for tr in trials], dtype=np.int64
        )
        prio = rng.random(n)
        got, won = batch.grant(batch.keys(trials, slots), prio)
        want = np.zeros(n, dtype=bool)
        for tr in range(3):
            sel = trials == tr
            if sel.any():
                want[sel] = grant_free_slots_reference(
                    slots[sel], prio[sel], int(caps[tr]), alone[tr]
                )
        assert np.array_equal(got, want) and won == want.sum()
        # Randomly vacate some grants to keep occupancy in flux.
        drop = got & (rng.random(n) < 0.5)
        batch.vacate(batch.keys(trials[drop], slots[drop]))
        for tr in range(3):
            np.add.at(alone[tr], slots[(trials == tr) & got], 1)
            np.add.at(alone[tr], slots[(trials == tr) & drop], -1)
            lo, hi = batch.offsets[tr], batch.offsets[tr + 1]
            assert np.array_equal(batch.occupancy[lo:hi], alone[tr])


def test_batch_arbiter_rejects_bad_shapes():
    with pytest.raises(NetworkError, match="equal length"):
        BatchSlotArbiter(np.array([2, 3]), np.array([1]))
    with pytest.raises(NetworkError, match="capacity"):
        BatchSlotArbiter(np.array([2]), np.array([0]))


# ----------------------------------------------------------------------
# BatchStepLoop masking
# ----------------------------------------------------------------------


def test_batchsteploop_finalizes_trials_independently():
    release = np.zeros(1, dtype=np.int64)
    # Trial 0 finishes at step 2, trial 1 deadlocks at step 1, trial 2
    # runs to its cap of 3.
    loop = BatchStepLoop(3, 1, release, np.array([10, 10, 3]))

    def body(t, active):
        moved = np.zeros(3, dtype=bool)
        if active[0, 0] and t == 2:
            loop.completion[0, 0] = t
            loop.done[0, 0] = True
            moved[0] = True
        elif active[0, 0]:
            moved[0] = True
        moved[2] = bool(active[2, 0])
        return moved

    loop.run(body)
    assert loop.steps.tolist() == [2, 1, 3]
    assert loop.deadlocked.tolist() == [False, True, False]
    assert loop.hit_cap.tolist() == [False, False, True]
    results = loop.results()
    assert results[0].completion_times.tolist() == [2]
    assert results[1].deadlocked and not results[1].hit_step_cap
    assert results[2].hit_step_cap and not results[2].deadlocked


def test_batchsteploop_jumps_shared_clock_over_idle_gap():
    release = np.array([50], dtype=np.int64)
    loop = BatchStepLoop(2, 1, release, np.array([100, 100]))
    seen = []

    def body(t, active):
        seen.append(t)
        loop.completion[:, 0] = np.where(active[:, 0], t, loop.completion[:, 0])
        loop.done[:, 0] |= active[:, 0]
        return active[:, 0].copy()

    loop.run(body)
    assert seen == [51]  # the gap 1..50 was skipped, not stepped
    assert loop.steps.tolist() == [51, 51]


def test_batchsteploop_release_at_or_past_cap_sets_cap_flag():
    release = np.array([40], dtype=np.int64)
    loop = BatchStepLoop(2, 1, release, np.array([10, 100]))

    def body(t, active):
        loop.completion[:, 0] = np.where(active[:, 0], t, loop.completion[:, 0])
        loop.done[:, 0] |= active[:, 0]
        return active[:, 0].copy()

    loop.run(body)
    # Trial 0's next release (40) is past its cap (10): finalized at the
    # jump target with the cap flag, exactly like the serial exit.
    assert loop.steps.tolist() == [40, 41]
    assert loop.hit_cap.tolist() == [True, False]
    assert loop.results()[1].completion_times.tolist() == [41]
