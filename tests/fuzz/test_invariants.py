"""Pin every fuzz oracle as a pure function.

Each checker gets (at least) one hand-built violating input that must be
flagged and one golden passing input that must not — so a fuzzing
failure can only ever mean a *simulator* regressed, never that an
oracle silently drifted.
"""

import numpy as np
import pytest

from repro.fuzz import invariants as inv
from repro.fuzz.invariants import Violation


class TestDelivery:
    def test_clean_run_short_delivery_flagged(self):
        v = inv.check_delivery(
            delivered=7, messages=8, deadlocked=False, hit_step_cap=False
        )
        assert v is not None and v.invariant == "delivery"
        assert v.observed == 7 and v.bound == 8

    def test_full_delivery_passes(self):
        assert (
            inv.check_delivery(
                delivered=8, messages=8, deadlocked=False, hit_step_cap=False
            )
            is None
        )

    def test_deadlocked_run_is_exempt(self):
        assert (
            inv.check_delivery(
                delivered=0, messages=8, deadlocked=True, hit_step_cap=False
            )
            is None
        )

    def test_step_capped_run_is_exempt(self):
        assert (
            inv.check_delivery(
                delivered=3, messages=8, deadlocked=False, hit_step_cap=True
            )
            is None
        )


class TestUnobstructed:
    def test_wormhole_bound_is_L_plus_d_minus_1(self):
        # d=5, L=8 -> no run can beat 12 flit steps.
        v = inv.check_unobstructed(
            11, message_length=8, path_lengths=[3, 5], B=2
        )
        assert v is not None and v.invariant == "unobstructed-time"
        assert v.bound == 12
        assert (
            inv.check_unobstructed(
                12, message_length=8, path_lengths=[3, 5], B=2
            )
            is None
        )

    def test_store_forward_bound_scales_with_bandwidth(self):
        # d=4, L=8, B=3 -> 4 * ceil(8/3) = 12.
        v = inv.check_unobstructed(
            11,
            message_length=8,
            path_lengths=[4],
            B=3,
            model="store_forward",
        )
        assert v is not None and v.bound == 12

    def test_release_times_shift_the_bound(self):
        v = inv.check_unobstructed(
            14,
            message_length=8,
            path_lengths=[3, 3],
            release_times=[0, 5],
        )
        assert v is not None and v.bound == 15  # 5 + 8 + 3 - 1

    def test_zero_length_paths_are_excluded(self):
        assert (
            inv.check_unobstructed(0, message_length=8, path_lengths=[0])
            is None
        )


class TestCongestionBound:
    def test_beating_ceil_LC_over_B_flagged(self):
        # L=8, C=5, B=2 -> ceil(40/2) = 20.
        v = inv.check_congestion_bound(
            19, message_length=8, congestion=5, B=2
        )
        assert v is not None and v.invariant == "congestion-bound"
        assert v.bound == 20

    def test_meeting_the_bound_passes(self):
        assert (
            inv.check_congestion_bound(
                20, message_length=8, congestion=5, B=2
            )
            is None
        )


class TestGadgetBound:
    def test_below_theorem_221_flagged(self):
        v = inv.check_gadget_bound(539, lower_bound=540.0)
        assert v is not None and v.invariant == "gadget-lower-bound"

    def test_at_bound_passes(self):
        assert inv.check_gadget_bound(540, lower_bound=540.0) is None


class TestScheduleBound:
    def test_overrunning_length_bound_flagged(self):
        v = inv.check_schedule_bound(67, length_bound=66)
        assert v is not None and v.invariant == "schedule-upper-bound"

    def test_meeting_length_bound_passes(self):
        assert inv.check_schedule_bound(66, length_bound=66) is None

    def test_a_blocked_step_is_flagged_within_the_bound(self):
        v = inv.check_schedule_bound(60, length_bound=66, blocked=2)
        assert v is not None and (v.observed, v.bound) == (2, 0)


class TestStoreForwardEnvelope:
    def test_blowing_the_envelope_flagged(self):
        # slack * L * (C+D) = 4 * 8 * 10 = 320.
        v = inv.check_store_forward_envelope(
            321, message_length=8, congestion=5, dilation=5
        )
        assert v is not None and v.invariant == "store-forward-envelope"

    def test_within_envelope_passes(self):
        assert (
            inv.check_store_forward_envelope(
                320, message_length=8, congestion=5, dilation=5
            )
            is None
        )


class TestBMonotonicity:
    def test_rise_with_B_flagged_per_pair(self):
        out = inv.check_b_monotonicity({1: 100, 2: 110, 4: 90})
        assert len(out) == 1
        assert out[0].invariant == "b-monotonicity"
        assert out[0].observed == 110 and out[0].bound == 100

    def test_monotone_decrease_passes(self):
        assert inv.check_b_monotonicity({1: 100, 2: 80, 4: 80}) == []

    def test_empty_and_singleton_pass(self):
        assert inv.check_b_monotonicity({}) == []
        assert inv.check_b_monotonicity({2: 50}) == []


class TestFullVsRestricted:
    def test_full_slower_than_restricted_flagged(self):
        v = inv.check_full_vs_restricted(101, 100, B=2, congestion=6)
        assert v is not None and v.invariant == "full-vs-restricted"

    def test_full_at_most_restricted_passes(self):
        assert (
            inv.check_full_vs_restricted(100, 100, B=2, congestion=6) is None
        )


class TestDeadlockConsistency:
    def test_deadlock_under_acyclic_cdg_flagged(self):
        v = inv.check_deadlock_consistency(True, cdg_acyclic=True)
        assert v is not None and v.invariant == "deadlock-freedom"

    def test_deadlock_under_cyclic_cdg_permitted(self):
        assert inv.check_deadlock_consistency(True, cdg_acyclic=False) is None

    def test_no_deadlock_always_passes(self):
        assert inv.check_deadlock_consistency(False, cdg_acyclic=True) is None


class TestBatchMatchesSerial:
    def test_identical_metrics_pass(self):
        m = [{"makespan": 10, "digest": "aa"}, {"makespan": 11, "digest": "bb"}]
        assert inv.check_batch_matches_serial(m, [dict(x) for x in m]) is None

    def test_divergent_trial_flagged_with_keys(self):
        batch = [{"makespan": 10, "digest": "aa"}]
        serial = [{"makespan": 12, "digest": "aa"}]
        v = inv.check_batch_matches_serial(batch, serial)
        assert v is not None and v.invariant == "batch-serial-exactness"
        assert "makespan" in v.detail and "digest" not in v.detail

    def test_count_mismatch_flagged(self):
        v = inv.check_batch_matches_serial([{}], [{}, {}])
        assert v is not None and "count" in v.detail


class TestViolationSerialization:
    def test_to_json_is_numpy_safe(self):
        v = Violation(
            "x", "numpy numbers", observed=np.int64(3), bound=np.float64(4.5)
        )
        payload = v.to_json()
        assert payload == {
            "invariant": "x",
            "detail": "numpy numbers",
            "observed": 3,
            "bound": 4.5,
        }
        assert type(payload["observed"]) is int
        assert type(payload["bound"]) is float

    def test_frozen(self):
        v = Violation("x", "d")
        with pytest.raises(AttributeError):
            v.detail = "other"


class TestEstimateEnvelope:
    def test_inside_envelope_passes(self):
        assert inv.check_estimate_envelope(10, lower=5, upper=20) is None
        assert inv.check_estimate_envelope(5, lower=5, upper=20) is None
        assert inv.check_estimate_envelope(20, lower=5, upper=20) is None

    def test_below_lower_violates(self):
        v = inv.check_estimate_envelope(4, lower=5, upper=20, model="wormhole")
        assert v is not None and v.invariant == "estimate-envelope"
        assert v.observed == 4 and v.bound == 5
        assert "lower" in v.detail

    def test_above_upper_violates(self):
        v = inv.check_estimate_envelope(21, lower=5, upper=20)
        assert v is not None and v.observed == 21 and v.bound == 20
        assert "upper" in v.detail

    def test_none_sides_are_unchecked(self):
        # Adaptive: no lower bound — only the upper side can fire.
        assert inv.check_estimate_envelope(0, lower=None, upper=20) is None
        v = inv.check_estimate_envelope(21, lower=None, upper=20)
        assert v is not None
        assert inv.check_estimate_envelope(10**9, lower=5, upper=None) is None
