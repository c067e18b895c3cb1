"""Waksman routing on a Benes network (Section 1.3.3, [48]) as a workload.

:func:`~repro.core.scheduler.waksman_workload` states ``q`` permutation
batches as a schedule released ``L + 1`` apart, and the expectation
table's ``schedule`` row holds the run to zero blocking within
``(q - 1)(L + 1) + L + 2 log n - 1`` steps, which the ``unobstructed``
row meets from below.  The row must also fail when the schedule is
wrong: batches released only ``L`` apart, or routes that are not
Waksman's.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro import simulate
from repro.core.scheduler import waksman_workload
from repro.fuzz.expectations import evaluate
from repro.network.benes import Benes
from repro.network.graph import NetworkError
from repro.routing.problems import bit_reversal_permutation
from repro.scenarios import get_scenario


def judge(wl, B=1):
    """One wormhole trial of ``wl`` at ``B`` and its verdicts by row."""
    res = simulate(wl, B=B)
    return res, {row.name: v for row, v in evaluate(res, wl, model="wormhole", B=B)}


def exact_time(n, q, L):
    return (q - 1) * (L + 1) + L + 2 * (n.bit_length() - 1) - 1


class TestPermutation:
    @pytest.mark.parametrize("n", [4, 16, 32])
    def test_exact_unobstructed_time(self, n, rng):
        L = 7
        res, verdicts = judge(waksman_workload([rng.permutation(n)], L))
        assert res.makespan == exact_time(n, 1, L)
        assert res.total_blocked_steps == 0
        assert verdicts["schedule"] is None and verdicts["unobstructed"] is None

    def test_identity(self):
        res, verdicts = judge(waksman_workload([np.arange(8)], 3))
        assert res.all_delivered
        assert not any(verdicts.values())

    def test_works_with_extra_channels(self, rng):
        wl = waksman_workload([rng.permutation(16)], 5, B=3)
        res, verdicts = judge(wl, B=3)
        assert res.all_delivered
        assert "schedule" in verdicts and not any(verdicts.values())

    def test_validation(self):
        with pytest.raises(NetworkError):
            waksman_workload([np.arange(8)], 0)


class TestQRelation:
    """``q`` batches, built through ``scenario:benes-permutation``."""

    def test_batches_pipeline(self):
        n, q, L = 8, 3, 5
        wl = get_scenario("benes-permutation").build_case(n=n, q=q, length=L)
        assert wl.facts["length_bound"] == exact_time(n, q, L)
        res, verdicts = judge(wl)
        assert res.num_messages == q * n
        assert res.all_delivered
        # Pipelined batches: last batch starts (q-1)(L+1) late.
        assert res.makespan == exact_time(n, q, L)
        assert not any(verdicts.values())

    def test_pipelined_batches_never_block(self):
        wl = get_scenario("benes-permutation").build_case(n=16, q=4, length=6)
        res, verdicts = judge(wl)
        assert res.total_blocked_steps == 0
        assert verdicts["schedule"] is None

    def test_validation(self, rng):
        with pytest.raises(NetworkError):
            waksman_workload([], 3)
        with pytest.raises(NetworkError):
            waksman_workload([rng.permutation(8), rng.permutation(4)], 3)


class TestTheScheduleRowCanFail:
    @pytest.mark.parametrize("n, q, L", [(8, 2, 3), (16, 3, 5), (32, 4, 7)])
    def test_batches_released_L_apart_block(self, n, q, L):
        """An interior buffer is held ``L + 1`` steps (MODEL.md section
        4), so batches only ``L`` apart collide; the row says so."""
        rng = np.random.default_rng(n + q)
        wl = waksman_workload([rng.permutation(n) for _ in range(q)], L)
        crowded = replace(wl, release_times=wl.release_times // (L + 1) * L)
        res, verdicts = judge(crowded)
        assert res.all_delivered and res.total_blocked_steps > 0
        assert "blocked" in verdicts["schedule"].detail

    def test_a_non_waksman_route_set_fails(self):
        """Straight through the first half, then bit-fixing down the
        second: the bit-reversal permutation collides there."""
        n, L = 8, 4
        benes = Benes(n)
        dests = bit_reversal_permutation(n).dests
        cols = np.repeat(np.arange(n)[:, None], benes.num_levels, axis=1)
        for level in range(benes.log_n, benes.depth):
            bit = 1 << benes.cross_bit(level)
            cols[:, level + 1 :] = ((cols[:, level] & ~bit) | (dests & bit))[:, None]
        assert list(cols[:, -1]) == list(dests)
        wl = waksman_workload([dests], L)
        greedy = replace(wl, paths=[list(r) for r in benes.columns_to_edges(cols)])
        res, verdicts = judge(greedy)
        assert res.total_blocked_steps > 0
        assert "blocked" in verdicts["schedule"].detail
