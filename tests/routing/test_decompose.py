"""Unit tests for q-relation decomposition (König / Hall)."""

import numpy as np
import pytest

from repro.routing.decompose import decompose_q_relation
from repro.routing.problems import (
    RoutingInstance,
    random_permutation,
    random_q_relation,
)


def demand_multiset(inst):
    pairs = {}
    for s, d in zip(inst.sources, inst.dests):
        pairs[(int(s), int(d))] = pairs.get((int(s), int(d)), 0) + 1
    return pairs


class TestDecompose:
    def test_permutation_is_one_batch(self, rng):
        inst = random_permutation(8, rng)
        batches = decompose_q_relation(inst)
        assert len(batches) == 1
        assert np.array_equal(batches[0], inst.dests)

    @pytest.mark.parametrize("q", [1, 2, 4])
    def test_regular_relation_q_batches(self, q, rng):
        inst = random_q_relation(16, q, rng)
        batches = decompose_q_relation(inst)
        assert len(batches) == q
        for perm in batches:
            assert np.array_equal(np.sort(perm), np.arange(16))

    def test_covers_every_demand(self, rng):
        inst = random_q_relation(8, 3, rng)
        batches = decompose_q_relation(inst)
        covered = {}
        want = demand_multiset(inst)
        for perm in batches:
            for s in range(8):
                key = (s, int(perm[s]))
                if key in want and covered.get(key, 0) < want[key]:
                    covered[key] = covered.get(key, 0) + 1
        assert covered == want

    def test_irregular_relation(self):
        """Inputs with different loads still decompose."""
        inst = RoutingInstance(
            4,
            np.array([0, 0, 0, 1, 2], dtype=np.int64),
            np.array([1, 2, 3, 0, 0], dtype=np.int64),
        )
        batches = decompose_q_relation(inst)
        assert 3 <= len(batches) <= 10
        want = demand_multiset(inst)
        covered: dict = {}
        for perm in batches:
            for s in range(4):
                key = (s, int(perm[s]))
                if key in want and covered.get(key, 0) < want[key]:
                    covered[key] = covered.get(key, 0) + 1
        assert covered == want

    def test_duplicate_demands(self):
        """The same (s, d) pair repeated q times needs q batches."""
        inst = RoutingInstance(
            4,
            np.array([2, 2, 2], dtype=np.int64),
            np.array([3, 3, 3], dtype=np.int64),
        )
        batches = decompose_q_relation(inst)
        assert len(batches) == 3
        for perm in batches:
            assert perm[2] == 3

    def test_empty_instance(self):
        inst = RoutingInstance(
            4, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        )
        assert decompose_q_relation(inst) == []


class TestEndToEndWithBenes:
    def test_route_decomposed_relation(self, rng):
        """Full pipeline: q-relation -> permutation batches -> pipelined
        Waksman routing, O(qL + log n) with zero blocking, judged by the
        expectation table's ``schedule`` row."""
        from repro import simulate
        from repro.core.scheduler import waksman_workload
        from repro.fuzz.expectations import evaluate

        n, q, L = 16, 3, 6
        inst = random_q_relation(n, q, rng)
        batches = decompose_q_relation(inst)
        wl = waksman_workload(batches, L)
        res = simulate(wl)
        verdicts = {row.name: v for row, v in evaluate(res, wl, model="wormhole", B=1)}
        assert "schedule" in verdicts and not any(verdicts.values())
        assert res.all_delivered
        assert res.total_blocked_steps == 0
        log_n = n.bit_length() - 1
        assert res.makespan == (len(batches) - 1) * (L + 1) + L + 2 * log_n - 1
