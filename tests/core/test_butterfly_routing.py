"""Unit tests for the Section 3.1 butterfly algorithm."""

import numpy as np
import pytest

from repro.core.butterfly_routing import ButterflyRouter
from repro.network.butterfly import Butterfly
from repro.network.graph import NetworkError
from repro.routing.problems import (
    random_destinations,
    random_permutation,
    random_q_relation,
)
from repro.sim.circuit import arbitrate_levels
from repro import simulate


class TestArbitrateLevels:
    def test_no_contention_all_survive(self, rng):
        edges = np.array([[0, 10], [1, 11], [2, 12]])
        alive = arbitrate_levels(edges, B=1, rng=rng)
        assert alive.all()

    def test_contention_keeps_b_per_edge(self, rng):
        edges = np.array([[5, 10], [5, 11], [5, 12]])
        alive = arbitrate_levels(edges, B=2, rng=rng)
        assert alive.sum() == 2

    def test_sequential_levels_compound(self, rng):
        # Two survive level 0, but they clash again at level 1.
        edges = np.array([[5, 9], [5, 9], [5, 9]])
        alive = arbitrate_levels(edges, B=1, rng=rng)
        assert alive.sum() == 1

    def test_empty(self, rng):
        alive = arbitrate_levels(np.empty((0, 4), dtype=np.int64), 1, rng)
        assert alive.size == 0

    def test_matches_flit_simulator_on_multiplex_bound(self, rng):
        """If at most B same-subround worms share each edge, the generic
        simulator delivers all of them unblocked — the claim that makes
        level-synchronized arbitration exact."""
        n, B, L = 16, 2, 5
        bf = Butterfly(n, passes=2)
        src = rng.integers(0, n, 12)
        mid = rng.integers(0, n, 12)
        dst = rng.integers(0, n, 12)
        edges = bf.two_pass_path_edges_batch(src, mid, dst)
        alive = arbitrate_levels(edges, B, np.random.default_rng(0))
        survivors = edges[alive]
        res = simulate(
            (bf, [list(r) for r in survivors]), B=B, message_length=L, seed=1,
        )
        assert res.all_delivered
        assert res.total_blocked_steps == 0
        assert res.makespan == L + 2 * bf.log_n - 1


class TestButterflyRouter:
    def test_permutation_delivered(self):
        router = ButterflyRouter(32, B=1, message_length=4, seed=0)
        inst = random_permutation(32, np.random.default_rng(1))
        out = router.route(inst)
        assert out.all_delivered

    @pytest.mark.parametrize("B", [1, 2, 3])
    def test_q_relation_delivered(self, B):
        router = ButterflyRouter(32, B=B, message_length=4, seed=0)
        inst = random_q_relation(32, 4, np.random.default_rng(2))
        out = router.route(inst)
        assert out.all_delivered

    def test_random_problem_delivered(self):
        router = ButterflyRouter(64, B=2, message_length=8, seed=3)
        inst = random_destinations(64, 3, np.random.default_rng(4))
        out = router.route(inst)
        assert out.all_delivered

    def test_round_accounting(self):
        router = ButterflyRouter(32, B=1, message_length=4, seed=0)
        inst = random_q_relation(32, 2, np.random.default_rng(5))
        out = router.route(inst)
        assert out.num_rounds_used == len(out.rounds)
        assert out.total_flit_steps == sum(r.flit_steps for r in out.rounds)
        # Round cost: (L + 1) * Delta + 2 * 2 log n (subrounds pipeline
        # L + 1 apart; see the pipelining integration test).
        r0 = out.rounds[0]
        assert r0.flit_steps == (4 + 1) * r0.num_colors + 4 * 5

    def test_copies_double_each_round(self):
        router = ButterflyRouter(16, B=1, message_length=2, seed=0)
        inst = random_q_relation(16, 4, np.random.default_rng(6))
        out = router.route(inst)
        for prev, cur in zip(out.rounds[:-1], out.rounds[1:]):
            assert cur.num_candidates == 2 * prev.originals_remaining

    def test_more_channels_fewer_flit_steps(self):
        """The headline: B speeds the router up (fewer colors needed)."""
        inst = random_q_relation(64, 8, np.random.default_rng(7))
        steps = {}
        for B in (1, 2, 4):
            router = ButterflyRouter(64, B=B, message_length=16, seed=0)
            steps[B] = router.route(inst).total_flit_steps
        assert steps[1] > steps[2] > steps[4]

    def test_wrong_instance_size_rejected(self):
        router = ButterflyRouter(16, seed=0)
        inst = random_permutation(8, np.random.default_rng(0))
        with pytest.raises(NetworkError):
            router.route(inst)

    def test_validation(self):
        with pytest.raises(NetworkError):
            ButterflyRouter(16, B=0)
        with pytest.raises(NetworkError):
            ButterflyRouter(16, message_length=0)

    @pytest.mark.parametrize("beta", [0, -1, float("nan"), float("inf")])
    def test_a_bad_beta_fails_at_construction(self, beta):
        with pytest.raises(NetworkError):
            ButterflyRouter(16, beta=beta)

    def test_theorem_b_range_flag(self):
        assert ButterflyRouter(1 << 16, B=1).b_within_theorem
        assert not ButterflyRouter(16, B=5).b_within_theorem

    def test_reproducible(self):
        inst = random_q_relation(32, 3, np.random.default_rng(9))
        a = ButterflyRouter(32, B=2, seed=11).route(inst)
        b = ButterflyRouter(32, B=2, seed=11).route(inst)
        assert a.total_flit_steps == b.total_flit_steps
        assert [r.num_survivors for r in a.rounds] == [
            r.num_survivors for r in b.rounds
        ]

    def test_max_rounds_cap(self):
        router = ButterflyRouter(16, B=1, message_length=2, seed=0)
        inst = random_q_relation(16, 8, np.random.default_rng(10))
        out = router.route(inst, max_rounds=1)
        assert out.num_rounds_used == 1

    def test_duplicate_small_q_replicates_traffic(self):
        """Literal duplication (the paper's q < log n treatment): a
        permutation on n=64 is replicated to ~log n copies per input,
        raising round-0 candidate counts and per-round success odds."""
        inst = random_permutation(64, np.random.default_rng(3))
        plain = ButterflyRouter(64, B=1, seed=0).route(
            inst, duplicate_small_q=False
        )
        dup = ButterflyRouter(64, B=1, seed=0).route(
            inst, duplicate_small_q=True
        )
        assert dup.all_delivered
        assert dup.rounds[0].num_candidates == 6 * plain.rounds[0].num_candidates
        assert dup.num_rounds_used <= plain.num_rounds_used

    def test_pad_small_q_affects_colors(self):
        inst = random_permutation(64, np.random.default_rng(11))
        padded = ButterflyRouter(64, B=1, seed=0).route(inst, pad_small_q=True)
        raw = ButterflyRouter(64, B=1, seed=0).route(inst, pad_small_q=False)
        assert padded.rounds[0].num_colors >= raw.rounds[0].num_colors
