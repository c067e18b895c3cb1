"""Unit tests for Benes networks and Waksman routing (Section 1.3.3)."""

import numpy as np
import pytest

from repro.network.benes import Benes, looping_assignment, waksman_paths
from repro.network.graph import NetworkError


class TestBenesStructure:
    def test_sizes(self):
        b = Benes(8)
        assert b.depth == 6
        assert b.num_levels == 7
        assert b.num_nodes == 8 * 7
        assert b.num_edges == 2 * 8 * 6

    def test_cross_bits_mirror(self):
        b = Benes(8)
        assert [b.cross_bit(l) for l in range(6)] == [0, 1, 2, 2, 1, 0]

    def test_cross_bit_out_of_range(self):
        with pytest.raises(NetworkError):
            Benes(4).cross_bit(4)

    def test_invalid_n(self):
        with pytest.raises(NetworkError):
            Benes(6)

    def test_to_network_matches_arithmetic(self):
        b = Benes(4)
        net = b.to_network()
        assert net.num_nodes == b.num_nodes
        assert net.num_edges == b.num_edges
        for col in range(4):
            for lvl in range(b.depth):
                e = b.edge(col, lvl, cross=True)
                _, head = net.tail(e), net.head(e)
                w2, l2 = net.label(head)
                assert l2 == lvl + 1
                assert w2 == col ^ (1 << b.cross_bit(lvl))

    def test_network_is_leveled(self):
        assert Benes(8).to_network().is_leveled()

    def test_columns_to_edges_validation(self):
        b = Benes(4)
        with pytest.raises(NetworkError):
            b.columns_to_edges(np.zeros((2, 3), dtype=np.int64))


class TestLoopingAssignment:
    def test_partners_get_different_subnets(self, rng):
        for n in (4, 8, 16, 32):
            perm = rng.permutation(n)
            sub = looping_assignment(perm)
            for i in range(0, n, 2):
                assert sub[i] != sub[i + 1]

    def test_output_switch_constraint(self, rng):
        for n in (4, 8, 16, 32):
            perm = rng.permutation(n)
            sub = looping_assignment(perm)
            inv = np.empty(n, dtype=np.int64)
            inv[perm] = np.arange(n)
            for o in range(0, n, 2):
                a, b = inv[o], inv[o + 1]
                assert sub[a] != sub[b]

    def test_identity(self):
        sub = looping_assignment(np.arange(4))
        assert set(np.unique(sub)) <= {0, 1}

    def test_rejects_non_permutation(self):
        with pytest.raises(NetworkError, match="not a permutation"):
            looping_assignment(np.array([0, 0, 1, 2]))

    def test_rejects_odd_n(self):
        with pytest.raises(NetworkError, match="even"):
            looping_assignment(np.array([0, 1, 2]))


class TestWaksman:
    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64, 128])
    def test_random_permutations_edge_disjoint(self, n, rng):
        perm = rng.permutation(n)
        cols = waksman_paths(perm)
        assert cols.shape == (n, 2 * (n.bit_length() - 1) + 1)
        assert np.array_equal(cols[:, 0], np.arange(n))
        assert np.array_equal(cols[:, -1], perm)
        edges = Benes(n).columns_to_edges(cols)
        flat = edges.ravel()
        assert np.unique(flat).size == flat.size  # Beizer/Benes/Waksman claim

    def test_columns_move_one_bit_per_level(self, rng):
        n = 16
        b = Benes(n)
        cols = waksman_paths(rng.permutation(n))
        for lvl in range(b.depth):
            diff = cols[:, lvl] ^ cols[:, lvl + 1]
            allowed = 1 << b.cross_bit(lvl)
            assert np.all((diff == 0) | (diff == allowed))

    def test_identity_permutation(self):
        cols = waksman_paths(np.arange(8))
        assert np.array_equal(cols[:, -1], np.arange(8))

    def test_reversal_permutation(self):
        n = 16
        perm = np.arange(n)[::-1].copy()
        cols = waksman_paths(perm)
        edges = Benes(n).columns_to_edges(cols)
        assert np.unique(edges.ravel()).size == edges.size

    def test_swap_n2(self):
        cols = waksman_paths(np.array([1, 0]))
        assert np.array_equal(cols[:, -1], [1, 0])
        edges = Benes(2).columns_to_edges(cols)
        assert np.unique(edges.ravel()).size == edges.size

    def test_all_permutations_n4(self):
        """Exhaustive check: every 4-permutation routes edge-disjointly."""
        from itertools import permutations

        b = Benes(4)
        for perm in permutations(range(4)):
            cols = waksman_paths(np.array(perm))
            assert np.array_equal(cols[:, -1], perm)
            edges = b.columns_to_edges(cols)
            assert np.unique(edges.ravel()).size == edges.size

    def test_rejects_bad_sizes(self):
        with pytest.raises(NetworkError):
            waksman_paths(np.array([0, 1, 2]))  # not power of two
        with pytest.raises(NetworkError):
            waksman_paths(np.array([1, 1]))  # not a permutation

    def test_wormhole_time_is_unobstructed(self, rng):
        """Waksman routes give L + D - 1 wormhole time at B = 1 ([48])."""
        from repro import simulate

        n, L = 16, 10
        b = Benes(n)
        cols = waksman_paths(rng.permutation(n))
        edges = b.columns_to_edges(cols)
        res = simulate((b.to_network(), [list(r) for r in edges]), message_length=L)
        assert res.all_delivered
        assert res.total_blocked_steps == 0
        assert res.makespan == L + b.depth - 1
