"""Unit tests for the Theorem 2.2.1 hard instance."""

import math
from itertools import combinations

import numpy as np
import pytest

from repro.core.lower_bound import (
    build_hard_instance,
    hard_instance_lower_bound,
    max_m_prime,
)
from repro import simulate
from repro.network.graph import NetworkError
from repro.routing.paths import Path
from repro.telemetry import TraceSnapshotCollector


class TestMaxMPrime:
    def test_b1_values(self):
        """B = 1: 2 C(M'-1, 1) - 1 <= D means M' <= (D+1)/2 + 1."""
        assert max_m_prime(D=9, B=1) == 6
        assert max_m_prime(D=10, B=1) == 6
        assert max_m_prime(D=11, B=1) == 7

    def test_b2_values(self):
        # 2 C(M'-1, 2) - 1 <= D
        assert max_m_prime(D=11, B=2) == 5  # 2*C(4,2)-1 = 11
        assert max_m_prime(D=19, B=2) == 6  # 2*C(5,2)-1 = 19

    def test_feasibility_invariant(self):
        for B in (1, 2, 3):
            for D in range(B + 1, 40):
                m = max_m_prime(D, B)
                assert 2 * math.comb(m - 1, B) - 1 <= D
                assert 2 * math.comb(m, B) - 1 > D

    def test_requires_d_at_least_b_plus_1(self):
        with pytest.raises(NetworkError):
            max_m_prime(D=2, B=2)

    def test_requires_a_virtual_channel(self):
        """``B = 0`` is refused, not searched for ever: a name built for
        the trial's ``B`` reaches this with whatever ``B`` a caller gave."""
        with pytest.raises(NetworkError, match="B >= 1"):
            max_m_prime(D=15, B=0)
        with pytest.raises(NetworkError, match="B >= 1"):
            simulate("scenario:lower-bound-gadget", B=0)


class TestConstruction:
    @pytest.mark.parametrize("B", [1, 2])
    def test_parameters_met(self, B):
        C, D = 3 * (B + 1), 15
        inst = build_hard_instance(C=C, D=D, B=B)
        assert inst.congestion == C
        assert inst.dilation == D  # padded
        assert inst.num_messages == (C // (B + 1)) * inst.m_prime

    def test_actual_congestion_matches(self):
        inst = build_hard_instance(C=6, D=11, B=1)
        from collections import Counter

        counts = Counter()
        for p in inst.paths:
            counts.update(p)
        assert max(counts.values()) == 6
        # Primary edges carry exactly C messages.
        for e in inst.primary_edges:
            assert counts[e] == 6

    def test_every_subset_shares_a_primary_edge(self):
        """The defining property: every B+1 base messages meet somewhere."""
        for B in (1, 2):
            inst = build_hard_instance(C=B + 1, D=15, B=B)
            base_paths = {}
            for path, base in zip(inst.paths, inst.base_message_of):
                base_paths.setdefault(int(base), set(path))
            for subset in combinations(range(inst.m_prime), B + 1):
                shared = set.intersection(*(base_paths[m] for m in subset))
                assert shared & set(inst.primary_edges)

    def test_paths_edge_simple_and_valid(self):
        inst = build_hard_instance(C=4, D=11, B=1)
        for edges in inst.paths:
            assert len(set(edges)) == len(edges)
            Path.from_edges(inst.network, edges)  # validates continuity

    def test_unpadded_dilation(self):
        inst = build_hard_instance(C=4, D=11, B=1, pad_to_dilation=False)
        m = inst.m_prime
        assert inst.dilation == 2 * math.comb(m - 1, 1) - 1

    def test_network_is_acyclic(self):
        """Lexicographic subset order makes the construction deadlock-free."""
        inst = build_hard_instance(C=4, D=11, B=1)
        assert inst.network.is_acyclic()

    def test_congestion_floor(self):
        with pytest.raises(NetworkError):
            build_hard_instance(C=1, D=10, B=1)


class TestLowerBoundBehavior:
    def test_bound_formula(self):
        inst = build_hard_instance(C=4, D=11, B=1)
        L = 22
        assert hard_instance_lower_bound(inst, L) == (22 - 11) * inst.num_messages

    def test_requires_long_messages(self):
        inst = build_hard_instance(C=4, D=11, B=1)
        with pytest.raises(NetworkError):
            hard_instance_lower_bound(inst, L=11)

    @pytest.mark.parametrize("B", [1, 2])
    def test_simulation_respects_bound(self, B):
        """Measured routing time meets the Omega bound (any schedule must)."""
        inst = build_hard_instance(C=2 * (B + 1), D=15, B=B)
        L = inst.recommended_length()
        res = simulate((inst.network, inst.paths), B=B, message_length=L)
        assert res.all_delivered
        assert res.makespan >= hard_instance_lower_bound(inst, L)

    @pytest.mark.parametrize("B", [1, 2])
    def test_progress_argument_holds_mechanically(self, B):
        """The proof's central claim, verified on the simulator trace:
        at most B messages *make progress* in any flit step.

        A message makes progress when it moves and one of its first
        ``L - D`` flits reaches the destination — i.e. its move counter
        lands in ``[D, L-1]``.  Such a worm occupies every edge of its
        path, and every ``B+1`` messages share a primary edge with only
        ``B`` slots, so at most ``B`` can progress simultaneously.
        """
        inst = build_hard_instance(C=2 * (B + 1), D=11, B=B)
        L = inst.recommended_length()
        snapshot = TraceSnapshotCollector()
        res = simulate(
            (inst.network, inst.paths), B=B, message_length=L, telemetry=[snapshot],
        )
        assert res.all_delivered
        trace = snapshot.matrix
        D = inst.dilation
        prev = np.zeros(trace.shape[1], dtype=np.int64)
        worst = 0
        for row in trace:
            moved = row > prev
            in_window = (row >= D) & (row <= L - 1)
            worst = max(worst, int((moved & in_window).sum()))
            prev = np.maximum(row, prev)
        assert worst <= B

    def test_extra_channels_beat_the_b_instance(self):
        """Routing the B=1 hard instance with more VCs is much faster —
        the superlinear speedup the paper quantifies."""
        inst = build_hard_instance(C=6, D=15, B=1)
        L = inst.recommended_length()
        t = {}
        for B_run in (1, 2, 3):
            t[B_run] = simulate(
                (inst.network, inst.paths), B=B_run, message_length=L
            ).makespan
        assert t[1] > t[2] > t[3]
