"""Randomized two-phase hypercube routing ([1]-style) as two workloads.

:func:`~repro.core.online_routing.valiant_phase_workloads` builds the
Valiant phases and ``scenario:hypercube-valiant`` builds one of them.
Each phase is an ordinary wormhole trial, judged here on its own; E12
runs the two one after the other and adds their times.
"""

import numpy as np
import pytest

from repro import simulate
from repro.core.online_routing import valiant_phase_workloads
from repro.fuzz.expectations import evaluate
from repro.network.graph import NetworkError
from repro.network.hypercube import Hypercube
from repro.routing.problems import random_permutation, transpose_permutation
from repro.scenarios import get_scenario


def scenario_phases(n, seed, mid_seed=0):
    """Both phases of ``hypercube-valiant`` at its ``L = 8``."""
    build = get_scenario("hypercube-valiant").build_case
    return [build(n=n, seed=seed, mid_seed=mid_seed, phase=p) for p in (1, 2)]


def judged(wl, B, seed=0):
    """One phase run at ``B``: delivered, and the expectation table
    finds no violation."""
    res = simulate(wl, B=B, seed=seed)
    assert res.all_delivered
    assert not [v for _, v in evaluate(res, wl, model="wormhole", B=B) if v]
    return res


class TestRouting:
    def test_permutation_delivered(self):
        for wl in scenario_phases(32, 0):
            judged(wl, B=2)

    def test_identity_is_fast(self):
        """Identity permutation: phase 2 retraces phase 1; both phases
        behave like random one-phase problems."""
        cube = Hypercube(16)
        inst = random_permutation(16, np.random.default_rng(1))
        # Replace with identity.
        inst = type(inst)(16, inst.sources, inst.sources.copy())
        for wl in valiant_phase_workloads(cube, inst, 4, np.random.default_rng(1)):
            judged(wl, B=2)

    def test_time_scales_like_l_plus_logn(self):
        """Each phase stays within a constant of L + log n across n."""
        ratios = []
        for n in (16, 64, 256):
            for wl in scenario_phases(n, n, mid_seed=3):
                res = judged(wl, B=2, seed=3)
                ratios.append(res.makespan / (8 + Hypercube(n).dimension))
        assert max(ratios) / min(ratios) < 3.0
        assert max(ratios) < 4.0

    def test_adversarial_transpose_tamed(self):
        """Transpose is adversarial for one-phase bit-fixing (congestion
        sqrt(n)); random intermediates bring congestion down."""
        n = 256
        cube = Hypercube(n)
        inst = transpose_permutation(n)
        phases = valiant_phase_workloads(cube, inst, 4, np.random.default_rng(5))
        for wl in phases:
            judged(wl, B=2)
        # One-phase transpose congestion is sqrt(n) = 16 on some edge;
        # each random phase stays well below that.
        assert all(wl.info["congestion"] < 12 for wl in phases)

    def test_more_channels_never_slower(self):
        for wl in scenario_phases(64, 7):
            assert judged(wl, B=4).makespan <= judged(wl, B=2).makespan

    def test_validation(self):
        cube = Hypercube(16)
        rng = np.random.default_rng(0)
        inst = random_permutation(8, rng)
        with pytest.raises(NetworkError):
            valiant_phase_workloads(cube, inst, 4, rng)
        inst16 = random_permutation(16, rng)
        with pytest.raises(NetworkError):
            valiant_phase_workloads(cube, inst16, 0, rng)

    def test_reproducible(self):
        a, b = scenario_phases(32, 2, mid_seed=9), scenario_phases(32, 2, mid_seed=9)
        for wa, wb in zip(a, b):
            assert [p.edges for p in wa.paths] == [p.edges for p in wb.paths]
            assert judged(wa, B=2, seed=1).makespan == judged(wb, B=2, seed=1).makespan


class TestScenario:
    def test_a_phase_is_the_workload_function_s(self):
        """``hypercube-valiant`` builds one of the two phase workloads:
        the permutation from ``seed``, the intermediates from
        ``mid_seed``."""
        cube = Hypercube(16)
        inst = random_permutation(16, np.random.default_rng(3))
        phases = valiant_phase_workloads(cube, inst, 8, np.random.default_rng(4))
        for phase, want in enumerate(phases, start=1):
            got = get_scenario("hypercube-valiant").build_case(
                seed=3, mid_seed=4, phase=phase
            )
            assert [p.edges for p in got.paths] == [p.edges for p in want.paths]
            assert got.info == want.info

    def test_phase_is_one_or_two(self):
        with pytest.raises(NetworkError, match="phase must be 1 or 2"):
            get_scenario("hypercube-valiant").build_case(phase=3)
