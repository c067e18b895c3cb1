"""The adaptive kernel against the naive per-head reference router.

``tests/reference_simulator.py::reference_adaptive_run`` serves heads
one at a time, in shuffled order, over live occupancy (MODEL.md
section 7) and never imports ``repro.sim``; the kernel serves them in
prefix waves.  Both consume one generator per trial, so completion
times, blocked steps, taken routes and the deadlock flag must be
*identical* — alone (``T = 1``) and as a trial of a batch.
"""

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from reference_simulator import reference_adaptive_run  # noqa: E402

from repro.network.mesh import KAryNCube
from repro.sim import kernels
from repro.sim.batch import run_adaptive_batch

POLICIES = ("dimension", "west-first", "fully-adaptive")


def assert_matches_reference(cube, demands, L, B, policy, seeds, release=None):
    """Every trial of one lockstep call equals its own reference run."""
    outs = run_adaptive_batch(
        cube, demands, L, seeds=list(seeds), num_virtual_channels=B,
        policy=policy,
        release_times=None if release is None else np.asarray(release),
    )
    net = cube.network
    for seed, out in zip(seeds, outs):
        completion, blocked, walks, deadlocked = reference_adaptive_run(
            cube.k, demands, L, B, policy, np.random.default_rng(seed), release
        )
        assert not out.result.hit_step_cap
        assert out.result.deadlocked == deadlocked
        assert out.result.completion_times.tolist() == completion
        assert out.result.blocked_steps.tolist() == blocked
        taken = [
            [src] + [net.head(e) for e in path]
            for (src, _), path in zip(demands, out.taken_paths)
        ]
        assert taken == walks
    return outs


@st.composite
def problems(draw):
    k = draw(st.integers(3, 5))
    node = st.integers(0, k * k - 1)
    demands = draw(st.lists(st.tuples(node, node), min_size=1, max_size=24))
    release = draw(
        st.one_of(
            st.none(),
            st.lists(
                st.integers(0, 9),
                min_size=len(demands), max_size=len(demands),
            ),
        )
    )
    L, seed = draw(st.integers(1, 6)), draw(st.integers(0, 2**32))
    return k, demands, release, L, seed


@pytest.mark.parametrize("T", [1, 8])
@pytest.mark.parametrize("B", [1, 2, 4])
@pytest.mark.parametrize("policy", POLICIES)
@given(problem=problems())
@settings(max_examples=12, deadline=None)
def test_kernel_equals_reference(policy, B, T, problem):
    k, demands, release, L, seed = problem
    cube = KAryNCube(k, 2, wrap=False)
    seeds = range(seed, seed + T)
    assert_matches_reference(cube, demands, L, B, policy, seeds, release)


@pytest.fixture
def built_kernels(monkeypatch):
    """The :class:`AdaptiveKernel` instances built while the test runs."""
    built = []
    init = kernels.AdaptiveKernel.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(kernels.AdaptiveKernel, "__init__", recording_init)
    return built


def hot_spot_demands(cube):
    """Row 0, three worms per node, all heading for column ``k - 1``."""
    k = cube.k
    return [
        (cube.node((x, 0)), cube.node((k - 1, 1 + (x + i) % (k - 1))))
        for x in range(k - 1)
        for i in range(3)
    ]


class TestPrefixWaves:
    """``head_passes`` / ``head_steps`` show the waves doing their job."""

    @pytest.mark.parametrize("policy", POLICIES)
    def test_hot_spot_needs_more_than_one_pass(self, built_kernels, policy):
        """Heads sharing a node at B = 1 compete for one lane: the later
        one's free set depends on the earlier one's draw, so some step
        cannot be resolved in a single pass — and still equals the
        per-head reference, alone and batched."""
        cube = KAryNCube(5, 2, wrap=False)
        demands = hot_spot_demands(cube)
        single = assert_matches_reference(cube, demands, 4, 1, policy, [7])
        (kernel,) = built_kernels
        assert kernel.head_passes > kernel.head_steps > 0
        batched = assert_matches_reference(
            cube, demands, 4, 1, policy, [5, 6, 7, 8]
        )
        assert batched[2].taken_paths == single[0].taken_paths
        assert np.array_equal(
            batched[2].result.completion_times,
            single[0].result.completion_times,
        )

    @pytest.mark.parametrize("policy", POLICIES)
    def test_enough_lanes_need_exactly_one_pass(self, built_kernels, policy):
        """With B >= M no set of earlier heads can exhaust a lane pool,
        so every step that serves heads is one pass."""
        cube = KAryNCube(5, 2, wrap=False)
        demands = hot_spot_demands(cube)
        B = len(demands)
        single = assert_matches_reference(cube, demands, 4, B, policy, [7])
        batched = assert_matches_reference(
            cube, demands, 4, B, policy, [5, 6, 7, 8]
        )
        for kernel in built_kernels:
            assert kernel.head_passes == kernel.head_steps > 0
        assert batched[2].taken_paths == single[0].taken_paths
        assert single[0].result.total_blocked_steps == 0


@given(
    seed=st.integers(0, 2**32),
    chunks=st.lists(
        st.tuples(st.integers(0, 9), st.integers(0, 4)), max_size=12
    ),
)
@settings(max_examples=50, deadline=None)
def test_integers_2_is_split_exact(seed, chunks):
    """The kernel draws a trial's free-channel choices for one pass as
    ``integers(2, size=n)``; the serial router drew them one scalar at a
    time, interleaved with the next step's ``random(m)`` shuffle.  The
    two must consume the stream identically."""
    scalar, vector = np.random.default_rng(seed), np.random.default_rng(seed)
    for n, m in chunks:
        assert vector.integers(2, size=n).tolist() == [
            int(scalar.integers(2)) for _ in range(n)
        ]
        assert np.array_equal(vector.random(m), scalar.random(m))
    assert vector.bit_generator.state == scalar.bit_generator.state
