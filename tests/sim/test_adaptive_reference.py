"""The adaptive kernel against the naive per-head reference router.

``tests/reference_simulator.py::reference_adaptive_run`` serves heads
one at a time, in shuffled order, over live occupancy (MODEL.md
section 7) and never imports ``repro.sim``; the kernel serves them in
prefix waves.  Both consume one generator per trial, so completion
times, blocked steps, taken routes and the deadlock flag must be
*identical* — alone (``T = 1``) and as a trial of a batch, on 2-D
meshes under each turn model and on multibutterflies.
"""

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from reference_simulator import reference_adaptive_run  # noqa: E402

from repro.network.graph import NetworkError
from repro.network.mesh import KAryNCube
from repro.network.multibutterfly import Multibutterfly
from repro.sim import kernels
from repro.sim.batch import run_adaptive_batch

POLICIES = ("dimension", "west-first", "fully-adaptive")


def assert_matches_reference(topo, demands, L, B, policy, seeds, release=None):
    """Every trial of one lockstep call equals its own reference run
    (``topo`` is a 2-D mesh cube or a multibutterfly)."""
    outs = run_adaptive_batch(
        topo, demands, L, seeds=list(seeds), num_virtual_channels=B,
        policy=policy,
        release_times=None if release is None else np.asarray(release),
    )
    mesh = isinstance(topo, KAryNCube)
    net = topo.network
    for seed, out in zip(seeds, outs):
        completion, blocked, links, deadlocked = reference_adaptive_run(
            topo.k if mesh else topo, demands, L, B, policy,
            np.random.default_rng(seed), release,
        )
        assert not out.result.hit_step_cap
        assert out.result.deadlocked == deadlocked
        assert out.result.completion_times.tolist() == completion
        assert out.result.blocked_steps.tolist() == blocked
        taken = [
            [(net.tail(e), net.head(e)) if mesh else e for e in path]
            for path in out.taken_paths
        ]
        assert taken == links
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


@st.composite
def multibutterfly_problems(draw):
    n, d = draw(st.sampled_from([4, 8, 16])), draw(st.integers(1, 3))
    column = st.integers(0, n - 1)
    demands = draw(
        st.lists(st.tuples(column, column), min_size=1, max_size=3 * n)
    )
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
    mbf = Multibutterfly(n, d=d, rng=np.random.default_rng(seed))
    return mbf, demands, release, L, seed


@pytest.mark.parametrize("T", [1, 4])
@pytest.mark.parametrize("B", [1, 2, 3])
@given(problem=multibutterfly_problems())
@settings(max_examples=12, deadline=None)
def test_kernel_equals_reference_on_multibutterflies(B, T, problem):
    """A multibutterfly head's options are the ``d`` edges into its
    destination's half; at ``d = 3`` a head draws ``integers(3)``."""
    mbf, demands, release, L, seed = problem
    seeds = range(seed, seed + T)
    assert_matches_reference(
        mbf, demands, L, B, "fully-adaptive", seeds, release
    )


@pytest.mark.parametrize("policy", ["dimension", "west-first"])
def test_a_multibutterfly_takes_only_the_fully_adaptive_policy(policy):
    mbf = Multibutterfly(8, d=2, rng=np.random.default_rng(0))
    with pytest.raises(NetworkError, match="'fully-adaptive'"):
        run_adaptive_batch(mbf, [(0, 1)], 2, seeds=[0], policy=policy)
    with pytest.raises(NetworkError, match="column 8 out of range"):
        run_adaptive_batch(
            mbf, [(0, 8)], 2, seeds=[0], policy="fully-adaptive"
        )


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
        st.tuples(
            st.lists(st.integers(2, 5), max_size=9), st.integers(0, 4)
        ),
        max_size=12,
    ),
)
@settings(max_examples=50, deadline=None)
def test_integers_highs_is_split_exact(seed, chunks):
    """The kernel draws a trial's free-option choices for one pass as
    one ``integers(highs)`` call, ``highs`` being each drawing head's
    count of free options; the serial router drew them one scalar
    ``integers(k)`` at a time, interleaved with the next step's
    ``random(m)`` shuffle.  The two must consume the stream
    identically."""
    scalar, vector = np.random.default_rng(seed), np.random.default_rng(seed)
    for highs, m in chunks:
        assert vector.integers(np.asarray(highs, dtype=np.int64)).tolist() == [
            int(scalar.integers(k)) for k in highs
        ]
        assert np.array_equal(vector.random(m), scalar.random(m))
    assert vector.bit_generator.state == scalar.bit_generator.state
