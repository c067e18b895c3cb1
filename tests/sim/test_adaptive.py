"""Unit tests for adaptive mesh routing (turn models)."""

import numpy as np
import pytest

from repro.network.graph import NetworkError
from repro.network.mesh import KAryNCube
from repro.sim.batch import AdaptiveMeshRouter


@pytest.fixture
def mesh():
    return KAryNCube(k=4, n=2, wrap=False)


def square_cycle_demands(cube):
    """Four worms chasing each other around the unit square — the classic
    fully-adaptive deadlock configuration."""
    a = cube.node((0, 0))
    b = cube.node((1, 0))
    c = cube.node((1, 1))
    d = cube.node((0, 1))
    return [(a, c), (b, d), (c, a), (d, b)]


class TestConstruction:
    def test_requires_2d_mesh(self):
        with pytest.raises(NetworkError):
            AdaptiveMeshRouter(KAryNCube(k=4, n=3, wrap=False))
        with pytest.raises(NetworkError):
            AdaptiveMeshRouter(KAryNCube(k=4, n=2, wrap=True))

    def test_policy_validation(self, mesh):
        with pytest.raises(NetworkError):
            AdaptiveMeshRouter(mesh, policy="bogus")
        with pytest.raises(NetworkError):
            AdaptiveMeshRouter(mesh, num_virtual_channels=0)

    def test_bad_length(self, mesh):
        router = AdaptiveMeshRouter(mesh)
        with pytest.raises(NetworkError):
            router.run([(0, 5)], message_length=0)


class TestRoutesAreMinimal:
    @pytest.mark.parametrize("policy", ["dimension", "west-first", "fully-adaptive"])
    def test_paths_have_manhattan_length(self, mesh, policy):
        rng = np.random.default_rng(3)
        demands = [
            (int(rng.integers(16)), int(rng.integers(16))) for _ in range(30)
        ]
        router = AdaptiveMeshRouter(mesh, 2, policy=policy, seed=1)
        out = router.run(demands, message_length=4)
        assert out.all_delivered
        for (s, d), path in zip(demands, out.taken_paths):
            sx, sy = mesh.coords(s)
            dx, dy = mesh.coords(d)
            assert len(path) == abs(dx - sx) + abs(dy - sy)

    def test_dimension_policy_is_xy(self, mesh):
        router = AdaptiveMeshRouter(mesh, policy="dimension", seed=0)
        out = router.run([(mesh.node((0, 0)), mesh.node((2, 2)))], 3)
        nodes = [mesh.node((0, 0))]
        for e in out.taken_paths[0]:
            nodes.append(mesh.network.head(e))
        coords = [mesh.coords(v) for v in nodes]
        # x corrected first, then y.
        assert coords == [(0, 0), (1, 0), (2, 0), (2, 1), (2, 2)]

    def test_west_first_goes_west_deterministically(self, mesh):
        router = AdaptiveMeshRouter(mesh, policy="west-first", seed=0)
        out = router.run([(mesh.node((3, 1)), mesh.node((0, 3)))], 3)
        coords = [mesh.coords(mesh.network.tail(out.taken_paths[0][0]))]
        for e in out.taken_paths[0]:
            coords.append(mesh.coords(mesh.network.head(e)))
        # The first three hops all go west (x: 3 -> 0) before any y move.
        xs = [c[0] for c in coords[:4]]
        assert xs == [3, 2, 1, 0]


class TestDeadlock:
    def test_fully_adaptive_can_deadlock(self, mesh):
        """The square-cycle workload deadlocks fully-adaptive B=1 for
        some arbitration outcome."""
        demands = square_cycle_demands(mesh)
        saw_deadlock = False
        for seed in range(40):
            router = AdaptiveMeshRouter(
                mesh, 1, policy="fully-adaptive", seed=seed
            )
            out = router.run(demands, message_length=4)
            if out.result.deadlocked:
                saw_deadlock = True
                break
        assert saw_deadlock

    @pytest.mark.parametrize("policy", ["dimension", "west-first"])
    def test_restricted_policies_never_deadlock(self, mesh, policy):
        """Turn-model guarantee: no deadlock on any tested seed, even on
        the cycle workload and random loads."""
        demands = square_cycle_demands(mesh)
        rng = np.random.default_rng(0)
        random_demands = [
            (int(rng.integers(16)), int(rng.integers(16))) for _ in range(40)
        ]
        for seed in range(15):
            for load in (demands, random_demands):
                router = AdaptiveMeshRouter(mesh, 1, policy=policy, seed=seed)
                out = router.run(load, message_length=4)
                assert not out.result.deadlocked
                assert out.all_delivered

    def test_virtual_channels_rescue_fully_adaptive(self, mesh):
        """B = 2 resolves the square cycle even without turn rules."""
        demands = square_cycle_demands(mesh)
        for seed in range(10):
            router = AdaptiveMeshRouter(
                mesh, 2, policy="fully-adaptive", seed=seed
            )
            out = router.run(demands, message_length=4)
            assert out.all_delivered


class TestAdaptivityHelps:
    def test_adaptive_beats_xy_on_row_concentrated_load(self):
        """North-east traffic launched along one row: XY pins every worm
        to the crowded bottom row until its x is corrected; west-first
        may turn north early and spread the load (~2x faster here)."""
        mesh = KAryNCube(k=6, n=2, wrap=False)
        demands = [
            (mesh.node((x, 0)), mesh.node((min(5, x + 2), 5)))
            for x in range(5)
            for _ in range(4)
        ]
        xy_spans, wf_spans = [], []
        for seed in range(5):
            xy = AdaptiveMeshRouter(mesh, 1, policy="dimension", seed=seed).run(
                demands, message_length=6
            )
            wf = AdaptiveMeshRouter(mesh, 1, policy="west-first", seed=seed).run(
                demands, message_length=6
            )
            assert xy.all_delivered and wf.all_delivered
            xy_spans.append(xy.result.makespan)
            wf_spans.append(wf.result.makespan)
        assert np.mean(wf_spans) < 0.8 * np.mean(xy_spans)

    def test_zero_hop_demand(self, mesh):
        router = AdaptiveMeshRouter(mesh)
        out = router.run([(3, 3)], message_length=5)
        assert out.result.completion_times[0] == 0

    def test_release_times(self, mesh):
        router = AdaptiveMeshRouter(mesh, policy="dimension")
        out = router.run(
            [(0, mesh.node((0, 2)))],
            message_length=3,
            release_times=np.array([4]),
        )
        assert out.result.completion_times[0] == 4 + 3 + 2 - 1

    def test_reproducible(self, mesh):
        demands = [(0, 15), (3, 12), (5, 10)]
        a = AdaptiveMeshRouter(mesh, 1, seed=5).run(demands, 4)
        b = AdaptiveMeshRouter(mesh, 1, seed=5).run(demands, 4)
        assert np.array_equal(
            a.result.completion_times, b.result.completion_times
        )
        assert a.taken_paths == b.taken_paths
