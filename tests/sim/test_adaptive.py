"""Unit tests for adaptive mesh routing (turn models)."""

import numpy as np
import pytest

from repro import simulate
from repro.network.graph import NetworkError
from repro.network.mesh import KAryNCube
from repro.sim.batch import run_adaptive_batch
from repro.sim.spec import Workload


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
            simulate(
                (KAryNCube(k=4, n=3, wrap=False), [(0, 1)]), model="adaptive",
                message_length=2,
            )
        with pytest.raises(NetworkError):
            simulate(
                (KAryNCube(k=4, n=2, wrap=True), [(0, 1)]), model="adaptive",
                message_length=2,
            )

    def test_policy_validation(self, mesh):
        with pytest.raises(NetworkError):
            simulate(
                (mesh, [(0, 5)]), model="adaptive", message_length=2,
                policy="bogus",
            )
        with pytest.raises(NetworkError):
            simulate((mesh, [(0, 5)]), model="adaptive", B=0, message_length=2)

    def test_bad_length(self, mesh):
        with pytest.raises(NetworkError):
            simulate((mesh, [(0, 5)]), model="adaptive", message_length=0)


def route(mesh, demands, L, B=1, policy="west-first", seed=0):
    """One trial through the driver, which keeps the taken paths."""
    (run,) = run_adaptive_batch(
        mesh, demands, L, seeds=[seed], num_virtual_channels=B, policy=policy
    )
    return run


class TestRoutesAreMinimal:
    @pytest.mark.parametrize("policy", ["dimension", "west-first", "fully-adaptive"])
    def test_paths_have_manhattan_length(self, mesh, policy):
        rng = np.random.default_rng(3)
        demands = [
            (int(rng.integers(16)), int(rng.integers(16))) for _ in range(30)
        ]
        out = route(mesh, demands, 4, B=2, policy=policy, seed=1)
        assert out.all_delivered
        for (s, d), path in zip(demands, out.taken_paths):
            sx, sy = mesh.coords(s)
            dx, dy = mesh.coords(d)
            assert len(path) == abs(dx - sx) + abs(dy - sy)

    def test_dimension_policy_is_xy(self, mesh):
        out = route(
            mesh, [(mesh.node((0, 0)), mesh.node((2, 2)))], 3, policy="dimension"
        )
        nodes = [mesh.node((0, 0))]
        for e in out.taken_paths[0]:
            nodes.append(mesh.network.head(e))
        coords = [mesh.coords(v) for v in nodes]
        # x corrected first, then y.
        assert coords == [(0, 0), (1, 0), (2, 0), (2, 1), (2, 2)]

    def test_west_first_goes_west_deterministically(self, mesh):
        out = route(mesh, [(mesh.node((3, 1)), mesh.node((0, 3)))], 3)
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
            out = simulate(
                (mesh, demands), model="adaptive", message_length=4,
                policy="fully-adaptive", seed=seed,
            )
            if out.deadlocked:
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
                out = simulate(
                    (mesh, load), model="adaptive", message_length=4, policy=policy,
                    seed=seed,
                )
                assert not out.deadlocked
                assert out.all_delivered

    def test_virtual_channels_rescue_fully_adaptive(self, mesh):
        """B = 2 resolves the square cycle even without turn rules."""
        demands = square_cycle_demands(mesh)
        for seed in range(10):
            out = simulate(
                (mesh, demands), model="adaptive", B=2, message_length=4,
                policy="fully-adaptive", seed=seed,
            )
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
            xy = simulate(
                (mesh, demands), model="adaptive", message_length=6,
                policy="dimension", seed=seed,
            )
            wf = simulate(
                (mesh, demands), model="adaptive", message_length=6,
                policy="west-first", seed=seed,
            )
            assert xy.all_delivered and wf.all_delivered
            xy_spans.append(xy.makespan)
            wf_spans.append(wf.makespan)
        assert np.mean(wf_spans) < 0.8 * np.mean(xy_spans)

    def test_zero_hop_demand(self, mesh):
        out = simulate((mesh, [(3, 3)]), model="adaptive", message_length=5)
        assert out.completion_times[0] == 0

    def test_release_times(self, mesh):
        out = simulate(
            Workload(
                net=mesh.network,
                cube=mesh,
                demands=[(0, mesh.node((0, 2)))],
                release_times=np.array([4]),
            ),
            model="adaptive", message_length=3, policy="dimension",
        )
        assert out.completion_times[0] == 4 + 3 + 2 - 1

    def test_reproducible(self, mesh):
        demands = [(0, 15), (3, 12), (5, 10)]
        a = route(mesh, demands, 4, seed=5)
        b = route(mesh, demands, 4, seed=5)
        assert np.array_equal(
            a.result.completion_times, b.result.completion_times
        )
        assert a.taken_paths == b.taken_paths
