"""Facade tests: ``repro.simulate`` dispatch, bit-identity, deprecations.

The facade's contract is that it adds *nothing* to the models: a
``simulate(...)`` call with the same seed is bit-identical to the
model's ``run_<model>_batch`` driver called with that one seed, for
every model it dispatches to.
"""

import numpy as np
import pytest

import repro
from repro import Butterfly, KAryNCube, simulate
from repro.network.graph import NetworkError
from repro.routing.problems import bit_reversal_permutation
from repro.sim.batch import LOCKSTEP_MODELS
from repro.sim.sweep import Workload, build_workload

L = 8
SEED = 3


@pytest.fixture(scope="module")
def butterfly_problem():
    bf = Butterfly(8)
    inst = bit_reversal_permutation(8)
    paths = [list(r) for r in bf.path_edges_batch(inst.sources, inst.dests)]
    return bf, paths


@pytest.fixture(scope="module")
def mesh_problem():
    cube = KAryNCube(5, 2, wrap=False)
    perm = np.random.default_rng(0).permutation(25)
    demands = [(i, int(d)) for i, d in enumerate(perm) if i != int(d)]
    return cube, demands


def _same(a, b):
    assert a.makespan == b.makespan
    assert np.array_equal(a.completion_times, b.completion_times)
    assert a.total_blocked_steps == b.total_blocked_steps


def _driver(model, problem, message_length, B, **option):
    """The model's ``run_<model>_batch`` driver with the one seed."""
    spec = LOCKSTEP_MODELS[model]
    (res,) = spec.driver(
        *problem, message_length, seeds=[SEED], **{spec.knob: B}, **option
    )
    return getattr(res, "result", res)


class TestBitIdentity:
    """simulate() == the model's driver called with one seed, per model."""

    def test_wormhole(self, butterfly_problem):
        _same(_driver("wormhole", butterfly_problem, L, 2), simulate(
            butterfly_problem, model="wormhole", B=2, seed=SEED, message_length=L
        ))

    def test_cut_through(self, butterfly_problem):
        _same(_driver("cut_through", butterfly_problem, L, 2), simulate(
            butterfly_problem, model="cut_through", B=2, seed=SEED,
            message_length=L,
        ))

    def test_store_forward(self, butterfly_problem):
        _same(_driver("store_forward", butterfly_problem, L, 2), simulate(
            butterfly_problem, model="store_forward", B=2, seed=SEED,
            message_length=L,
        ))

    def test_restricted(self, butterfly_problem):
        _same(_driver("restricted", butterfly_problem, L, 2), simulate(
            butterfly_problem, model="restricted", B=2, seed=SEED,
            message_length=L,
        ))

    def test_adaptive(self, mesh_problem):
        direct = _driver("adaptive", mesh_problem, 5, 2, policy="west-first")
        _same(direct, simulate(
            mesh_problem, model="adaptive", B=2, seed=SEED, message_length=5
        ))

    def test_priority_override_forwarded(self, butterfly_problem):
        direct = _driver("wormhole", butterfly_problem, L, 1, priority="index")
        _same(direct, simulate(
            butterfly_problem,
            model="wormhole",
            B=1,
            seed=SEED,
            priority="index",
            message_length=L,
        ))


class TestProblemForms:
    def test_named_workload_defaults_length(self):
        res = simulate("chain-bundle", model="wormhole", B=2, seed=5)
        assert res.all_delivered

    def test_workload_params_forwarded(self):
        small = simulate(
            "chain-bundle",
            model="wormhole",
            B=1,
            workload_params={"chains": 2, "depth": 4, "messages": 2},
        )
        assert small.num_messages == 4  # 2 chains * 2 messages

    def test_arrival_trace_is_a_wormhole_workload(self):
        """An open-loop trace is a wormhole trial whose releases are its
        arrivals, one injection queue per source: the name and the built
        workload run the same trial."""
        wl = build_workload("scenario:heavy-tail-arrivals", {"horizon": 120})
        assert "continuous" not in repro.MODELS
        by_name = simulate(
            "scenario:heavy-tail-arrivals",
            B=2,
            workload_params={"horizon": 120},
        )
        by_workload = simulate(wl, B=2)
        assert by_name.all_delivered and by_name.num_messages == len(wl.paths)
        assert np.array_equal(by_name.completion_times, by_workload.completion_times)
        # The releases without the injection queues are a trial too.
        unqueued = simulate(
            Workload(net=wl.net, paths=wl.paths, release_times=wl.release_times),
            B=2,
            message_length=wl.default_length,
        )
        assert (unqueued.completion_times > wl.release_times).all()

    @pytest.mark.parametrize("model", ["wormhole", "cut_through", "store_forward"])
    def test_a_padded_path_pack_is_the_same_problem(self, butterfly_problem, model):
        """``(net, PaddedPaths)`` — what ``run_<model>_batch`` accepts —
        runs, and estimates, the trial its edge lists do."""
        from repro.sim.engine import PaddedPaths

        bf, paths = butterfly_problem
        packed = PaddedPaths.from_paths(paths)
        for mode in ("exact", "estimate"):
            kw = dict(model=model, B=2, message_length=L, seed=SEED, mode=mode)
            want, got = simulate((bf, paths), **kw), simulate((bf, packed), **kw)
            if mode == "exact":
                _same(got, want)
            else:
                assert got.envelope == want.envelope

    def test_exported_from_top_level(self):
        assert repro.simulate is simulate
        assert "wormhole" in repro.MODELS


class TestErrors:
    def test_unknown_model(self, butterfly_problem):
        with pytest.raises(NetworkError, match="unknown model"):
            simulate(butterfly_problem, model="teleport", message_length=4)

    def test_unknown_workload_name(self):
        with pytest.raises(NetworkError, match="unknown workload"):
            simulate("no-such-workload")

    def test_tuple_problem_requires_length(self, butterfly_problem):
        with pytest.raises(NetworkError, match="message_length"):
            simulate(butterfly_problem, model="wormhole")

    def test_telemetry_rejected_for_restricted(self, butterfly_problem):
        with pytest.raises(NetworkError, match="telemetry"):
            simulate(
                butterfly_problem,
                model="restricted",
                message_length=4,
                telemetry=object(),
            )

    def test_adaptive_needs_mesh_problem(self):
        with pytest.raises(NetworkError, match="mesh"):
            simulate("chain-bundle", model="adaptive")

    def test_bad_problem_type(self):
        with pytest.raises(TypeError, match="problem"):
            simulate(12345, model="wormhole", message_length=4)


class TestDeprecations:
    """Retired modules stay retired; their names live on elsewhere."""

    @pytest.mark.parametrize(
        "module", ["wormhole", "cut_through", "restricted"]
    )
    @pytest.mark.parametrize("name", ["pad_paths", "check_edge_simple"])
    def test_shim_removed(self, module, name):
        """The per-model wrapper modules are gone (their classes live in
        ``repro.sim.batch``); engine is the home of the path helpers."""
        import importlib

        from repro.sim import engine

        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(f"repro.sim.{module}")
        assert callable(getattr(engine, name))

    def test_package_import_does_not_warn(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [
                sys.executable,
                "-W",
                "error::DeprecationWarning",
                "-c",
                "import repro, repro.sim",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr


class TestSimResultAndModes:
    """The ``SimResult`` facade and the ``mode=`` request axis."""

    def test_exact_result_delegates(self, butterfly_problem):
        res = simulate(butterfly_problem, model="wormhole", B=2,
                       message_length=L, seed=SEED)
        assert isinstance(res, repro.SimResult)
        assert res.mode == "exact"
        assert res.steps == res.result.steps_executed
        assert np.array_equal(res.delays, res.result.completion_times)
        # Delegation: every SimulationResult attribute still reads.
        assert res.makespan == res.result.makespan
        assert res.num_delivered == res.result.num_delivered
        assert res.delivered.dtype == bool

    def test_estimate_mode_brackets_exact(self, butterfly_problem):
        exact = simulate(butterfly_problem, model="wormhole", B=2,
                         message_length=L, seed=SEED)
        bounds = simulate(butterfly_problem, model="wormhole", B=2,
                          message_length=L, mode="estimate")
        assert bounds.mode == "estimate"
        assert bounds.steps == 0  # no simulation ran
        assert bounds.lower <= exact.makespan <= bounds.upper
        assert tuple(bounds.delays) == bounds.envelope.per_message_lower

    def test_estimate_is_deterministic(self, butterfly_problem):
        a = simulate(butterfly_problem, model="wormhole", B=2,
                     message_length=L, mode="estimate")
        b = simulate(butterfly_problem, model="wormhole", B=2,
                     message_length=L, mode="estimate")
        assert a.envelope.to_metrics() == b.envelope.to_metrics()

    def test_unknown_mode_rejected(self, butterfly_problem):
        with pytest.raises(NetworkError, match="unknown mode"):
            simulate(butterfly_problem, model="wormhole", B=2,
                     message_length=L, mode="turbo")

    def test_estimate_rejects_exact_only_features(self, butterfly_problem):
        with pytest.raises(NetworkError, match="exact-mode"):
            simulate(butterfly_problem, model="wormhole", B=2,
                     message_length=L, mode="estimate", batch=[1, 2])

    def test_batch_results_are_wrapped(self, butterfly_problem):
        out = simulate(butterfly_problem, model="wormhole", B=2,
                       message_length=L, batch=[1, 2])
        assert all(isinstance(r, repro.SimResult) for r in out)
        assert all(r.mode == "exact" for r in out)

    def test_dict_access_removed(self, butterfly_problem):
        res = simulate(butterfly_problem, model="wormhole", B=2,
                       message_length=L, seed=SEED)
        with pytest.raises(TypeError):
            res["makespan"]
        with pytest.raises(AttributeError):
            res.get("makespan")

    def test_simulate_modes_exported(self):
        assert repro.SIMULATE_MODES == ("exact", "estimate")
