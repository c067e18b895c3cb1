"""Backend contract tests: resolution, stats, and bit-equivalence.

The load-bearing property is the last one: the execution substrate may
move *where* a unit runs but never what it computes, so a fixed sweep
grid must produce byte-identical metrics on every backend.
"""

import pytest

from repro.exec import (
    BACKENDS,
    ExecutionBackend,
    InlineBackend,
    ProcessPoolBackend,
    ThreadBackend,
    create_backend,
)
from repro.sim.sweep import run_sweep, sweep_grid


def _double(x):
    return 2 * x


def _boom(x):
    raise ValueError(f"bad unit {x}")


@pytest.fixture(scope="module")
def process_backend():
    backend = ProcessPoolBackend(workers=2)
    yield backend
    backend.close()


def _fresh_backends():
    """One instance of each backend; caller closes."""
    return [InlineBackend(), ThreadBackend(workers=2)]


class TestCreateBackend:
    def test_names_resolve(self):
        for name in BACKENDS:
            kwargs = {"prewarm": False} if name == "process" else {}
            backend = create_backend(name, workers=2, **kwargs)
            try:
                assert backend.name == name
                assert isinstance(backend, ExecutionBackend)
            finally:
                backend.close()

    def test_none_means_inline(self):
        backend = create_backend(None)
        assert backend.name == "inline"
        backend.close()

    def test_instance_passes_through(self):
        inst = InlineBackend()
        assert create_backend(inst) is inst
        inst.close()

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            create_backend("quantum")


class TestRunAndMap:
    def test_run_and_map_results(self, process_backend):
        for backend in _fresh_backends() + [process_backend]:
            assert backend.run(_double, 21) == 42
            assert backend.map(_double, [1, 2, 3]) == [2, 4, 6]
            if backend is not process_backend:
                backend.close()

    def test_stats_count_units(self):
        backend = InlineBackend()
        backend.run(_double, 1)
        backend.map(_double, [2, 3])
        snap = backend.stats_snapshot()
        assert snap["submitted"] == 3
        assert snap["completed"] == 3
        assert snap["backend"] == snap["mode"] == "inline"
        backend.close()

    def test_fn_exception_propagates_unretried(self, process_backend):
        for backend in _fresh_backends() + [process_backend]:
            with pytest.raises(ValueError, match="bad unit 7"):
                backend.run(_boom, 7)
            snap = backend.stats_snapshot()
            assert snap["retried"] == 0, backend.name
            assert snap["worker_restarts"] == 0, backend.name
            if backend is not process_backend:
                backend.close()

    def test_context_manager_closes(self):
        with ThreadBackend(workers=1) as backend:
            assert backend.run(_double, 5) == 10
        assert backend._closed


class TestBitEquivalence:
    """Every backend yields the serial sweep's exact metrics."""

    @pytest.fixture(scope="class")
    def grid(self):
        return sweep_grid(
            "chain-bundle",
            ["wormhole", "store_forward"],
            (1, 2),
            workload_params={"chains": 2, "depth": 6, "messages": 4},
            message_length=8,
            repeats=2,
        )

    @pytest.fixture(scope="class")
    def serial_metrics(self, grid):
        out = run_sweep(grid, root_seed=42, backend="inline")
        return [t.metrics for t in out]

    @pytest.mark.parametrize("name", BACKENDS)
    def test_backend_matches_serial(self, grid, serial_metrics, name):
        out = run_sweep(grid, root_seed=42, workers=2, backend=name)
        assert [t.metrics for t in out] == serial_metrics


class TestSweepOwnsItsBackend:
    """``run_sweep`` builds its backend from a name and always closes it."""

    @pytest.fixture()
    def created(self, monkeypatch):
        import repro.exec as exec_pkg

        made = []

        def spy(name, **kwargs):
            backend = create_backend(name, **kwargs)
            made.append(backend)
            return backend

        monkeypatch.setattr(exec_pkg, "create_backend", spy)
        return made

    @pytest.fixture()
    def specs(self):
        return sweep_grid(
            "chain-bundle",
            ["wormhole"],
            (1,),
            workload_params={"chains": 1, "depth": 3, "messages": 2},
            message_length=4,
        )

    def test_closed_after_the_sweep(self, created, specs):
        (trial,) = run_sweep(specs, root_seed=1, backend="thread")
        assert trial.metrics
        (backend,) = created
        assert isinstance(backend, ThreadBackend) and backend._closed

    def test_closed_when_a_unit_fails(self, created, specs, monkeypatch):
        def broken_map(self, fn, items):
            raise RuntimeError("unit failed")

        monkeypatch.setattr(ThreadBackend, "map", broken_map)
        with pytest.raises(RuntimeError, match="unit failed"):
            run_sweep(specs, root_seed=1, backend="thread")
        (backend,) = created
        assert backend._closed
