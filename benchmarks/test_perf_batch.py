"""Batched-vs-serial sweep throughput (see ``repro.sim.batch``).

The lockstep batch engine's reason to exist is wall-clock: running a
whole trial grid as stacked ``(T, M)`` arrays amortizes per-step Python
dispatch across trials.  These benchmarks time both execution paths of
:func:`repro.sim.sweep.run_sweep` on the E5-style wormhole grid and
assert the batched path is substantially faster *and* bit-identical —
the same grid, seeds, and metrics either way.

The figure to cite is perfbench's ``sweep_batched`` vs ``sweep_serial``
(``ns_per_msg_step``); this file is the pytest-benchmark view of the
same comparison.
"""

import pytest

from repro.sim.sweep import run_sweep, sweep_grid

#: The E5 router-comparison shape: C=8, D=12, L=24, B in {1, 2, 4}.
GRID = dict(
    workload="chain-bundle",
    simulators="wormhole",
    Bs=(1, 2, 4),
    workload_params={"chains": 4, "depth": 12, "messages": 8},
    message_length=24,
    repeats=10,
)


@pytest.fixture(scope="module")
def grid_specs():
    return sweep_grid(
        GRID["workload"],
        GRID["simulators"],
        GRID["Bs"],
        workload_params=GRID["workload_params"],
        message_length=GRID["message_length"],
        repeats=GRID["repeats"],
    )


@pytest.fixture(scope="module")
def serial_metrics(grid_specs):
    out = run_sweep(grid_specs, batch_size=1)
    return [t.metrics for t in out]


def test_perf_sweep_serial(benchmark, grid_specs):
    out = benchmark(lambda: run_sweep(grid_specs, batch_size=1))
    assert len(out) == len(grid_specs)


def test_perf_sweep_batched(benchmark, grid_specs, serial_metrics):
    out = benchmark(lambda: run_sweep(grid_specs))
    assert [t.metrics for t in out] == serial_metrics


def test_batched_speedup(grid_specs, serial_metrics):
    """The acceptance bar: batched >= 3x serial trials/sec, bit-identical."""
    import time

    def best_of(fn, rounds=3):
        wall = float("inf")
        for _ in range(rounds):
            t0 = time.perf_counter()
            out = fn()
            wall = min(wall, time.perf_counter() - t0)
        return out, wall

    serial_out, serial_wall = best_of(lambda: run_sweep(grid_specs, batch_size=1))
    batched_out, batched_wall = best_of(lambda: run_sweep(grid_specs))
    assert [t.metrics for t in batched_out] == serial_metrics
    assert [t.metrics for t in serial_out] == serial_metrics
    speedup = serial_wall / batched_wall
    print(
        f"\nbatched sweep: {len(grid_specs)} trials, "
        f"serial {serial_wall:.3f}s, batched {batched_wall:.3f}s, "
        f"speedup {speedup:.2f}x"
    )
    assert speedup >= 3.0
