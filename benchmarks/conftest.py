"""Shared helpers for the experiment benchmarks (E1-E10).

Each benchmark regenerates one of the paper's results (see DESIGN.md's
experiment index): it measures the relevant quantity across a parameter
sweep, prints the comparison table, writes it to ``benchmarks/results/``,
and asserts the *shape* the paper proves (who wins, monotonicity,
bounded measured/bound ratios).  ``pytest-benchmark`` times the core
operation of each experiment.
"""

from pathlib import Path

import pytest

from repro.sim.spec import Workload

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir():
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def save_table(results_dir):
    """Save a rendered table under benchmarks/results/<name>.txt."""

    def _save(name, table):
        text = table.render()
        (results_dir / f"{name}.txt").write_text(text + "\n")
        print()
        print(text)
        return text

    return _save


@pytest.fixture
def run_schedule():
    """``run(net, paths, build, B)``: the schedule ``build`` released on
    ``(net, paths)`` (:meth:`~repro.core.scheduler.ScheduleBuild.apply`)
    as one wormhole trial at ``B``.  The expectation table judges the
    run and must find no violation; its ``schedule`` row (Theorem 2.1.6:
    unblocked, within ``length_bound``) must be among the rows applied."""
    from repro import simulate
    from repro.fuzz.expectations import evaluate

    def run(net, paths, build, B):
        wl = build.apply(Workload(net, paths), B)
        result = simulate(wl, B=B)
        verdicts = evaluate(result, wl, model="wormhole", B=B)
        assert "schedule" in {row.name for row, _ in verdicts}
        assert [v for _, v in verdicts if v] == []
        return result

    return run
